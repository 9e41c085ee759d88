"""Tests for the round ledger and communication primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.ledger import CommunicationPrimitives, RoundLedger, _bits_for_value_range


class TestRoundLedger:
    def test_total_rounds_accumulates(self):
        ledger = RoundLedger()
        ledger.charge("a", 3)
        ledger.charge("b", 2.5)
        assert ledger.total_rounds == pytest.approx(5.5)

    def test_rounds_by_operation_groups(self):
        ledger = RoundLedger()
        ledger.charge("matvec", 2)
        ledger.charge("matvec", 2)
        ledger.charge("broadcast", 1)
        grouped = ledger.rounds_by_operation()
        assert grouped["matvec"] == 4
        assert grouped["broadcast"] == 1

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().charge("bad", -1)

    def test_merge(self):
        a = RoundLedger()
        a.charge("x", 1)
        b = RoundLedger()
        b.charge("y", 2)
        a.merge(b)
        assert a.total_rounds == 3


class TestCommunicationPrimitives:
    def test_local_operations_are_free(self):
        comm = CommunicationPrimitives(16)
        comm.vector_op()
        comm.local_computation()
        assert comm.ledger.total_rounds == 0

    def test_matvec_costs_at_least_one_round(self):
        comm = CommunicationPrimitives(16)
        comm.matvec()
        assert comm.ledger.total_rounds >= 1

    def test_matvec_cost_grows_with_precision(self):
        cheap = CommunicationPrimitives(64, precision=1e-3)
        costly = CommunicationPrimitives(64, precision=1e-12)
        cheap.matvec()
        costly.matvec()
        assert costly.ledger.total_rounds >= cheap.ledger.total_rounds

    def test_distributed_matvec_matches_numpy(self):
        comm = CommunicationPrimitives(8)
        rng = np.random.default_rng(0)
        A = rng.normal(size=(8, 8))
        v = rng.normal(size=8)
        out = comm.distributed_matvec(A, v)
        np.testing.assert_allclose(out, A @ v)
        assert comm.ledger.total_rounds > 0

    def test_invalid_network_size(self):
        with pytest.raises(ValueError):
            CommunicationPrimitives(0)

    def test_matvec_costs_one_value_broadcast(self):
        """One coordinate per vertex: ``ceil(log(nU/eps) / log n)`` words."""
        comm = CommunicationPrimitives(32, value_magnitude=100.0, precision=1e-6)
        bits = _bits_for_value_range(32, 100.0, 1e-6)
        assert comm.matvec() == -(-bits // comm.word_bits)

    def test_laplacian_solve_charges_what_it_is_given(self):
        comm = CommunicationPrimitives(8)
        assert comm.laplacian_solve(17.5) == 17.5
        with pytest.raises(ValueError):
            comm.laplacian_solve(-1.0)

    def test_charges_are_labelled_by_primitive(self):
        comm = CommunicationPrimitives(16)
        comm.matvec("step 1")
        comm.laplacian_solve(3.0)
        comm.vector_op()
        assert set(comm.ledger.rounds_by_operation()) == {"matvec", "laplacian_solve", "vector_op"}
        assert comm.ledger.entries[0].detail == "step 1"

    @pytest.mark.parametrize(
        "n, magnitude, eps",
        [(2, 1.0, 0.5), (16, 100.0, 1e-6), (1024, 2.0**30, 1e-9), (10**5, 1e3, 1e-3)],
    )
    def test_every_matvec_charges_the_same_value_broadcast(self, n, magnitude, eps):
        """The cost depends on ``(n, U, eps)`` only, never on the call's payload."""
        comm = CommunicationPrimitives(n, value_magnitude=magnitude, precision=eps)
        bits = _bits_for_value_range(n, magnitude, eps)
        expected = -(-bits // comm.word_bits)
        rng = np.random.default_rng(n)
        assert comm.matvec() == expected
        comm.distributed_matvec(rng.normal(size=(3, 3)), rng.normal(size=3))
        assert comm.ledger.total_rounds == 2 * expected
        assert [entry.rounds for entry in comm.ledger.entries] == [expected, expected]

    def test_distributed_matvec_accepts_rectangular_rows(self):
        comm = CommunicationPrimitives(5)
        rng = np.random.default_rng(3)
        A = rng.normal(size=(7, 5))
        v = rng.normal(size=5)
        np.testing.assert_allclose(comm.distributed_matvec(A, list(v), "rows"), A @ v)
        assert comm.ledger.entries[-1].operation == "matvec"
        assert comm.ledger.entries[-1].detail == "rows"

    def test_shared_ledger_accumulates_across_primitives(self):
        ledger = RoundLedger()
        a = CommunicationPrimitives(8, ledger=ledger)
        b = CommunicationPrimitives(64, ledger=ledger)
        total = a.matvec() + b.laplacian_solve(2.5)
        assert ledger.total_rounds == total == a._words_per_value() + 2.5


class TestWordSize:
    """One word is ``ceil(log2 n)`` bits, enough for any vertex identifier."""

    def test_small_networks_have_at_least_one_bit(self):
        assert CommunicationPrimitives(1).word_bits == 1
        assert CommunicationPrimitives(2).word_bits == 1

    @pytest.mark.parametrize("n, bits", [(16, 4), (1024, 10), (1025, 11)])
    def test_word_size_grows_logarithmically(self, n, bits):
        assert CommunicationPrimitives(n).word_bits == bits

    @given(st.integers(min_value=2, max_value=10**6))
    def test_identifiers_fit_in_one_word(self, n):
        assert (n - 1).bit_length() <= CommunicationPrimitives(n).word_bits


class TestValueEncoding:
    """Values cost ``O(log(nU/eps))`` bits, i.e. ``O(log(nU/eps)/log n)`` rounds."""

    def test_bits_grow_with_magnitude_and_precision(self):
        base = _bits_for_value_range(64, 1.0, 1e-3)
        assert _bits_for_value_range(64, 2.0**20, 1e-3) == base + 20
        assert _bits_for_value_range(64, 1.0, 1e-3 / 2**10) == base + 10

    def test_precision_and_magnitude_are_clamped(self):
        # eps above 1/2 and magnitudes below 1 buy nothing
        assert _bits_for_value_range(64, 0.01, 0.9) == _bits_for_value_range(64, 1.0, 0.5) == 7
        # eps = 0 is clamped to a finite precision
        assert _bits_for_value_range(64, 1.0, 0.0) < 1100

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=0.0, max_value=1e12),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_every_value_costs_at_least_one_round(self, n, magnitude, eps):
        comm = CommunicationPrimitives(n, value_magnitude=magnitude, precision=eps)
        assert comm.matvec() >= 1
