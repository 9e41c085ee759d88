"""The array-code generators draw bit for bit what the scalar loops drew.

``erdos_renyi`` (so ``random_weighted_graph``), ``random_flow_network`` and
``grid_graph`` are pinned to the frozen per-pair loops in
``tests/graphs/reference_generators.py``: the same edges and weights, the same
weight-dict insertion order, and the same final ``bit_generator.state`` (the
``has_uint32`` half-word buffer included), so every later draw a caller makes
on a passed-in generator is unchanged too.

The Erdos-Renyi grid is the full product of ``n``, ``p``, ``max_weight`` and
``ensure_connected`` up to ``n = 300``; at ``n = 1000`` every ``p`` runs once
(the dense scalar references take seconds each).  ``max_weight = 9`` is a
range whose Lemire threshold is positive; no seeded instance draws a rejected
value (the rate is about ``range / 2**32`` per draw), so the rejection branch
is driven directly with ranges that reject a quarter of the draws.
"""

import numpy as np
import pytest

import reference_generators
from repro.graphs import generators

SIZES = (0, 1, 2, 3, 50, 300)
PROBABILITIES = (0.0, 1e-3, 0.5, 1.0)
MAX_WEIGHTS = (1.0, 9, 16)
#: ranges of 3 * 2**30 and 3 * 2**61 values: Lemire rejects a quarter of the
#: uint32 draws of the first and of the uint64 draws of the second
REJECTING_MAX_WEIGHTS = (3 * 2**30, 3 * 2**61)


def assert_same_graph(got, expected):
    for column, reference in zip(got.edge_array(), expected.edge_array()):
        assert np.array_equal(column, reference)
    assert list(got._weights.items()) == list(expected._weights.items())


def assert_same_network(got, expected):
    assert list(got._edges.items()) == list(expected._edges.items())
    for column, reference in zip(got.edge_array(), expected.edge_array()):
        assert np.array_equal(column, reference)


def twin_generators(seed, pending_half=False):
    """Two generators in the same state, optionally with a buffered uint32 half."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending_half:
        for rng in pair:
            rng.integers(5)
            assert rng.bit_generator.state["has_uint32"]
    return pair


def check_erdos_renyi(n, p, max_weight, ensure_connected, seed=11, pending_half=False):
    expected_rng, rng = twin_generators(seed, pending_half)
    if n == 0:
        with pytest.raises(ValueError):
            reference_generators.erdos_renyi(n, p, max_weight, expected_rng, ensure_connected)
        with pytest.raises(ValueError):
            generators.erdos_renyi(n, p, max_weight, rng, ensure_connected)
    else:
        expected = reference_generators.erdos_renyi(n, p, max_weight, expected_rng, ensure_connected)
        got = generators.erdos_renyi(n, p, max_weight, rng, ensure_connected)
        assert_same_graph(got, expected)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestErdosRenyi:
    @pytest.mark.parametrize("ensure_connected", (True, False))
    @pytest.mark.parametrize("max_weight", MAX_WEIGHTS)
    @pytest.mark.parametrize("p", PROBABILITIES)
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_the_scalar_loop(self, n, p, max_weight, ensure_connected):
        check_erdos_renyi(n, p, max_weight, ensure_connected)

    @pytest.mark.parametrize(
        "p, max_weight, ensure_connected",
        [(0.0, 1.0, True), (1e-3, 9, True), (1e-3, 16, False), (0.5, 9, True), (1.0, 16, True)],
    )
    def test_matches_the_scalar_loop_at_n_1000(self, p, max_weight, ensure_connected):
        check_erdos_renyi(1000, p, max_weight, ensure_connected)

    @pytest.mark.parametrize("n, p", [(50, 0.3), (300, 0.02)])
    @pytest.mark.parametrize("max_weight", MAX_WEIGHTS)
    def test_pending_uint32_half_of_a_passed_in_generator(self, n, p, max_weight):
        check_erdos_renyi(n, p, max_weight, True, pending_half=True)

    @pytest.mark.parametrize("max_weight", REJECTING_MAX_WEIGHTS)
    @pytest.mark.parametrize("pending_half", (False, True))
    def test_lemire_rejections_match(self, max_weight, pending_half):
        check_erdos_renyi(60, 0.4, max_weight, True, pending_half=pending_half)

    @pytest.mark.parametrize("block_words", (1, 2, 3, 64))
    @pytest.mark.parametrize("max_weight", (16, 3 * 2**30))
    def test_any_block_size_draws_the_same_stream(self, monkeypatch, block_words, max_weight):
        """Small blocks put a success, or a weight's word, on every block boundary."""
        monkeypatch.setattr(generators, "BLOCK_WORDS", block_words)
        check_erdos_renyi(40, 0.5, max_weight, True)
        check_erdos_renyi(40, 0.5, max_weight, True, pending_half=True)
        check_erdos_renyi(120, 0.02, max_weight, True)

    def test_several_graphs_from_one_generator(self):
        expected_rng, rng = twin_generators(5)
        for n, p, max_weight in [(30, 0.2, 9), (1, 0.5, 4), (45, 0.1, 16), (12, 1.0, 2.5)]:
            assert_same_graph(
                generators.erdos_renyi(n, p, max_weight, rng),
                reference_generators.erdos_renyi(n, p, max_weight, expected_rng),
            )
        assert rng.random() == expected_rng.random()

    @pytest.mark.slow
    def test_random_weighted_graph_5000_matches(self):
        """The n = 5000 instance (12.5 M pairs; the scalar reference takes ~9 s)."""
        expected_rng, rng = twin_generators(7)
        expected = reference_generators.erdos_renyi(5000, 8 / 4999, 16.0, expected_rng)
        assert_same_graph(generators.random_weighted_graph(5000, 8, seed=rng), expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_a_generator_without_a_uint32_buffer_is_refused(self):
        with pytest.raises(TypeError, match="MT19937"):
            generators.erdos_renyi(10, 0.5, seed=np.random.Generator(np.random.MT19937(1)))


class TestWeightContract:
    def test_default_max_weight_draws_weights_one_and_two(self):
        graph = generators.erdos_renyi(40, 0.5, seed=1)
        weights = set(graph.edge_array()[2].tolist())
        assert weights == {1.0, 2.0}

    def test_a_fractional_bound_is_floored(self):
        graph = generators.erdos_renyi(40, 0.5, max_weight=4.9, seed=1)
        assert set(graph.edge_array()[2].tolist()) == {1.0, 2.0, 3.0, 4.0}


class TestScalarReplay:
    """``_ScalarReplay.integers`` against ``Generator.integers`` on one stream."""

    @pytest.mark.parametrize(
        "low, high",
        [(1, 3 * 2**30 + 1), (0, 3 * 2**30), (1, 3 * 2**61 + 1), (1, 10), (5, 6), (0, 2**32), (7, 2**40 + 7)],
    )
    def test_draws_and_final_state_match(self, low, high):
        expected_rng, rng = twin_generators(3)
        expected = [int(expected_rng.integers(low, high)) for _ in range(400)]
        replay = generators._ScalarReplay(rng)
        got = [replay.integers(low, high) for _ in range(400)]
        replay.close()
        assert got == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("bits, high", [(32, 3 * 2**30 + 1), (64, 3 * 2**61 + 1)])
    def test_the_rejection_branch_runs(self, bits, high):
        """A quarter of the draws are rejected: more words than values are used."""
        draws = 400
        rng = np.random.default_rng(3)
        replay = generators._ScalarReplay(rng)
        for _ in range(draws):
            replay.integers(1, high)
        replay.close()
        words = draws * bits // 64  # without a single rejection
        fresh = np.random.default_rng(3).bit_generator
        for used in range(4 * words):
            if fresh.state["state"] == rng.bit_generator.state["state"]:
                break
            fresh.random_raw()
        else:
            pytest.fail("the replay used more than four words per draw")
        assert used > 1.1 * words

    def test_interleaved_successes_and_draws_match_the_scalar_loop(self):
        expected_rng, rng = twin_generators(9, pending_half=True)
        expected = []
        for t in range(5000):
            if expected_rng.random() < 0.3:
                expected.append((t, int(expected_rng.integers(0, 8)), int(expected_rng.integers(1, 3))))
        replay = generators._ScalarReplay(rng)
        got = [(t, replay.integers(0, 8), replay.integers(1, 3)) for t in replay.successes(5000, 0.3)]
        replay.close()
        assert got == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestRandomFlowNetwork:
    @pytest.mark.parametrize("max_cost", (8, 7))
    @pytest.mark.parametrize("pending_half", (False, True))
    @pytest.mark.parametrize("n", (2, 3, 4, 5, 50, 300))
    def test_matches_the_scalar_loop(self, n, pending_half, max_cost):
        expected_rng, rng = twin_generators(n, pending_half)
        expected = reference_generators.random_flow_network(n, max_cost=max_cost, seed=expected_rng)
        assert_same_network(generators.random_flow_network(n, max_cost=max_cost, seed=rng), expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"average_degree": 40.0},  # p = 1 at n = 30: every pair accepted
            {"max_capacity": 1, "max_cost": 0},  # one-value ranges draw nothing
            {"max_capacity": 3 * 2**30, "max_cost": 3 * 2**61},  # rejections
        ],
    )
    @pytest.mark.parametrize("block_words", (3, 1 << 16))
    def test_edge_ranges_and_block_sizes(self, monkeypatch, kwargs, block_words):
        monkeypatch.setattr(generators, "BLOCK_WORDS", block_words)
        expected_rng, rng = twin_generators(4, pending_half=True)
        expected = reference_generators.random_flow_network(30, seed=expected_rng, **kwargs)
        assert_same_network(generators.random_flow_network(30, seed=rng, **kwargs), expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_seeded_network_matches_at_n_1000(self):
        assert_same_network(
            generators.random_flow_network(1000, seed=1),
            reference_generators.random_flow_network(1000, seed=1),
        )


class TestGridGraph:
    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 4), (5, 3), (30, 30)])
    def test_matches_the_scalar_loop(self, rows, cols):
        assert_same_graph(
            generators.grid_graph(rows, cols), reference_generators.grid_graph(rows, cols)
        )

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
    def test_rejects_what_the_scalar_loop_rejects(self, rows, cols):
        with pytest.raises(ValueError):
            reference_generators.grid_graph(rows, cols)
        with pytest.raises(ValueError):
            generators.grid_graph(rows, cols)


class TestTestOnlyGenerators:
    """Generators only tests use live in ``reference_generators``."""

    def test_expander_has_min_degree(self):
        g = reference_generators.random_regular_expander(24, degree=4, seed=5)
        assert g.is_connected()
        assert min(reference_generators.degrees(g)) >= 1

    def test_bounded_weight_generator(self):
        g = reference_generators.weighted_graph_with_bounded_weights(20, max_weight=64, seed=6)
        assert g.is_connected()
        assert g.max_weight() <= 64
