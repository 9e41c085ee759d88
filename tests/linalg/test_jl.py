"""Tests for the Johnson-Lindenstrauss transforms (Theorem 4.4)."""

import numpy as np
import pytest

from repro.linalg.jl import (
    kane_nelson_column,
    kane_nelson_random_bits,
    kane_nelson_sketch,
    resistance_sketch_dimension,
    resistance_sketch_eta,
)
from reference_jl import kane_nelson_matrix


class TestDimensions:
    def test_random_bits_polylogarithmic(self):
        bits = kane_nelson_random_bits(10**6)
        assert bits <= 10 * np.log2(10**6) ** 2

    def test_random_bits_grow_with_m_and_confidence(self):
        assert kane_nelson_random_bits(10**4) > kane_nelson_random_bits(100)
        assert kane_nelson_random_bits(100, delta=1e-12) > kane_nelson_random_bits(100, delta=1e-2)


class TestKaneNelsonSketch:
    """The sparse-format construction used by the sketched resistance oracle."""

    def test_deterministic_given_seed_across_vertices(self):
        A = kane_nelson_sketch(16, 40, seed_bits=12345)
        np.random.default_rng(7).random(512)  # unrelated draws in between
        B = kane_nelson_sketch(16, 40, seed_bits=12345)
        np.testing.assert_array_equal(A.toarray(), B.toarray())

    def test_different_seeds_differ(self):
        A = kane_nelson_sketch(16, 40, seed_bits=1)
        B = kane_nelson_sketch(16, 40, seed_bits=2)
        assert not np.array_equal(A.toarray(), B.toarray())

    def test_shape_contract_matches_dense_construction(self):
        """s distinct nonzeros of +/- 1/sqrt(s) per column, unit column norms:
        the shape of the dense column-by-column expansion."""
        k, m, s = 25, 300, 5
        Q = kane_nelson_sketch(k, m, seed_bits=7, column_sparsity=s).toarray()
        dense = kane_nelson_matrix(k, m, seed_bits=7, column_sparsity=s)
        assert Q.shape == dense.shape == (k, m)
        np.testing.assert_array_equal(
            np.count_nonzero(Q, axis=0), np.count_nonzero(dense, axis=0)
        )
        np.testing.assert_array_equal(np.unique(Q), np.unique(dense))
        np.testing.assert_allclose(np.linalg.norm(Q, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(dense, axis=0), 1.0, atol=1e-12)

    def test_default_column_sparsity_is_sqrt_k(self):
        Q = kane_nelson_sketch(25, 30, seed_bits=9).toarray()
        np.testing.assert_array_equal(np.count_nonzero(Q, axis=0), 5)

    def test_sparsity_clamped_to_k(self):
        Q = kane_nelson_sketch(3, 10, seed_bits=2, column_sparsity=50).toarray()
        np.testing.assert_array_equal(np.count_nonzero(Q, axis=0), 3)

    def test_norm_preservation_statistics(self):
        rng = np.random.default_rng(4)
        m = 300
        k = resistance_sketch_dimension(m, 0.5)
        Q = kane_nelson_sketch(min(k, m), m, seed_bits=11)
        squared_ratios = []
        for _ in range(50):
            x = rng.normal(size=m)
            squared_ratios.append(
                np.sum((Q @ x) ** 2) / np.sum(x ** 2)
            )
        # the squared-norm form is what the resistance oracle relies on
        assert np.mean(np.abs(np.asarray(squared_ratios) - 1.0) <= 0.5) >= 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            kane_nelson_sketch(0, 5, 1)
        with pytest.raises(ValueError):
            kane_nelson_sketch(5, 0, 1)

    @pytest.mark.parametrize(
        "k, m, s", [(1, 7, 1), (4, 50, 2), (16, 40, 4), (49, 200, 7), (60, 5, 3)]
    )
    def test_every_column_is_s_signed_entries_of_unit_norm(self, k, m, s):
        Q = kane_nelson_sketch(k, m, seed_bits=k * m, column_sparsity=s).tocsc()
        assert Q.shape == (k, m)
        np.testing.assert_array_equal(np.diff(Q.indptr), s)
        np.testing.assert_allclose(np.abs(Q.data), 1.0 / np.sqrt(s), rtol=1e-15)
        np.testing.assert_allclose(np.sqrt(Q.multiply(Q).sum(axis=0)).A1, 1.0, rtol=1e-12)

    def test_signs_are_balanced(self):
        Q = kane_nelson_sketch(36, 2000, seed_bits=3).tocsc()
        assert abs(np.mean(np.sign(Q.data))) < 0.05


class TestKaneNelsonColumn:
    """The column an edge insertion appends to a built sketch."""

    @pytest.mark.parametrize("k", [1, 4, 25, 100])
    def test_default_shape_matches_the_built_sketch(self, k):
        column = kane_nelson_column(k, seed_bits=5, column_index=12)
        built = kane_nelson_sketch(k, 1, seed_bits=5).toarray()[:, 0]
        assert column.shape == built.shape == (k,)
        assert np.count_nonzero(column) == np.count_nonzero(built)
        np.testing.assert_array_equal(
            np.unique(np.abs(column[column != 0])), np.unique(np.abs(built[built != 0]))
        )
        assert np.linalg.norm(column) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_given_seed_and_index(self):
        a = kane_nelson_column(30, seed_bits=77, column_index=4)
        np.random.default_rng(0).random(64)  # unrelated draws in between
        b = kane_nelson_column(30, seed_bits=77, column_index=4)
        np.testing.assert_array_equal(a, b)

    def test_index_and_seed_each_change_the_column(self):
        base = kane_nelson_column(30, seed_bits=77, column_index=4)
        assert not np.array_equal(base, kane_nelson_column(30, seed_bits=77, column_index=5))
        assert not np.array_equal(base, kane_nelson_column(30, seed_bits=78, column_index=4))

    def test_sparsity_clamped_to_k(self):
        column = kane_nelson_column(3, seed_bits=1, column_index=0, column_sparsity=10)
        assert np.count_nonzero(column) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            kane_nelson_column(0, seed_bits=1, column_index=0)


class TestResistanceSketchDimension:
    def test_scales_with_eta(self):
        assert resistance_sketch_dimension(1000, 0.1) > resistance_sketch_dimension(1000, 0.5)

    def test_scales_with_delta(self):
        assert resistance_sketch_dimension(1000, 0.5, delta=1e-12) > (
            resistance_sketch_dimension(1000, 0.5, delta=1e-3)
        )

    def test_grows_logarithmically_in_m(self):
        small = resistance_sketch_dimension(100, 0.5)
        large = resistance_sketch_dimension(10**6, 0.5)
        assert small < large <= 4 * small

    def test_validation(self):
        for bad_eta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                resistance_sketch_dimension(100, bad_eta)
        with pytest.raises(ValueError):
            resistance_sketch_dimension(100, 0.5, delta=0.0)


class TestResistanceSketchEta:
    """The accuracy bound a ``k``-row sketch still honours: the inverse of the dimension."""

    @pytest.mark.parametrize("m, eta", [(50, 0.5), (1000, 0.1), (1000, 0.9), (10**6, 0.25)])
    def test_round_trip_through_the_dimension(self, m, eta):
        k = resistance_sketch_dimension(m, eta)
        back = resistance_sketch_eta(k, m)
        assert back is not None and back <= eta
        assert resistance_sketch_dimension(m, back) <= k
        # nothing tighter fits in k rows
        assert resistance_sketch_dimension(m, back * (1 - 1e-6)) > k

    def test_bound_widens_with_the_ambient_dimension(self):
        k = resistance_sketch_dimension(1000, 0.3)
        assert resistance_sketch_eta(k, 2000) > resistance_sketch_eta(k, 1000)

    def test_too_few_rows_honour_nothing(self):
        assert resistance_sketch_eta(1, 1000) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            resistance_sketch_eta(0, 100)
