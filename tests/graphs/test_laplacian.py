"""Tests for Laplacian/incidence matrices and spectral comparisons."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_dense import (
    condition_number,
    is_symmetric_diagonally_dominant,
    laplacian_matrix,
    laplacian_pseudoinverse,
    laplacian_quadratic_form,
)
from reference_generators import edge_list, path_graph, star_graph

from repro.graphs import (
    effective_resistances,
    generators,
    incidence_matrix,
    is_spectral_sparsifier,
    spectral_approximation_factor,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.laplacian import laplacian_norm


class TestLaplacianMatrix:
    def test_matches_incidence_factorisation(self):
        g = generators.random_weighted_graph(12, seed=1)
        L = laplacian_matrix(g)
        B, w = incidence_matrix(g)
        np.testing.assert_allclose(L, B.T @ np.diag(w) @ B, atol=1e-12)

    def test_row_sums_zero(self):
        g = generators.random_weighted_graph(10, seed=2)
        L = laplacian_matrix(g)
        np.testing.assert_allclose(L @ np.ones(g.n), 0.0, atol=1e-12)

    def test_positive_semidefinite(self):
        g = generators.random_weighted_graph(10, seed=3)
        eigs = np.linalg.eigvalsh(laplacian_matrix(g))
        assert np.all(eigs >= -1e-9)

    def test_quadratic_form_matches_matrix(self, rng):
        g = generators.random_weighted_graph(12, seed=4)
        L = laplacian_matrix(g)
        for _ in range(5):
            x = rng.normal(size=g.n)
            assert laplacian_quadratic_form(g, x) == pytest.approx(float(x @ L @ x))

    def test_connected_graph_has_rank_n_minus_1(self):
        g = generators.random_weighted_graph(12, seed=5)
        L = laplacian_matrix(g)
        assert np.linalg.matrix_rank(L) == g.n - 1

    def test_laplacian_norm_nonnegative(self, rng):
        g = generators.random_weighted_graph(8, seed=6)
        L = laplacian_matrix(g)
        x = rng.normal(size=g.n)
        assert laplacian_norm(L, x) >= 0.0


class TestEffectiveResistances:
    def test_path_graph_resistances(self):
        g = path_graph(4)
        # every edge of a tree has effective resistance = 1/weight
        np.testing.assert_allclose(effective_resistances(g), np.ones(3), atol=1e-9)

    def test_resistances_bounded_by_inverse_weight(self):
        g = generators.random_weighted_graph(10, seed=8)
        resistances = effective_resistances(g)
        for r, edge in zip(resistances, g.edges()):
            assert r <= 1.0 / edge.weight + 1e-9
            assert r > 0

    def test_fosters_theorem(self):
        # sum of w_e * R_eff(e) = n - 1 for connected graphs
        g = generators.random_weighted_graph(12, seed=9)
        resistances = effective_resistances(g)
        weighted_sum = sum(r * e.weight for r, e in zip(resistances, g.edges()))
        assert weighted_sum == pytest.approx(g.n - 1, rel=1e-6)


class TestSpectralComparison:
    def test_graph_approximates_itself(self):
        g = generators.random_weighted_graph(10, seed=10)
        lo, hi = spectral_approximation_factor(g, g)
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)
        assert is_spectral_sparsifier(g, g, eps=0.01)
        assert condition_number(lo, hi) == pytest.approx(1.0, abs=1e-6)

    def test_scaled_graph_detected(self):
        g = generators.random_weighted_graph(10, seed=11)
        h = WeightedGraph(g.n)
        for edge in g.edges():
            h.add_edge(edge.u, edge.v, 2.0 * edge.weight)
        lo, hi = spectral_approximation_factor(g, h)
        assert lo == pytest.approx(0.5, abs=1e-6)
        assert hi == pytest.approx(0.5, abs=1e-6)
        assert not is_spectral_sparsifier(g, h, eps=0.1)

    def test_spanning_tree_is_weak_approximation(self):
        g = generators.complete_graph(8)
        tree = star_graph(8)
        lo, hi = spectral_approximation_factor(g, tree)
        assert hi >= 1.0  # K_n dominates its star
        assert lo > 0.0

    def test_removing_edges_lowers_the_bottom_factor(self):
        g = generators.complete_graph(8)
        h = g.copy()
        h.remove_edge(0, 1)
        lo, hi = spectral_approximation_factor(h, g)
        assert hi <= 1.0 + 1e-9
        assert lo < 1.0


class TestDegenerateSparsifiers:
    """Degenerate sparsifiers must never be certified vacuously.

    The seed implementation returned (1.0, 1.0) -- a *perfect* sparsifier --
    whenever the restricted eigenvalue set came back empty, so an empty-edge
    subgraph of any connected graph passed Definition 2.1.
    """

    def test_empty_sparsifier_of_connected_graph(self):
        g = generators.random_weighted_graph(10, seed=21)
        empty = WeightedGraph(g.n)
        lo, hi = spectral_approximation_factor(g, empty)
        assert lo == 0.0
        assert hi == float("inf")
        assert not is_spectral_sparsifier(g, empty, eps=0.99)

    def test_disconnected_sparsifier_of_connected_graph(self):
        g = generators.complete_graph(8)
        # keep only edges inside {4..7}: vertices 0-3 become isolated
        h = WeightedGraph(g.n)
        for u, v, w in edge_list(g):
            if u >= 4 and v >= 4:
                h.add_edge(u, v, w)
        lo, hi = spectral_approximation_factor(g, h)
        assert hi == float("inf")
        assert not is_spectral_sparsifier(g, h, eps=0.99)

    def test_sparsifier_with_isolated_vertices(self):
        g = path_graph(6)
        h = WeightedGraph(g.n)
        h.add_edge(0, 1, 1.0)  # vertices 2..5 isolated in H
        lo, hi = spectral_approximation_factor(g, h)
        assert hi == float("inf")
        assert not is_spectral_sparsifier(g, h, eps=0.99)

    def test_condition_number_is_infinite_for_degenerate_preconditioner(self):
        g = generators.random_weighted_graph(10, seed=22)
        empty = WeightedGraph(g.n)
        assert condition_number(*spectral_approximation_factor(g, empty)) == float("inf")
        disconnected = WeightedGraph(g.n)
        edges = edge_list(g)
        u, v, w = edges[0]
        disconnected.add_edge(u, v, w)
        assert condition_number(*spectral_approximation_factor(g, disconnected)) == float("inf")

    def test_connected_sparsifier_still_certified(self):
        g = generators.random_weighted_graph(12, seed=23)
        assert is_spectral_sparsifier(g, g, eps=0.01)

    def test_empty_sparsifier_of_empty_graph_is_perfect(self):
        g = WeightedGraph(5)
        assert spectral_approximation_factor(g, g) == (1.0, 1.0)
        assert is_spectral_sparsifier(g, g, eps=0.01)

    @pytest.mark.parametrize("weight", [1e-10, 1e8])
    def test_certification_is_scale_invariant(self, weight):
        """Degenerate detection must be relative to the spectra's own scale: a
        uniformly tiny- (or huge-) weight graph is a perfect sparsifier of
        itself, not a degenerate one."""
        g = path_graph(6, weight=weight)
        lo, hi = spectral_approximation_factor(g, g)
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)
        assert is_spectral_sparsifier(g, g, eps=0.01)
        assert condition_number(lo, hi) == pytest.approx(1.0, abs=1e-6)


class TestSDDCheck:
    def test_laplacian_is_sdd(self):
        g = generators.random_weighted_graph(8, seed=12)
        assert is_symmetric_diagonally_dominant(laplacian_matrix(g))

    def test_non_symmetric_rejected(self):
        M = np.array([[2.0, 1.0], [0.0, 2.0]])
        assert not is_symmetric_diagonally_dominant(M)

    def test_non_dominant_rejected(self):
        M = np.array([[1.0, -2.0], [-2.0, 1.0]])
        assert not is_symmetric_diagonally_dominant(M)


class TestPseudoinverse:
    def test_pinv_solves_consistent_systems(self, rng):
        g = generators.random_weighted_graph(10, seed=13)
        L = laplacian_matrix(g)
        Lp = laplacian_pseudoinverse(g)
        x = rng.normal(size=g.n)
        x -= x.mean()
        b = L @ x
        np.testing.assert_allclose(Lp @ b, x, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_property_laplacian_psd_and_singular(n, seed):
    g = generators.random_weighted_graph(n, seed=seed)
    L = laplacian_matrix(g)
    eigs = np.linalg.eigvalsh(L)
    assert np.all(eigs >= -1e-8)
    assert abs(eigs[0]) <= 1e-8  # the all-ones kernel
