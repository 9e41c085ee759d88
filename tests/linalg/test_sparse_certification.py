"""The spectral certifier against the dense ``eigh`` reference.

``src/`` grounds one vertex per component and reads both pencil extremes off
``scipy.sparse.linalg.eigsh``; it must agree with ``reference_dense.py`` (the
``np.linalg.eigh`` certifier it replaced, this directory) to ~1e-8 on healthy
sparsifiers and make the same decisions on degenerate ones.
"""

import numpy as np
import pytest

import reference_dense
from reference_generators import barbell_graph, cycle_graph, neighbours, path_graph
from repro.graphs import generators, laplacian
from repro.graphs.graph import WeightedGraph
from repro.graphs.laplacian import (
    is_spectral_sparsifier,
    spectral_approximation_factor,
)
from repro.linalg import sparse_backend
from repro.sparsify import spectral_sparsify


def _factor_pair(graph, sparsifier):
    dense = reference_dense.spectral_approximation_factor(graph, sparsifier)
    sparse = spectral_approximation_factor(graph, sparsifier)
    return dense, sparse


def _two_component_graph():
    left = generators.random_weighted_graph(70, average_degree=6, max_weight=8, seed=2)
    right = generators.grid_graph(8, 9)
    g = WeightedGraph(left.n + right.n)
    u, v, w = left.edge_array()
    g.add_edges(u, v, w)
    u, v, w = right.edge_array()
    g.add_edges(u + left.n, v + left.n, w)
    return g


class TestAgreement:
    @pytest.mark.parametrize(
        "graph",
        [
            generators.grid_graph(9, 10),
            generators.random_weighted_graph(90, average_degree=8, max_weight=8, seed=5),
            barbell_graph(12, 4),
            _two_component_graph(),
        ],
        ids=["grid", "random", "barbell", "two-components"],
    )
    def test_sparsifier_factors_match_dense(self, graph):
        result = spectral_sparsify(graph, eps=0.5, seed=9, t_override=2)
        dense, sparse = _factor_pair(graph, result.sparsifier)
        np.testing.assert_allclose(sparse, dense, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize(
        "graph",
        [path_graph(30), cycle_graph(41), generators.grid_graph(5, 6)],
        ids=["path", "cycle", "grid"],
    )
    def test_reweighted_copy_matches_dense_on_small_pencils(self, graph):
        """Reduced systems of at most DENSE_EIG_FALLBACK unknowns take LAPACK."""
        assert graph.n - 1 <= sparse_backend.DENSE_EIG_FALLBACK
        u, v, w = graph.edge_array()
        reweighted = WeightedGraph(graph.n)
        reweighted.add_edges(u, v, w * np.random.default_rng(3).uniform(0.5, 2.0, size=w.size))
        dense, sparse = _factor_pair(graph, reweighted)
        np.testing.assert_allclose(sparse, dense, rtol=1e-8, atol=1e-8)

    def test_identical_graph_is_a_perfect_sparsifier(self):
        g = generators.random_weighted_graph(60, average_degree=6, seed=1)
        dense, sparse = _factor_pair(g, g.copy())
        np.testing.assert_allclose(dense, (1.0, 1.0), atol=1e-9)
        np.testing.assert_allclose(sparse, (1.0, 1.0), atol=1e-9)

    def test_uniform_scaling_shifts_both_factors(self):
        g = generators.grid_graph(8, 8)
        doubled = WeightedGraph(g.n)
        u, v, w = g.edge_array()
        doubled.add_edges(u, v, 2.0 * w)
        dense, sparse = _factor_pair(g, doubled)
        np.testing.assert_allclose(dense, (0.5, 0.5), atol=1e-9)
        np.testing.assert_allclose(sparse, (0.5, 0.5), atol=1e-9)

    def test_arpack_path_agreement(self, linalg_counts):
        """One certification well above DENSE_EIG_FALLBACK so the ARPACK path
        (rather than the small-system LAPACK fallback) is exercised."""
        graph = generators.random_weighted_graph(320, average_degree=6, seed=13)
        result = spectral_sparsify(graph, eps=0.5, seed=4, t_override=2)
        linalg_counts.clear()
        dense, sparse = _factor_pair(graph, result.sparsifier)
        assert linalg_counts["eigsh"] == 2
        np.testing.assert_allclose(sparse, dense, rtol=1e-8, atol=1e-8)

    def test_condition_number_and_certification_agree(self):
        g = generators.random_weighted_graph(80, average_degree=7, seed=3)
        result = spectral_sparsify(g, eps=0.5, seed=8, t_override=2)
        for eps in (0.25, 0.75, 2.0):
            assert reference_dense.is_spectral_sparsifier(
                g, result.sparsifier, eps
            ) == is_spectral_sparsifier(g, result.sparsifier, eps)
        kd = reference_dense.relative_condition_number(g, result.sparsifier)
        ks = reference_dense.condition_number(*spectral_approximation_factor(g, result.sparsifier))
        np.testing.assert_allclose(ks, kd, rtol=1e-8)


class TestDegenerateCases:
    def test_empty_sparsifier_is_never_certified(self):
        g = path_graph(50)
        empty = WeightedGraph(50)
        for certifier in (reference_dense, laplacian):
            assert certifier.spectral_approximation_factor(g, empty) == (0.0, np.inf)
            assert not certifier.is_spectral_sparsifier(g, empty, eps=10.0)
            assert reference_dense.condition_number(*certifier.spectral_approximation_factor(g, empty)) == np.inf

    def test_both_empty_is_trivially_perfect(self):
        g = WeightedGraph(7)
        for certifier in (reference_dense, laplacian):
            assert certifier.spectral_approximation_factor(g, g.copy()) == (1.0, 1.0)

    def test_disconnected_sparsifier_gets_infinite_upper_factor(self):
        g = path_graph(40)
        disconnected = WeightedGraph(40)
        for i in range(39):
            if i != 20:
                disconnected.add_edge(i, i + 1, 1.0)
        for certifier in (reference_dense, laplacian):
            lo, hi = certifier.spectral_approximation_factor(g, disconnected)
            assert hi == np.inf
            assert not certifier.is_spectral_sparsifier(g, disconnected, eps=10.0)
            assert reference_dense.condition_number(lo, hi) == np.inf
        # by design only the reference computes lambda_min on a mismatched partition
        assert spectral_approximation_factor(g, disconnected) == (0.0, np.inf)

    def test_vertex_set_mismatch_raises(self):
        for certifier in (reference_dense, laplacian):
            with pytest.raises(ValueError, match="vertex set"):
                certifier.spectral_approximation_factor(
                    path_graph(5), path_graph(6)
                )


class TestPencilHelper:
    def test_pencil_extremes_match_dense_reference(self):
        g = generators.grid_graph(10, 10)
        result = spectral_sparsify(g, eps=0.5, seed=2, t_override=2)
        lo, hi = sparse_backend.pencil_extreme_eigenvalues(g, result.sparsifier)
        dense = reference_dense.spectral_approximation_factor(g, result.sparsifier)
        np.testing.assert_allclose((lo, hi), dense, rtol=1e-8, atol=1e-8)

    def test_result_certify_decides_like_the_reference(self):
        g = generators.random_weighted_graph(70, average_degree=8, seed=6)
        result = spectral_sparsify(g, eps=0.5, seed=12, t_override=2)
        lo, hi = reference_dense.spectral_approximation_factor(g, result.sparsifier)
        tight = max(1.0 - lo, hi - 1.0)
        for eps in (0.5 * tight, 2.0 * tight):
            assert result.certify(g, eps=eps) == reference_dense.is_spectral_sparsifier(
                g, result.sparsifier, eps
            )
        assert result.certify(g, eps=2.0 * tight) and not result.certify(g, eps=0.5 * tight)


def _eigsh_owned_factorisations(graph, sparsifier):
    """The pre-sharing path, frozen: ``eigsh`` inverts each ``M`` with its own ``splu``."""
    import scipy.sparse.linalg as spla

    keep = sparse_backend.grounding_keep_indices(graph.n, graph.connected_components())
    A = sparse_backend.laplacian_csr(graph)[keep][:, keep].tocsc()
    B = sparse_backend.laplacian_csr(sparsifier)[keep][:, keep].tocsc()
    v0 = np.random.default_rng(0x5EED).standard_normal(keep.size)
    kwargs = dict(k=1, which="LA", tol=sparse_backend.PENCIL_EIG_TOL, v0=v0)
    hi = spla.eigsh(A, M=B, return_eigenvectors=False, **kwargs)[0]
    lo_inv = spla.eigsh(B, M=A, return_eigenvectors=False, **kwargs)[0]
    return 1.0 / float(lo_inv), float(hi)


class TestSharedFactorisations:
    """``Minv=`` over the grounded solvers: same window, no hidden ``splu``."""

    @pytest.mark.parametrize(
        "graph",
        [
            generators.random_weighted_graph(140, average_degree=8, max_weight=8, seed=5),
            generators.grid_graph(12, 13),
            _two_component_graph(),
        ],
        ids=["random", "grid", "two-components"],
    )
    def test_window_equals_the_eigsh_owned_path(self, graph, linalg_counts):
        sparsifier = spectral_sparsify(graph, eps=0.5, seed=9, t_override=2).sparsifier
        expected = _eigsh_owned_factorisations(graph, sparsifier)
        linalg_counts.clear()
        graph_solver = sparse_backend.GroundedLaplacianSolver(graph)
        sparsifier_solver = sparse_backend.RepairableGroundedSolver(sparsifier)
        shared = sparse_backend.pencil_extreme_eigenvalues(
            graph,
            sparsifier,
            graph_solver=graph_solver,
            sparsifier_solver=sparsifier_solver,
        )
        assert linalg_counts["splu"] == 2 and linalg_counts["eigsh"] == 2
        np.testing.assert_allclose(shared, expected, rtol=1e-10, atol=0)
        # without solvers the helper builds the same two factorisations itself
        linalg_counts.clear()
        own = sparse_backend.pencil_extreme_eigenvalues(graph, sparsifier)
        assert linalg_counts["splu"] == 2
        assert own == shared

    def test_solver_grounding_other_vertices_is_refused(self):
        g = generators.random_weighted_graph(80, average_degree=6, seed=3)
        sparsifier = spectral_sparsify(g, eps=0.5, seed=1, t_override=2).sparsifier
        # a solver of a different graph grounds a different vertex set ...
        split = g.copy()
        for neighbour in neighbours(split, 79):
            split.remove_edge(79, neighbour)
        with pytest.raises(ValueError, match="ground different vertices"):
            sparse_backend.pencil_extreme_eigenvalues(
                g, sparsifier, graph_solver=sparse_backend.GroundedLaplacianSolver(split)
            )
        # ... on either side of the pencil
        with pytest.raises(ValueError, match="ground different vertices"):
            sparse_backend.pencil_extreme_eigenvalues(
                g, sparsifier, sparsifier_solver=sparse_backend.GroundedLaplacianSolver(split)
            )
