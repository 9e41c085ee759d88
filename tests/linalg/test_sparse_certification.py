"""Dense vs sparse spectral certification agreement (ROADMAP item).

The sparse path grounds one vertex per component and reads both pencil
extremes off ``scipy.sparse.linalg.eigsh``; it must agree with the dense
``np.linalg.eigh`` reference to ~1e-8 on healthy sparsifiers and make the
same decisions on degenerate ones.
"""

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.graphs.laplacian import (
    is_spectral_sparsifier,
    relative_condition_number,
    spectral_approximation_factor,
)
from repro.linalg import sparse_backend
from repro.sparsify import spectral_sparsify


def _factor_pair(graph, sparsifier):
    dense = spectral_approximation_factor(graph, sparsifier, backend="dense")
    sparse = spectral_approximation_factor(graph, sparsifier, backend="sparse")
    return dense, sparse


class TestAgreement:
    @pytest.mark.parametrize(
        "graph",
        [
            generators.grid_graph(9, 10),
            generators.random_weighted_graph(90, average_degree=8, max_weight=8, seed=5),
            generators.barbell_graph(12, 4),
        ],
        ids=["grid", "random", "barbell"],
    )
    def test_sparsifier_factors_match_dense(self, graph):
        result = spectral_sparsify(graph, eps=0.5, seed=9, t_override=2)
        dense, sparse = _factor_pair(graph, result.sparsifier)
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

    def test_above_auto_threshold_agreement(self):
        """One certification above DENSE_BACKEND_LIMIT so the ARPACK path
        (rather than the small-system LAPACK fallback) is exercised."""
        graph = generators.random_weighted_graph(
            sparse_backend.DENSE_BACKEND_LIMIT + 64, average_degree=6, seed=13
        )
        result = spectral_sparsify(graph, eps=0.5, seed=4, t_override=2)
        dense, sparse = _factor_pair(graph, result.sparsifier)
        np.testing.assert_allclose(sparse, dense, rtol=1e-8, atol=1e-8)
        auto = spectral_approximation_factor(graph, result.sparsifier)
        assert auto == sparse  # auto resolves to the sparse path at this size

    def test_condition_number_and_certification_agree(self):
        g = generators.random_weighted_graph(80, average_degree=7, seed=3)
        result = spectral_sparsify(g, eps=0.5, seed=8, t_override=2)
        for eps in (0.25, 0.75, 2.0):
            assert is_spectral_sparsifier(
                g, result.sparsifier, eps, backend="dense"
            ) == is_spectral_sparsifier(g, result.sparsifier, eps, backend="sparse")
        kd = relative_condition_number(g, result.sparsifier, backend="dense")
        ks = relative_condition_number(g, result.sparsifier, backend="sparse")
        np.testing.assert_allclose(ks, kd, rtol=1e-8)


class TestDegenerateCases:
    def test_empty_sparsifier_is_never_certified(self):
        g = generators.path_graph(50)
        empty = WeightedGraph(50)
        assert spectral_approximation_factor(g, empty, backend="dense") == (0.0, np.inf)
        assert spectral_approximation_factor(g, empty, backend="sparse") == (0.0, np.inf)
        for backend in ("dense", "sparse"):
            assert not is_spectral_sparsifier(g, empty, eps=10.0, backend=backend)
            assert relative_condition_number(g, empty, backend=backend) == np.inf

    def test_both_empty_is_trivially_perfect(self):
        g = WeightedGraph(7)
        assert spectral_approximation_factor(g, g.copy(), backend="dense") == (1.0, 1.0)
        assert spectral_approximation_factor(g, g.copy(), backend="sparse") == (1.0, 1.0)

    def test_disconnected_sparsifier_gets_infinite_upper_factor(self):
        g = generators.path_graph(40)
        disconnected = WeightedGraph(40)
        for i in range(39):
            if i != 20:
                disconnected.add_edge(i, i + 1, 1.0)
        for backend in ("dense", "sparse"):
            lo, hi = spectral_approximation_factor(g, disconnected, backend=backend)
            assert hi == np.inf
            assert not is_spectral_sparsifier(g, disconnected, eps=10.0, backend=backend)
            assert relative_condition_number(g, disconnected, backend=backend) == np.inf

    def test_vertex_set_mismatch_raises(self):
        with pytest.raises(ValueError, match="vertex set"):
            spectral_approximation_factor(
                generators.path_graph(5), generators.path_graph(6), backend="sparse"
            )


class TestPencilHelper:
    def test_pencil_extremes_match_dense_reference(self):
        g = generators.grid_graph(10, 10)
        result = spectral_sparsify(g, eps=0.5, seed=2, t_override=2)
        lo, hi = sparse_backend.pencil_extreme_eigenvalues(g, result.sparsifier)
        dense = spectral_approximation_factor(g, result.sparsifier, backend="dense")
        np.testing.assert_allclose((lo, hi), dense, rtol=1e-8, atol=1e-8)

    def test_certify_backend_kwarg(self):
        g = generators.random_weighted_graph(70, average_degree=8, seed=6)
        result = spectral_sparsify(g, eps=0.5, seed=12, t_override=2)
        assert result.certify(g, eps=2.0, backend="dense") == result.certify(
            g, eps=2.0, backend="sparse"
        )


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


def _two_component_graph():
    left = generators.random_weighted_graph(70, average_degree=6, max_weight=8, seed=2)
    right = generators.grid_graph(8, 9)
    g = WeightedGraph(left.n + right.n)
    u, v, w = left.edge_array()
    g.add_edges(u, v, w)
    u, v, w = right.edge_array()
    g.add_edges(u + left.n, v + left.n, w)
    return g


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
        for neighbour in list(split.neighbours(79)):
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
