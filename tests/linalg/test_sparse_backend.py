"""The CSR / ``splu`` kernels against the dense ``pinv`` reference, 1e-8.

``reference_dense.py`` (this directory) is the frozen dense implementation
``src/`` used to fork to; the kernels in ``repro.linalg.sparse_backend`` are
the only ones left there and must agree with it on every agreement graph.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
import scipy.sparse as sp

import reference_dense
import repro
from repro.graphs import (
    effective_resistances,
    generators,
    incidence_matrix,
    laplacian_matrix,
    laplacian_quadratic_form,
)
from repro.graphs.graph import WeightedGraph
from repro.linalg.sparse_backend import (
    GroundedLaplacianSolver,
    as_apply_fn,
    effective_resistances_sparse,
    incidence_csr,
    laplacian_csr,
    laplacian_quadratic_form_vectorized,
)


def two_component_graph() -> WeightedGraph:
    """A weighted random graph beside a grid, plus one isolated vertex."""
    left = generators.random_weighted_graph(14, average_degree=5, max_weight=8, seed=2)
    right = generators.grid_graph(3, 4)
    g = WeightedGraph(left.n + right.n + 1)
    u, v, w = left.edge_array()
    g.add_edges(u, v, w)
    u, v, w = right.edge_array()
    g.add_edges(u + left.n, v + left.n, w)
    return g


def reference_graphs():
    """The agreement workloads the kernels are pinned to the reference on."""
    barbell = generators.barbell_graph(6, path_length=3)
    weighted = generators.random_weighted_graph(24, average_degree=6, max_weight=16, seed=3)
    return {
        "path": generators.path_graph(12),
        "cycle": generators.cycle_graph(15),
        "grid": generators.grid_graph(5, 6),
        "barbell": barbell,
        "weighted": weighted,
        "two-component": two_component_graph(),
    }


def loop_built_matrices(graph):
    """``L`` and ``B`` assembled edge by edge, independent of the CSR builders."""
    L = np.zeros((graph.n, graph.n))
    B = np.zeros((graph.m, graph.n))
    for row, (u, v, w) in enumerate(graph.edge_list()):
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
        B[row, min(u, v)], B[row, max(u, v)] = -1.0, 1.0
    return L, B


def consistent_rhs(graph, rng, columns=None):
    """A random right-hand side that sums to zero over every component."""
    b = rng.normal(size=graph.n if columns is None else (graph.n, columns))
    for component in graph.connected_components():
        idx = sorted(component)
        b[idx] -= b[idx].mean(axis=0)
    return b


@pytest.fixture(params=sorted(reference_graphs()))
def reference_graph(request):
    return reference_graphs()[request.param]


class TestMatrixAgreement:
    def test_laplacian_csr_matches_dense(self, reference_graph):
        expected, _ = loop_built_matrices(reference_graph)
        sparse = laplacian_csr(reference_graph)
        assert sp.issparse(sparse)
        np.testing.assert_allclose(sparse.toarray(), expected, atol=1e-12)
        np.testing.assert_allclose(laplacian_matrix(reference_graph), expected, atol=1e-12)

    def test_incidence_csr_matches_dense(self, reference_graph):
        _, expected = loop_built_matrices(reference_graph)
        B_sparse, w_sparse = incidence_csr(reference_graph)
        B_dense, w_dense = incidence_matrix(reference_graph)
        assert sp.issparse(B_sparse)
        np.testing.assert_allclose(B_sparse.toarray(), expected, atol=1e-12)
        np.testing.assert_allclose(B_dense, expected, atol=1e-12)
        np.testing.assert_allclose(w_sparse, reference_graph.edge_array()[2], atol=1e-12)
        np.testing.assert_allclose(w_dense, w_sparse, atol=1e-12)

    def test_incidence_factorisation(self, reference_graph):
        B, w = incidence_csr(reference_graph)
        L = (B.T @ sp.diags(w) @ B).toarray()
        np.testing.assert_allclose(L, laplacian_matrix(reference_graph), atol=1e-12)

    def test_quadratic_form_agrees(self, reference_graph, rng):
        L = laplacian_matrix(reference_graph)
        for _ in range(5):
            x = rng.normal(size=reference_graph.n)
            expected = float(x @ L @ x)
            assert laplacian_quadratic_form(reference_graph, x) == pytest.approx(expected, abs=1e-8)
            assert laplacian_quadratic_form_vectorized(reference_graph, x) == pytest.approx(
                expected, abs=1e-8
            )


class TestEffectiveResistanceAgreement:
    def test_dense_and_sparse_paths_agree(self, reference_graph):
        expected = reference_dense.effective_resistances(reference_graph)
        np.testing.assert_allclose(effective_resistances(reference_graph), expected, atol=1e-8)

    def test_pair_resistances_agree(self, reference_graph, rng):
        u = rng.integers(0, reference_graph.n, size=40)
        v = rng.integers(0, reference_graph.n, size=40)
        got = GroundedLaplacianSolver(reference_graph).pair_resistances(u, v)
        expected = reference_dense.pair_resistances(reference_graph, u, v)
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        finite = np.isfinite(expected)
        np.testing.assert_allclose(got[finite], expected[finite], atol=1e-8)

    def test_small_batches_cover_all_edges(self, reference_graph):
        full = effective_resistances_sparse(reference_graph)
        batched = effective_resistances_sparse(reference_graph, batch_size=3)
        np.testing.assert_allclose(batched, full, atol=1e-12)

    def test_fosters_theorem_on_sparse_path(self):
        g = generators.random_weighted_graph(30, average_degree=6, seed=9)
        resistances = effective_resistances_sparse(g)
        _, _, w = g.edge_array()
        assert float(np.dot(resistances, w)) == pytest.approx(g.n - 1, rel=1e-6)

    def test_disconnected_graph(self):
        g = WeightedGraph(6)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(3, 4, 4.0)  # vertex 5 isolated
        np.testing.assert_allclose(
            effective_resistances(g), reference_dense.effective_resistances(g), atol=1e-10
        )

    def test_empty_graph(self):
        g = WeightedGraph(4)
        assert effective_resistances(g).size == 0


class TestGroundedSolver:
    def test_matches_pseudoinverse(self, reference_graph, rng):
        solver = GroundedLaplacianSolver(reference_graph)
        b = consistent_rhs(reference_graph, rng)
        np.testing.assert_allclose(
            solver.solve(b), reference_dense.solve(reference_graph, b), atol=1e-8
        )
        B = consistent_rhs(reference_graph, rng, columns=3)
        np.testing.assert_allclose(
            solver.solve_many(B), reference_dense.solve(reference_graph, B), atol=1e-8
        )

    def test_solve_many_matches_columnwise(self, rng):
        g = generators.grid_graph(4, 5)
        solver = GroundedLaplacianSolver(g)
        B = rng.normal(size=(g.n, 4))
        B -= B.mean(axis=0)
        X = solver.solve_many(B)
        for j in range(B.shape[1]):
            np.testing.assert_allclose(X[:, j], solver.solve(B[:, j]), atol=1e-12)

    def test_disconnected_min_norm(self, rng):
        g = WeightedGraph(7)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 3.0)
        g.add_edge(3, 4, 2.0)
        g.add_edge(4, 5, 1.0)  # vertex 6 isolated
        b = consistent_rhs(g, rng)
        solver = GroundedLaplacianSolver(g)
        np.testing.assert_allclose(solver.solve(b), reference_dense.solve(g, b), atol=1e-10)

    def test_rejects_bad_shape(self):
        solver = GroundedLaplacianSolver(generators.path_graph(4))
        with pytest.raises(ValueError):
            solver.solve(np.zeros(5))


def _public_callables_and_dataclasses():
    """Every public function, class, method and dataclass defined under ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member) and (
                        attr == "__init__" or not attr.startswith("_")
                    ):
                        yield f"{module.__name__}.{name}.{attr}", member


class TestOnePath:
    def test_nothing_public_takes_or_stores_a_backend(self):
        """The knob is gone from every layer, not renamed or hidden in one."""
        offenders = []
        for qualname, obj in _public_callables_and_dataclasses():
            if dataclasses.is_dataclass(obj):
                if "backend" in {f.name for f in dataclasses.fields(obj)}:
                    offenders.append(qualname)
            if inspect.isfunction(obj) and "backend" in inspect.signature(obj).parameters:
                offenders.append(qualname)
        assert offenders == []

    def test_small_graphs_factorise_like_large_ones(self, linalg_counts):
        for n in (4, 400):
            linalg_counts.clear()
            resistances = effective_resistances(generators.path_graph(n))
            assert linalg_counts["splu"] == 1
            np.testing.assert_allclose(resistances, np.ones(n - 1), atol=1e-9)

    def test_matrix_helpers_densify_at_every_size(self):
        for n in (4, 400):
            g = generators.path_graph(n)
            assert isinstance(laplacian_matrix(g), np.ndarray)
            assert isinstance(incidence_matrix(g)[0], np.ndarray)
            assert sp.issparse(laplacian_csr(g))


class TestApplyFnAdapter:
    def test_wraps_matrices_and_passes_callables(self, rng):
        A = rng.normal(size=(5, 5))
        v = rng.normal(size=5)
        np.testing.assert_allclose(as_apply_fn(A)(v), A @ v)
        np.testing.assert_allclose(as_apply_fn(sp.csr_matrix(A))(v), A @ v)
        fn = lambda x: 2 * x  # noqa: E731
        assert as_apply_fn(fn) is fn
