"""Gram structure detection and the cached Gram solver bridge (Lemma 5.1)."""

import ast
import importlib
import inspect
import pickle
import pkgutil
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph

import repro.flow
import repro.lp
from repro.flow.lp_formulation import build_fixed_value_lp, build_flow_lp
from repro.graphs import generators
from repro.lp.gram import (
    GRAM_FORMULATIONS,
    GramFactorisation,
    GramSolverBridge,
    IncidenceStructure,
    _DenseGramSolver,
    default_gram_solver,
    detect_incidence_structure,
    flow_gram_structure,
)
from repro.serve import ArtifactCache


@pytest.fixture
def network():
    return generators.random_flow_network(9, seed=3)


def dense_gram_solve(A, d, rhs):
    A = np.asarray(A.todense()) if sp.issparse(A) else np.asarray(A, dtype=float)
    return np.linalg.solve(A.T @ (d[:, None] * A), rhs)


class TestDetection:
    def test_fixed_value_lp_is_incidence_structured(self, network, rng):
        flow_lp = build_fixed_value_lp(network, flow_value=3.0)
        structure = detect_incidence_structure(flow_lp.problem.A)
        assert structure is not None
        assert structure.n == network.n - 1
        assert structure.m == network.m
        # the compiled reduced matrix IS A^T D A for any positive diagonal
        d = rng.uniform(0.5, 2.0, size=structure.m)
        A = flow_lp.problem.A.toarray()
        np.testing.assert_allclose(
            structure.reduced_matrix(structure.aggregate(d)).toarray(),
            A.T @ (d[:, None] * A),
            atol=1e-12,
        )

    def test_section5_lp_is_incidence_structured(self, network, rng):
        flow_lp = build_flow_lp(network, seed=0, perturb=False)
        structure = detect_incidence_structure(flow_lp.problem.A)
        assert structure is not None
        d = rng.uniform(0.5, 2.0, size=structure.m)
        A = np.asarray(flow_lp.problem.A)
        np.testing.assert_allclose(
            structure.reduced_matrix(structure.aggregate(d)).toarray(),
            A.T @ (d[:, None] * A),
            atol=1e-12,
        )

    def test_flow_gram_structure_matches_detection(self, network):
        # byte-identical fingerprints: gram queries compiled straight from the
        # network share cache keys with factorisations made inside flow solves
        fixed = build_fixed_value_lp(network, flow_value=3.0)
        assert (
            flow_gram_structure(network, "fixed-value").fingerprint
            == detect_incidence_structure(fixed.problem.A).fingerprint
        )
        section5 = build_flow_lp(network, seed=0, perturb=False)
        assert (
            flow_gram_structure(network, "section5").fingerprint
            == detect_incidence_structure(section5.problem.A).fingerprint
        )

    def test_sparse_and_dense_matrices_detect_identically(self, network):
        flow_lp = build_fixed_value_lp(network, flow_value=3.0)
        dense = detect_incidence_structure(flow_lp.problem.A.toarray())
        sparse = detect_incidence_structure(flow_lp.problem.A)
        assert dense.fingerprint == sparse.fingerprint

    def test_unknown_formulation_rejected(self, network):
        with pytest.raises(ValueError, match="formulation"):
            flow_gram_structure(network, "newton")

    def test_non_incidence_matrices_return_none(self, rng):
        assert detect_incidence_structure(rng.normal(size=(6, 4))) is None
        # equal-sign pair rows are not incidence rows
        bad = np.zeros((4, 3))
        bad[0, 0] = bad[0, 1] = 1.0
        bad[1, 1] = 1.0
        bad[2, 2] = 1.0
        bad[3, 0] = 1.0
        assert detect_incidence_structure(bad) is None
        # unequal-magnitude opposite-sign rows too
        bad[0, 0], bad[0, 1] = 1.0, -2.0
        assert detect_incidence_structure(bad) is None
        assert detect_incidence_structure(np.zeros((3, 3))) is None

    def test_disconnected_auxiliary_graph_returns_none(self):
        # two difference-rows on disjoint column pairs, no ground rows: the
        # auxiliary graph on 5 vertices is disconnected => A rank-deficient
        A = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        assert detect_incidence_structure(A) is None
        assert (
            IncidenceStructure.from_rows(
                4, np.array([0, 2]), np.array([1, 3])
            )
            is None
        )


class TestBridge:
    def test_drifting_weights_answered_exactly_by_reuse_or_factorise(self, network, rng):
        flow_lp = build_fixed_value_lp(network, flow_value=3.0)
        A = flow_lp.problem.A
        structure = detect_incidence_structure(A)
        cache = ArtifactCache()
        bridge = GramSolverBridge(structure, cache=cache, graph_key="g", version=0)
        d = rng.uniform(0.5, 2.0, size=structure.m)
        big_mover = d.copy()
        big_mover[0] *= 50.0  # one pair far out, every other pair untouched
        sequence = [
            d,
            d,  # the only repeat: the only reuse
            d * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=structure.m)),  # 0.1 % drift
            big_mover,
            d * rng.uniform(0.1, 10.0, size=structure.m),
        ]
        for d_step in sequence:
            rhs = rng.normal(size=structure.n)
            np.testing.assert_allclose(
                bridge(d_step, rhs), dense_gram_solve(A, d_step, rhs), atol=1e-8
            )
        assert [s for s, _ in bridge.stats.per_solve] == [
            "factorise", "reuse", "factorise", "factorise", "factorise",
        ]
        assert bridge.stats.solves == 5 and bridge.stats.reuse_solves == 1
        assert bridge.stats.factorisations == 4 and bridge.stats.cache_hits == 0
        # cached artifacts are immutable: the first one still sits at the
        # weights it was built for, whatever the bridge solved afterwards
        first = next(entry.value for entry in cache.entries() if entry.kind == "gram")
        np.testing.assert_array_equal(first.w, structure.aggregate(d))
        rhs = rng.normal(size=structure.n)
        np.testing.assert_allclose(
            first.solve(rhs), dense_gram_solve(A, d, rhs), atol=1e-8
        )

    def test_nonpositive_weights_rejected(self, network):
        structure = flow_gram_structure(network, "fixed-value")
        bridge = GramSolverBridge(structure)
        with pytest.raises(ValueError, match="positive"):
            bridge(np.zeros(structure.m), np.ones(structure.n))

    def test_two_bridges_share_cached_factorisations(self, network, rng):
        structure = flow_gram_structure(network, "fixed-value")
        cache = ArtifactCache()
        d = rng.uniform(0.5, 2.0, size=structure.m)
        rhs = rng.normal(size=structure.n)
        cold = GramSolverBridge(structure, cache=cache, graph_key="g", version=0)
        cold(d, rhs)
        assert cold.stats.factorisations == 1 and cold.stats.cache_hits == 0
        warm = GramSolverBridge(structure, cache=cache, graph_key="g", version=0)
        y = warm(d, rhs)
        assert warm.stats.factorisations == 1 and warm.stats.cache_hits == 1
        np.testing.assert_allclose(y, cold(d, rhs), atol=1e-12)


class TestDefaultGramSolver:
    @pytest.mark.parametrize("vertices", [9, 60])  # n = 8 and 59 LP columns
    @pytest.mark.parametrize("dense", [False, True])
    def test_every_incidence_matrix_gets_the_bridge(self, rng, vertices, dense):
        network = generators.random_flow_network(vertices, seed=3)
        A = build_fixed_value_lp(network, flow_value=3.0).problem.A
        solver = default_gram_solver(A.toarray() if dense else A)
        assert isinstance(solver, GramSolverBridge) and solver.cache is None
        d = rng.uniform(0.5, 2.0, size=network.m)
        rhs = rng.normal(size=network.n - 1)
        np.testing.assert_allclose(solver(d, rhs), dense_gram_solve(A, d, rhs), atol=1e-8)

    def test_generic_matrix_keeps_dense_fallback(self, rng):
        assert isinstance(default_gram_solver(rng.normal(size=(8, 5))), _DenseGramSolver)

    def test_dense_fallback_handles_generic_matrices(self, rng):
        A = rng.normal(size=(12, 5))
        d = rng.uniform(0.5, 2.0, size=12)
        rhs = rng.normal(size=5)
        np.testing.assert_allclose(
            _DenseGramSolver(A)(d, rhs), dense_gram_solve(A, d, rhs), atol=1e-8
        )


class TestFactorisation:
    def test_solve_is_exact_and_accounted(self, network, rng):
        structure = flow_gram_structure(network, "fixed-value")
        w = structure.aggregate(rng.uniform(0.5, 2.0, size=structure.m))
        fact = GramFactorisation(structure, w)
        rhs = rng.normal(size=structure.n)
        np.testing.assert_allclose(
            structure.reduced_matrix(w) @ fact.solve(rhs), rhs, atol=1e-10
        )
        assert fact.nbytes() > 0


#: ``flow_gram_structure(network, "fixed-value").fingerprint`` at the commit
#: before structures carried an ordering: cache keys must not move with it
PINNED_FINGERPRINTS = {
    "random-24": (
        lambda: generators.random_flow_network(24, seed=3),
        "65239702a4db7bb4ff99d27b8bad5a9ebda3b092e43c39a957a93dc953e0b668",
    ),
    "layered-6x5": (
        lambda: generators.layered_flow_network(6, 5, seed=3),
        "7ef938f34fb8cf7701d7fd7d360da1c748757e2f73170945e2301e1929de4a1a",
    ),
    "layered-10x8": (
        lambda: generators.layered_flow_network(10, 8, seed=3),
        "0c1b7386edeb0938f9ad3c84f034669df87f94426dd16a713eadcfa71f1a49d8",
    ),
}

COMPILED_FIELDS = ("_order", "_order_inv", "_csc_indices", "_csc_indptr", "_entry_slot")


@st.composite
def incidence_rows(draw):
    """``(n, row_a, row_b, scale)``: interior and ground rows, repeated pairs, scales != 1."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 3 * n + 2))
    row_a = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    row_b = [
        draw(st.integers(0, n).filter(lambda b, a=a: b != a)) for a in row_a
    ]  # b == n is the ground vertex
    scale = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=m, max_size=m))
    return n, np.array(row_a), np.array(row_b), np.array(scale)


def assert_factorisation_exact(structure, seed):
    rng = np.random.default_rng(seed)
    w = structure.aggregate(rng.uniform(0.5, 2.0, size=structure.m))
    rhs = rng.normal(size=structure.n)
    y = GramFactorisation(structure, w).solve(rhs)
    reduced = structure.reduced_matrix(w)
    np.testing.assert_allclose(reduced @ y, rhs, atol=1e-10)
    np.testing.assert_allclose(y, np.linalg.solve(reduced.toarray(), rhs), atol=1e-10)


class TestCompiledOrdering:
    """Symbolic work once per structure, numeric work per factorisation."""

    @settings(max_examples=60, deadline=None)
    @given(rows=incidence_rows(), seed=st.integers(0, 2**32 - 1))
    def test_random_structures_factorise_exactly(self, rows, seed):
        n, row_a, row_b, scale = rows
        structure = IncidenceStructure.from_rows(n, row_a, row_b, scale=scale)
        adjacency = sp.coo_matrix((np.ones(row_a.size), (row_a, row_b)), shape=(n + 1, n + 1))
        connected = csgraph.connected_components(adjacency, directed=False)[0] == 1
        assert (structure is not None) == connected
        if structure is None:
            return
        assert_factorisation_exact(structure, seed)
        # the same pattern compiles to the same ordering, pattern and slot map
        again = IncidenceStructure.from_rows(n, row_a, row_b, scale=scale)
        for name in COMPILED_FIELDS:
            np.testing.assert_array_equal(getattr(again, name), getattr(structure, name))
        assert again.fingerprint == structure.fingerprint

    @pytest.mark.parametrize("formulation", GRAM_FORMULATIONS)
    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_flow_structures_factorise_exactly(self, name, formulation):
        structure = flow_gram_structure(PINNED_FINGERPRINTS[name][0](), formulation)
        assert_factorisation_exact(structure, seed=11)
        # a permutation of the LP columns, and the CSC pattern of the
        # grounded Laplacian under it
        np.testing.assert_array_equal(np.sort(structure._order), np.arange(structure.n))
        np.testing.assert_array_equal(structure._order[structure._order_inv], np.arange(structure.n))
        unit = structure.reduced_matrix(np.ones(structure.n_pairs))
        assert structure._csc_indices.size == unit.nnz

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_fingerprints_did_not_move(self, name):
        factory, fingerprint = PINNED_FINGERPRINTS[name]
        assert flow_gram_structure(factory(), "fixed-value").fingerprint == fingerprint

    def test_pickled_structure_factorises_without_recompiling(self, network, rng, linalg_counts):
        structure = flow_gram_structure(network, "fixed-value")
        compiles = linalg_counts["splu"]
        clone = pickle.loads(pickle.dumps(structure))
        for name in COMPILED_FIELDS:
            np.testing.assert_array_equal(getattr(clone, name), getattr(structure, name))
        w = structure.aggregate(rng.uniform(0.5, 2.0, size=structure.m))
        rhs = rng.normal(size=structure.n)
        np.testing.assert_array_equal(
            GramFactorisation(clone, w).solve(rhs), GramFactorisation(structure, w).solve(rhs)
        )
        assert compiles == 3  # the trial orderings of the one compile
        assert linalg_counts["splu"] == compiles + 2  # one numeric splu per factorisation

    def test_nbytes_prices_the_factors_superlu_reports(self, network):
        structure = flow_gram_structure(network, "fixed-value")
        fact = GramFactorisation(structure, structure.aggregate(np.ones(structure.m)))
        assert fact.nbytes() == 12 * fact._lu.nnz + 8 * structure.n + fact.w.nbytes


DELETED_NAMES = (
    "_Overlay",
    "_apply_overlays",
    "_overlay_solve",
    "DRIFT_BAND",
    "CHEBYSHEV_RESIDUAL",
    "OVERLAY_DENOM_TOL",
    "rank1_budget",
    "chebyshev_residual",
    "chebyshev_iterations",
    "_w_state",
    "_IncidenceGramSolver",
    "SPARSE_GRAM_MIN_COLS",
)


def _modules(*packages):
    for package in packages:
        yield package
        for info in pkgutil.walk_packages(package.__path__, prefix=package.__name__ + "."):
            yield importlib.import_module(info.name)


class TestOnePath:
    """The rungs, the per-call solver and the dense-vs-CSR fork stay deleted."""

    def test_deleted_names_and_the_sparse_switch_are_gone(self):
        offenders = []
        for module in _modules(repro.lp, repro.flow):
            source = inspect.getsource(module)
            offenders += [
                f"{module.__name__}: {name}"
                for name in DELETED_NAMES
                if re.search(rf"\b{name}\b", source)
            ]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and "sparse" in inspect.signature(obj).parameters:
                    offenders.append(f"{module.__name__}.{name}(sparse=)")
        assert offenders == []

    def test_lp_layer_does_not_import_the_solver_layer(self):
        for module in _modules(repro.lp):
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                assert not any(n.startswith("repro.solvers") for n in names), module.__name__
