"""Gram structure detection and the Gram solver bridge (Lemma 5.1)."""

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
from reference_dense import is_symmetric_diagonally_dominant
from scipy.sparse import csgraph

import repro.flow
import repro.lp
import repro.serve
from repro.flow.lp_formulation import build_fixed_value_lp
from repro.graphs import generators
from repro.graphs.digraph import FlowNetwork
from repro.lp.gram import (
    GramFactorisation,
    GramSolverBridge,
    IncidenceStructure,
    _DenseGramSolver,
    default_gram_solver,
    detect_incidence_structure,
    flow_gram_structure,
)
from repro.serve.service import QueryFrontDoor
from repro.serve.planner import QUERY_KINDS


@pytest.fixture
def network():
    return generators.random_flow_network(9, seed=3)


#: the two ways the flow LP's Gram structure is compiled: straight from the
#: network, and by detection on the LP's (densified) ``A``
STRUCTURES = {
    "network": flow_gram_structure,
    "detected": lambda network: detect_incidence_structure(
        build_fixed_value_lp(network).problem.A.toarray()
    ),
}


def terminal_arcs_network():
    """Arcs into s, out of t and t -> s, which no generator makes, and an arc-less vertex."""
    net = generators.layered_flow_network(3, 3, seed=4)
    net.add_edge(1, net.source, 2, 1)
    net.add_edge(net.sink, 2, 3, 2)
    net.add_edge(net.sink, net.source, 4, 0)
    closed = FlowNetwork(net.n + 1, net.source, net.sink)
    for u, v, capacity, cost in zip(*net.edge_array()):
        closed.add_edge(int(u), int(v), capacity, cost)
    return closed


#: networks the compiled and the detected structure must agree on
FINGERPRINT_NETWORKS = {
    "random-9": lambda: generators.random_flow_network(9, seed=3),
    "layered-4x3": lambda: generators.layered_flow_network(4, 3, seed=1),
    "terminal-arcs": terminal_arcs_network,
}


def reduced_matrix(structure, w):
    """``A^T D A`` at pair weights ``w``: the auxiliary graph's Laplacian minus the ground."""
    n, u, v = structure.n, structure.pair_u, structure.pair_v
    rows = np.concatenate([u, v, u, v])
    cols = np.concatenate([u, v, v, u])
    data = np.concatenate([w, w, -w, -w])
    return sp.coo_matrix((data, (rows, cols)), shape=(n + 1, n + 1)).tocsr()[:n, :n]


def dense_gram_solve(A, d, rhs):
    A = np.asarray(A.todense()) if sp.issparse(A) else np.asarray(A, dtype=float)
    return np.linalg.solve(A.T @ (d[:, None] * A), rhs)


class TestDetection:
    def test_flow_lp_is_incidence_structured(self, network, rng):
        flow_lp = build_fixed_value_lp(network)
        structure = detect_incidence_structure(flow_lp.problem.A)
        assert structure is not None
        assert structure.n == network.n - 1
        assert structure.m == network.m + 1  # the edges and the flow value F
        # the compiled reduced matrix IS A^T D A for any positive diagonal
        d = rng.uniform(0.5, 2.0, size=structure.m)
        A = flow_lp.problem.A.toarray()
        np.testing.assert_allclose(
            reduced_matrix(structure, structure.aggregate(d)).toarray(),
            A.T @ (d[:, None] * A),
            atol=1e-12,
        )

    @pytest.mark.parametrize("name", sorted(FINGERPRINT_NETWORKS))
    def test_flow_gram_structure_matches_detection(self, name):
        # byte-identical fingerprints: the structure the serving tier compiles
        # straight from the network is the one the direct path detects
        network = FINGERPRINT_NETWORKS[name]()
        A = build_fixed_value_lp(network).problem.A
        assert (
            flow_gram_structure(network).fingerprint
            == detect_incidence_structure(A).fingerprint
        )

    def test_sparse_and_dense_matrices_detect_identically(self, network):
        flow_lp = build_fixed_value_lp(network)
        dense = detect_incidence_structure(flow_lp.problem.A.toarray())
        sparse = detect_incidence_structure(flow_lp.problem.A)
        assert dense.fingerprint == sparse.fingerprint

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
        flow_lp = build_fixed_value_lp(network)
        A = flow_lp.problem.A
        structure = detect_incidence_structure(A)
        bridge = GramSolverBridge(structure)
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
        assert bridge.stats.factorisations == 4
        # the bridge holds exactly one factorisation: the latest weights'
        np.testing.assert_array_equal(bridge._fact.w, structure.aggregate(sequence[-1]))

    def test_nonpositive_weights_rejected(self, network):
        structure = flow_gram_structure(network)
        bridge = GramSolverBridge(structure)
        with pytest.raises(ValueError, match="positive"):
            bridge(np.zeros(structure.m), np.ones(structure.n))

    def test_two_bridges_on_one_structure_each_factorise_once(self, network, rng):
        structure = flow_gram_structure(network)
        d = rng.uniform(0.5, 2.0, size=structure.m)
        rhs = rng.normal(size=structure.n)
        first, second = GramSolverBridge(structure), GramSolverBridge(structure)
        y = first(d, rhs)
        np.testing.assert_array_equal(second(d, rhs), y)
        np.testing.assert_array_equal(first(d, rhs), y)
        assert [b.stats.factorisations for b in (first, second)] == [1, 1]
        assert [b.stats.reuse_solves for b in (first, second)] == [1, 0]
        assert first.stats.as_dict()["cache_hits"] == 0  # constant key


class TestDefaultGramSolver:
    @pytest.mark.parametrize("vertices", [9, 60])  # n = 8 and 59 LP columns
    @pytest.mark.parametrize("dense", [False, True])
    def test_every_incidence_matrix_gets_the_bridge(self, rng, vertices, dense):
        network = generators.random_flow_network(vertices, seed=3)
        A = build_fixed_value_lp(network).problem.A
        solver = default_gram_solver(A.toarray() if dense else A)
        assert isinstance(solver, GramSolverBridge)
        d = rng.uniform(0.5, 2.0, size=A.shape[0])
        rhs = rng.normal(size=A.shape[1])
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
    def test_solve_is_exact(self, network, rng):
        structure = flow_gram_structure(network)
        w = structure.aggregate(rng.uniform(0.5, 2.0, size=structure.m))
        fact = GramFactorisation(structure, w)
        rhs = rng.normal(size=structure.n)
        np.testing.assert_allclose(
            reduced_matrix(structure, w) @ fact.solve(rhs), rhs, atol=1e-10
        )


class TestGroundedLaplacian:
    """Lemma 5.1: a flow LP's ``A^T D A`` is a grounded Laplacian, hence SDD."""

    @pytest.mark.parametrize("formulation", sorted(STRUCTURES))
    def test_reduced_matrix_is_sdd_with_nonpositive_off_diagonal(self, network, rng, formulation):
        structure = STRUCTURES[formulation](network)
        M = reduced_matrix(structure, structure.aggregate(rng.uniform(0.5, 2.0, size=structure.m)))
        M = M.toarray()
        assert is_symmetric_diagonally_dominant(M)
        assert np.all(M - np.diag(np.diag(M)) <= 0.0)

    @pytest.mark.parametrize("formulation", sorted(STRUCTURES))
    def test_row_excess_is_the_ground_edge_weight(self, network, rng, formulation):
        """Each row's diagonal excess is the weight of its column's edge to the
        ground; some column has one, so the matrix is positive definite."""
        structure = STRUCTURES[formulation](network)
        w = structure.aggregate(rng.uniform(0.5, 2.0, size=structure.m))
        excess = reduced_matrix(structure, w) @ np.ones(structure.n)
        grounded = structure.pair_v == structure.ground
        ground_weight = np.bincount(
            structure.pair_u[grounded], weights=w[grounded], minlength=structure.n
        )
        np.testing.assert_allclose(excess, ground_weight, atol=1e-12)
        assert ground_weight.sum() > 0.0


#: ``flow_gram_structure(network).fingerprint`` since the flow LP gained its
#: flow-value row ``(t, ground)``; the compiled ordering must not move it
PINNED_FINGERPRINTS = {
    "random-24": (
        lambda: generators.random_flow_network(24, seed=3),
        "96c7d7705afbed241c617623725ef0b5d5587808a04f0086d6300675b8798a71",
    ),
    "layered-6x5": (
        lambda: generators.layered_flow_network(6, 5, seed=3),
        "6b344057ee657f34fb83590b6a638c128e6f24f33a06d844494bac154ba27330",
    ),
    "layered-10x8": (
        lambda: generators.layered_flow_network(10, 8, seed=3),
        "cb0fc6ea95df56cf9a489ad297b68fa3ae590abfdb933db48227e49b6b3e3c92",
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
    reduced = reduced_matrix(structure, w)
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

    @pytest.mark.parametrize("formulation", sorted(STRUCTURES))
    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_flow_structures_factorise_exactly(self, name, formulation):
        structure = STRUCTURES[formulation](PINNED_FINGERPRINTS[name][0]())
        assert_factorisation_exact(structure, seed=11)
        # a permutation of the LP columns, and the CSC pattern of the
        # grounded Laplacian under it
        np.testing.assert_array_equal(np.sort(structure._order), np.arange(structure.n))
        np.testing.assert_array_equal(structure._order[structure._order_inv], np.arange(structure.n))
        unit = reduced_matrix(structure, np.ones(structure.n_pairs))
        assert structure._csc_indices.size == unit.nnz

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_fingerprints_did_not_move(self, name):
        factory, fingerprint = PINNED_FINGERPRINTS[name]
        assert flow_gram_structure(factory()).fingerprint == fingerprint

    def test_pickled_structure_factorises_without_recompiling(self, network, rng, linalg_counts):
        structure = flow_gram_structure(network)
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
    "weights_digest",
    "GRAM_FORMULATIONS",
    "get_or_build",
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

    def test_the_gram_cache_and_the_gram_kind_are_gone(self):
        # a bridge holds the one factorisation it takes: nothing to wire
        assert list(inspect.signature(GramSolverBridge).parameters) == ["structure"]
        assert list(inspect.signature(flow_gram_structure).parameters) == ["network"]
        assert not hasattr(GramFactorisation, "nbytes")
        assert "gram" not in QUERY_KINDS
        assert not hasattr(repro.serve, "gram_query")
        assert not hasattr(QueryFrontDoor, "solve_gram")

    def test_one_lp_engine_and_no_engine_option(self):
        """The barrier IPM is the only LP engine: no layer offers a choice."""
        from repro import core
        from repro.flow import mincostflow
        from repro.serve.planner import flow_query

        for func in (
            mincostflow.min_cost_max_flow,
            core.min_cost_max_flow,
            core.solve_lp,
            flow_query,
            QueryFrontDoor.min_cost_flow,
        ):
            parameters = inspect.signature(func).parameters
            assert "engine" not in parameters, func.__qualname__
            assert "resistance_oracle" not in parameters, func.__qualname__
        assert not hasattr(mincostflow, "ENGINES")
        modules = {module.__name__ for module in _modules(repro.lp)}
        assert modules == {"repro.lp", "repro.lp.barrier_ipm", "repro.lp.gram", "repro.lp.problem"}
