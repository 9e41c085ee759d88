"""Gram structure detection and the cached Gram solver bridge (Lemma 5.1)."""

import ast
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest
import scipy.sparse as sp

import repro.flow
import repro.lp
from repro.flow.lp_formulation import build_fixed_value_lp, build_flow_lp
from repro.graphs import generators
from repro.lp.gram import (
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
