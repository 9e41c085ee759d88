"""Gram structure detection and the cached Gram solver bridge (Lemma 5.1)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.flow.lp_formulation import build_fixed_value_lp, build_flow_lp
from repro.graphs import generators
from repro.lp import gram
from repro.lp.gram import (
    GramFactorisation,
    GramSolverBridge,
    IncidenceStructure,
    _DenseGramSolver,
    _IncidenceGramSolver,
    default_gram_solver,
    detect_incidence_structure,
    flow_gram_structure,
)
from repro.serve import ArtifactCache
from repro.solvers.chebyshev import preconditioned_chebyshev


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
        A = np.asarray(flow_lp.problem.A)
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
        dense = detect_incidence_structure(flow_lp.problem.A)
        sparse = detect_incidence_structure(sp.csr_matrix(flow_lp.problem.A))
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
    def test_strategy_ladder_stays_exact(self, network, rng):
        flow_lp = build_fixed_value_lp(network, flow_value=3.0)
        A = np.asarray(flow_lp.problem.A)
        structure = detect_incidence_structure(A)
        bridge = GramSolverBridge(structure)
        d = rng.uniform(0.5, 2.0, size=structure.m)
        big_mover = d.copy()
        big_mover[0] *= 50.0  # one pair out of band, every other pair untouched
        sequence = [
            d,  # factorise (cold)
            d,  # reuse
            d * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=structure.m)),  # chebyshev
            big_mover,  # rank1 (state is still the factorised d)
            d * rng.uniform(0.1, 10.0, size=structure.m),  # factorise (left the band)
        ]
        for d_step in sequence:
            rhs = rng.normal(size=structure.n)
            np.testing.assert_allclose(
                bridge(d_step, rhs), dense_gram_solve(A, d_step, rhs), atol=1e-8
            )
        strategies = {s for s, _ in bridge.stats.per_solve}
        assert strategies == {"factorise", "reuse", "chebyshev", "rank1"}
        assert bridge.stats.solves == 5

    def test_chebyshev_rung_keeps_its_residual_contract(self, network, rng, monkeypatch):
        structure = flow_gram_structure(network, "fixed-value")
        d = rng.uniform(0.5, 2.0, size=structure.m)
        drifted = d * (1.0 + 1e-2 * rng.uniform(-1.0, 1.0, size=structure.m))
        rhs = rng.normal(size=structure.n)
        reduced = structure.reduced_matrix(structure.aggregate(drifted))

        def relative_residual(y):
            return np.linalg.norm(rhs - reduced @ y) / np.linalg.norm(rhs)

        # target reached inside the (minimal-degree) budget: served by the rung
        bridge = GramSolverBridge(structure)
        bridge(d, rhs)
        y = bridge(drifted, rhs)
        assert bridge.stats.per_solve[-1][0] == "chebyshev"
        assert bridge.stats.chebyshev_solves == 1 and bridge.stats.factorisations == 1
        assert relative_residual(y) <= bridge.chebyshev_residual

        # a budget that runs out above the target (here: cut to two steps): the
        # solve is answered by a fresh factorisation, not by whatever the
        # iteration held at the cap
        monkeypatch.setattr(
            gram,
            "preconditioned_chebyshev",
            lambda *args, **kwargs: preconditioned_chebyshev(
                *args, max_iterations=2, **kwargs
            ),
        )
        short = GramSolverBridge(structure)
        short(d, rhs)
        y = short(drifted, rhs)
        assert short.stats.per_solve[-1][0] == "factorise"
        assert short.stats.chebyshev_solves == 0 and short.stats.chebyshev_iterations == 2
        assert short.stats.factorisations == 2
        assert relative_residual(y) <= short.chebyshev_residual
        short(drifted, rhs)
        assert short.stats.per_solve[-1][0] == "reuse"  # state moved to the new weights

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

    def test_cached_factorisation_is_never_mutated_by_overlays(self, network, rng):
        # the rank-1 path must stay bridge-local: a second bridge reading the
        # same cached artifact sees the original weights
        structure = flow_gram_structure(network, "fixed-value")
        cache = ArtifactCache()
        d = rng.uniform(0.5, 2.0, size=structure.m)
        bridge = GramSolverBridge(structure, cache=cache, graph_key="g", version=0)
        bridge(d, rng.normal(size=structure.n))
        d2 = d.copy()
        d2[0] *= 40.0
        bridge(d2, rng.normal(size=structure.n))
        assert bridge.stats.rank1_updates > 0
        artifact = next(
            entry.value for entry in cache.entries() if entry.kind == "gram"
        )
        np.testing.assert_array_equal(artifact.w, structure.aggregate(d))


class TestDefaultGramSolver:
    def test_incidence_sparse_routes_to_grounded_laplacian(self, network):
        flow_lp = build_fixed_value_lp(network, flow_value=3.0, sparse=True)
        assert isinstance(default_gram_solver(flow_lp.problem.A), _IncidenceGramSolver)

    def test_small_dense_incidence_keeps_dense_fallback(self, network):
        flow_lp = build_fixed_value_lp(network, flow_value=3.0)
        assert isinstance(default_gram_solver(flow_lp.problem.A), _DenseGramSolver)

    def test_generic_matrix_keeps_dense_fallback(self, rng):
        assert isinstance(default_gram_solver(rng.normal(size=(8, 5))), _DenseGramSolver)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_fallbacks_agree_with_reference(self, network, rng, sparse):
        flow_lp = build_fixed_value_lp(network, flow_value=3.0, sparse=sparse)
        solver = default_gram_solver(flow_lp.problem.A)
        d = rng.uniform(0.5, 2.0, size=network.m)
        rhs = rng.normal(size=network.n - 1)
        np.testing.assert_allclose(
            solver(d, rhs),
            dense_gram_solve(flow_lp.problem.A, d, rhs),
            atol=1e-8,
        )

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
