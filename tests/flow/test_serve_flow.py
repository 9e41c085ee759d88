"""Flow and gram queries through the serving tier (fast end-to-end path)."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core import api
from repro.flow import mincostflow, networkx_min_cost_max_flow
from repro.flow.lp_formulation import build_fixed_value_lp
from repro.flow.mincostflow import DEFAULT_EPS_SCALE, min_cost_max_flow
from repro.graphs import generators
from repro.lp.gram import GramSolverBridge
from repro.serve import LaplacianService

#: network -> (lp_iterations, rounds) of the served run at seed 0, recorded
#: when the barrier engine became the primal-dual predictor-corrector at
#: eps_scale 1e-9 (the primal loop at 1e-6 took 207 / 188 / 375 iterations)
PINNED = {
    "random-24": (lambda: generators.random_flow_network(24, seed=3), 16, 7135.088922795229),
    "layered-6x5": (lambda: generators.layered_flow_network(6, 5, seed=3), 15, 5694.246949479196),
    "layered-10x8": (lambda: generators.layered_flow_network(10, 8, seed=3), 20, 13937.062780654142),
}


@pytest.fixture
def network():
    return generators.random_flow_network(9, seed=5)


@pytest.fixture
def built(monkeypatch):
    """The flow LPs ``min_cost_max_flow`` builds during the test, in order."""
    lps = []

    def recording_build(*args, **kwargs):
        lps.append(build_fixed_value_lp(*args, **kwargs))
        return lps[-1]

    monkeypatch.setattr(mincostflow, "build_fixed_value_lp", recording_build)
    return lps


def make_service(**kwargs):
    kwargs.setdefault("t_override", 2)
    return LaplacianService(**kwargs)


class TestServedFlow:
    def test_served_flow_matches_direct_path(self, network):
        direct = min_cost_max_flow(network, seed=0)
        service = make_service()
        served = api.min_cost_max_flow(network, seed=0, service=service)
        assert served.value == pytest.approx(direct.value, abs=1e-8)
        assert served.cost == pytest.approx(direct.cost, abs=1e-8)
        for key, value in direct.flow.items():
            assert served.flow[key] == pytest.approx(value, abs=1e-8)
        assert served.gram_stats is not None
        assert served.gram_stats["solves"] > 0

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_warm_run_hits_gram_cache(self, name, built):
        """One Gram-solve path: direct, cold and warm differ only in the cache."""
        factory, lp_iterations, rounds = PINNED[name]
        network = factory()
        direct = min_cost_max_flow(network, seed=0)
        problem = built[0].problem
        assert sp.issparse(problem.A)
        direct_solver = problem.__dict__["_gram_fallback"]
        assert isinstance(direct_solver, GramSolverBridge) and direct_solver.cache is None

        service = make_service()
        key = service.register(network)
        cold = service.min_cost_flow(key, seed=0)
        warm = service.min_cost_flow(key, seed=0)
        value, cost, _ = networkx_min_cost_max_flow(network)
        for run in (direct, cold, warm):
            assert run.flow == direct.flow
            assert run.value == value and run.cost == cost
            assert run.lp_iterations == lp_iterations
            assert run.rounds == pytest.approx(rounds, rel=1e-12)
            assert not run.rounding_fallback
        # the deterministic rerun replays the same weight trajectory, so every
        # factorisation (and the phase-1 max flow) comes out of the cache
        stats = warm.gram_stats
        assert stats["factorisations"] > 0
        assert stats["cache_hits"] == stats["factorisations"]
        assert stats["factorisations"] == stats["solves"] - stats["reuse_solves"]
        assert cold.gram_stats["cache_hits"] < cold.gram_stats["factorisations"]
        assert direct_solver.stats.solves == stats["solves"]
        kinds = service.metrics_snapshot()["queries_by_kind"]
        assert kinds.get("flow") == 2

    def test_suite_instance_is_pinned_without_fallback(self):
        """The ``flow`` workload's own network: the IPM's rounded flow is the answer."""
        network = generators.layered_flow_network(16, 12, seed=7)
        run = min_cost_max_flow(network, seed=1)
        assert run.lp_iterations == 23
        assert run.rounds == pytest.approx(30088.95057821853, rel=1e-12)
        assert run.cost == 747.0 and not run.rounding_fallback

    def test_symbolic_work_happens_once_per_solve(self, built, monkeypatch):
        """Count guard: per Newton step one ``NATURAL`` splu and no transpose."""
        splu, transpose = spla.splu, sp.csr_matrix.transpose
        steps = []  # (permc_spec, the problem's A^T object) per splu call
        late_transposes = []  # CSR transposes made after the first splu

        def recording_splu(A, permc_spec=None, **kwargs):
            steps.append((permc_spec, built[0].problem.AT))
            return splu(A, permc_spec=permc_spec, **kwargs)

        def recording_transpose(self, *args, **kwargs):
            if steps:
                late_transposes.append(len(steps))
            return transpose(self, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", recording_splu)
        monkeypatch.setattr(sp.csr_matrix, "transpose", recording_transpose)
        run = min_cost_max_flow(generators.layered_flow_network(10, 8, seed=3), seed=0)
        problem = built[0].problem
        bridge = problem.__dict__["_gram_fallback"]
        specs = [spec for spec, _ in steps]
        # the one compile tries its candidate orderings; nothing after it orders
        assert sum(spec != "NATURAL" for spec in specs) <= 2
        assert specs[3:] == ["NATURAL"] * bridge.stats.factorisations
        assert bridge.stats.factorisations >= run.lp_iterations
        # A^T is the one CSR matrix made with the problem, on every step
        assert sp.issparse(problem.AT) and problem.AT.format == "csr"
        assert all(AT is problem.AT for _, AT in steps)
        assert late_transposes == []

    def test_registering_same_content_twice_shares_artifacts(self, network):
        service = make_service()
        api.min_cost_max_flow(network, seed=0, service=service)
        clone = generators.random_flow_network(9, seed=5)
        warm = api.min_cost_max_flow(clone, seed=0, service=service)
        assert warm.gram_stats["cache_hits"] == warm.gram_stats["factorisations"]

    def test_mutated_network_is_not_served_stale(self, network):
        service = make_service()
        key = service.register(network)
        before = service.min_cost_flow(key, seed=0)
        # overwrite the direct source->sink edge with a much smaller capacity:
        # the maximum flow value genuinely changes
        network.add_edge(network.source, network.sink, capacity=2.0, cost=100.0)
        after = service.min_cost_flow(key, seed=0)
        direct = min_cost_max_flow(network, seed=0)
        assert after.value == pytest.approx(direct.value, abs=1e-8)
        assert after.cost == pytest.approx(direct.cost, abs=1e-8)
        assert after.value != pytest.approx(before.value, abs=1e-8)


class TestResultMemoisation:
    def test_default_off_leaves_no_result_artifact(self, network):
        service = make_service()
        key = service.register(network)
        service.min_cost_flow(key, seed=0)
        entry = service.registry.get(key)
        assert not service.cache.contains(
            entry.fingerprint, entry.version, "flow_result", ("barrier", 0, DEFAULT_EPS_SCALE, True)
        )

    def test_memoised_rerun_skips_the_lp(self, network):
        service = make_service()
        key = service.register(network)
        cold = service.min_cost_flow(key, seed=0, memoise_result=True)
        entry = service.registry.get(key)
        assert service.cache.contains(
            entry.fingerprint, entry.version, "flow_result", ("barrier", 0, DEFAULT_EPS_SCALE, True)
        )
        hits_before = service.cache.stats.hits
        warm = service.min_cost_flow(key, seed=0, memoise_result=True)
        # the memoised artifact is the result object itself: no IPM rerun
        assert warm is cold
        assert service.cache.stats.hits > hits_before

    def test_memoisation_is_per_parameter_tuple(self, network):
        service = make_service()
        key = service.register(network)
        first = service.min_cost_flow(key, seed=0, memoise_result=True)
        other_seed = service.min_cost_flow(key, seed=1, memoise_result=True)
        assert other_seed is not first

    def test_mutation_invalidates_memoised_result(self, network):
        service = make_service()
        key = service.register(network)
        before = service.min_cost_flow(key, seed=0, memoise_result=True)
        network.add_edge(network.source, network.sink, capacity=2.0, cost=100.0)
        after = service.min_cost_flow(key, seed=0, memoise_result=True)
        assert after is not before
        direct = min_cost_max_flow(network, seed=0)
        assert after.value == pytest.approx(direct.value, abs=1e-8)
        assert after.cost == pytest.approx(direct.cost, abs=1e-8)


class TestGramFrontDoor:
    def test_solve_gram_matches_dense_reference(self, network, rng):
        service = make_service()
        key = service.register(network)
        A = build_fixed_value_lp(network, flow_value=1.0).problem.A.toarray()
        d = rng.uniform(0.5, 2.0, size=network.m)
        rhs = rng.normal(size=network.n - 1)
        y = service.solve_gram(key, d, rhs)
        np.testing.assert_allclose(
            y, np.linalg.solve(A.T @ (d[:, None] * A), rhs), atol=1e-8
        )

    def test_gram_queries_share_the_flow_solve_cache(self, network, rng):
        service = make_service()
        key = service.register(network)
        service.min_cost_flow(key, seed=0)
        hits_before = service.cache.stats.hits
        d = np.ones(network.m)
        service.solve_gram(key, d, rng.normal(size=network.n - 1))
        # the structure artifact is shared; a repeated diagonal also shares
        # the factorisation itself
        service.solve_gram(key, d, rng.normal(size=network.n - 1))
        assert service.cache.stats.hits > hits_before


class TestValidation:
    def test_flow_query_needs_a_flow_network(self, small_graph):
        service = make_service()
        key = service.register(small_graph)
        with pytest.raises(ValueError, match="FlowNetwork"):
            service.min_cost_flow(key)
        with pytest.raises(ValueError, match="FlowNetwork"):
            service.solve_gram(
                key, np.ones(small_graph.m), np.zeros(small_graph.n - 1)
            )

    def test_gram_shape_and_sign_rejections(self, network, rng):
        service = make_service()
        key = service.register(network)
        good_d = np.ones(network.m)
        good_rhs = np.zeros(network.n - 1)
        with pytest.raises(ValueError, match="diagonal must have shape"):
            service.solve_gram(key, np.ones(network.m + 1), good_rhs)
        with pytest.raises(ValueError, match="right-hand side"):
            service.solve_gram(key, good_d, np.zeros(network.n))
        with pytest.raises(ValueError, match="strictly positive"):
            bad = good_d.copy()
            bad[0] = 0.0
            service.solve_gram(key, bad, good_rhs)
        with pytest.raises(ValueError, match="formulation"):
            service.solve_gram(key, good_d, good_rhs, formulation="newton")

    def test_section5_gram_shape_is_the_augmented_row_count(self, network, rng):
        service = make_service()
        key = service.register(network)
        rows = network.m + 2 * (network.n - 1) + 1
        y = service.solve_gram(
            key,
            rng.uniform(0.5, 2.0, size=rows),
            rng.normal(size=network.n - 1),
            formulation="section5",
        )
        assert y.shape == (network.n - 1,)
        with pytest.raises(ValueError, match="diagonal must have shape"):
            service.solve_gram(
                key,
                np.ones(network.m),
                np.zeros(network.n - 1),
                formulation="section5",
            )

    def test_unknown_key_raises(self):
        service = make_service()
        with pytest.raises(KeyError):
            service.min_cost_flow("nope")
