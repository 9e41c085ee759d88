"""Flow queries through the serving tier (fast end-to-end path)."""

import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from reference_generators import network_from_arcs
from repro.core import api
from repro.flow import mincostflow, networkx_min_cost_max_flow
from repro.flow.lp_formulation import build_fixed_value_lp
from repro.flow.mincostflow import min_cost_max_flow
from repro.graphs import generators
from repro.lp.gram import GramSolverBridge
from repro.serve import LaplacianService, flow_query

#: network -> (lp_iterations, rounds) of the served run at seed 0, recorded
#: when one LP began fixing the flow value (``docs/substitutions.md``
#: section 6): every round is the IPM's
PINNED = {
    "random-24": (lambda: generators.random_flow_network(24, seed=3), 13, 338.0),
    "layered-6x5": (lambda: generators.layered_flow_network(6, 5, seed=3), 14, 308.0),
    "layered-10x8": (lambda: generators.layered_flow_network(10, 8, seed=3), 18, 324.0),
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
    def test_direct_cold_and_warm_are_one_gram_path(self, name, built):
        """Direct, cold and warm solve through one bridge with the same outcomes."""
        factory, lp_iterations, rounds = PINNED[name]
        network = factory()
        direct = min_cost_max_flow(network, seed=0)
        problem = built[0].problem
        assert sp.issparse(problem.A)
        direct_solver = problem.__dict__["_gram_fallback"]
        assert isinstance(direct_solver, GramSolverBridge)

        service = make_service()
        key = service.register(network)
        cold = service.min_cost_flow(key, seed=0)
        cold_bytes = service.cache.total_bytes
        warm = service.min_cost_flow(key, seed=0)
        value, cost, _ = networkx_min_cost_max_flow(network)
        for run in (direct, cold, warm):
            assert run.flow == direct.flow
            assert run.value == value and run.cost == cost
            assert run.lp_iterations == lp_iterations
            assert run.rounds == pytest.approx(rounds, rel=1e-12)
            assert not run.rounding_fallback
        # every bridge holds the one factorisation per Newton weight vector:
        # each solve either reuses it or takes a new one, served or not
        direct_stats = direct_solver.stats.as_dict()
        for stats in (direct_stats, cold.gram_stats, warm.gram_stats):
            assert stats["factorisations"] == stats["solves"] - stats["reuse_solves"]
            assert stats["factorisations"] >= lp_iterations
        assert cold.gram_stats["solves"] == warm.gram_stats["solves"] == direct_stats["solves"]
        # the warm run finds the structure; it stores nothing
        kinds = sorted(entry.kind for entry in service.cache.entries())
        assert kinds == ["gram_structure"]
        assert service.cache.total_bytes == cold_bytes
        assert service.metrics_snapshot()["queries_by_kind"].get("flow") == 2

    def test_warm_flag_is_the_structure_hit(self, network):
        service = make_service(auto_flush=False)
        key = service.register(network)
        tickets = []
        for _ in range(2):
            tickets.append(service.submit(flow_query(key)))
            service.flush()
        cold, warm = (ticket.result() for ticket in tickets)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.value.flow == cold.value.flow

    def test_suite_instance_is_pinned_without_fallback(self):
        """The ``flow`` workload's own network: the IPM's rounded flow is the answer."""
        network = generators.layered_flow_network(16, 12, seed=7)
        run = min_cost_max_flow(network, seed=1)
        assert run.lp_iterations == 24
        assert run.rounds == pytest.approx(432.0, rel=1e-12)
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
        cold = api.min_cost_max_flow(network, seed=0, service=service)
        hits_before = service.cache.stats.hits
        clone = generators.random_flow_network(9, seed=5)
        warm = api.min_cost_max_flow(clone, seed=0, service=service)
        # the clone's structure comes out of the cache
        assert service.cache.stats.hits - hits_before == 1
        assert sorted(entry.kind for entry in service.cache.entries()) == ["gram_structure"]
        assert warm.flow == cold.flow
        assert warm.gram_stats["factorisations"] == cold.gram_stats["factorisations"]

    def test_network_with_an_arc_less_vertex_is_served(self):
        """Vertex 4 touches no arc: it has no LP column, so the served
        structure is the direct path's (its all-zero column used to make the
        compiled Gram graph disconnected, and the flush raised)."""
        network = network_from_arcs(
            5, 0, 3, [(0, 1, 2, 1), (1, 3, 2, 1), (0, 2, 1, 0), (2, 3, 1, 5)]
        )
        direct = min_cost_max_flow(network, seed=0)
        served = api.min_cost_max_flow(network, seed=0, service=make_service())
        for run in (direct, served):
            assert (run.value, run.cost, run.rounding_fallback) == (3.0, 9.0, False)
        assert served.flow == direct.flow

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
            entry.fingerprint, entry.version, "flow_result", (0,)
        )

    def test_memoised_rerun_skips_the_lp(self, network):
        service = make_service()
        key = service.register(network)
        cold = service.min_cost_flow(key, seed=0, memoise_result=True)
        entry = service.registry.get(key)
        assert service.cache.contains(
            entry.fingerprint, entry.version, "flow_result", (0,)
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


class TestValidation:
    def test_flow_query_needs_a_flow_network(self, small_graph):
        service = make_service()
        key = service.register(small_graph)
        with pytest.raises(ValueError, match="FlowNetwork"):
            service.min_cost_flow(key)

    def test_unknown_key_raises(self):
        service = make_service()
        with pytest.raises(KeyError):
            service.min_cost_flow("nope")

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected_at_submit(self, network, seed):
        # a negative seed used to pass submit and fail its whole coalesced
        # batch at flush with numpy's "expected non-negative integer"
        service = make_service()
        key = service.register(network)
        query = flow_query(key)
        query.payload["seed"] = seed
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            service.submit(query)
        assert service.flush() == 0  # nothing was queued
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            service.submit(flow_query(key, seed=-1))
