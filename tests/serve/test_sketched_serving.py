"""Approximate-resistance serving: eps-aware routing, amortisation, admission.

Covers the ISSUE 4 serving contract: exact and approximate resistance queries
never coalesce, graphs above the oracle gate serve ``eta``-bounded queries
from the JL-sketched oracle once its build has amortised (splu fallback until
then, exact dense oracle below the gate regardless of ``eta``), the sketched
answers honour the accuracy bound against the exact path, and the bounded
submission queue sheds load with :class:`ServiceOverloadedError`.
"""

import numpy as np
import pytest

from repro.graphs import generators
from repro.serve import (
    ArtifactCache,
    FlushPolicy,
    LaplacianService,
    ServiceOverloadedError,
    resistance_batch_query,
    resistance_query,
)
from repro.serve.planner import SKETCH_EAGER_BATCH, QueryPlanner
from repro.serve.registry import GraphRegistry


@pytest.fixture
def graph():
    return generators.random_weighted_graph(400, average_degree=8, seed=17)


def make_service(oracle_limit=None, **kwargs):
    kwargs.setdefault("t_override", 2)
    kwargs.setdefault("auto_flush", False)
    service = LaplacianService(**kwargs)
    if oracle_limit is not None:
        service.planner.oracle_limit = oracle_limit
    return service


def sketched_params(service):
    return (0.5, service.planner.solver_seed)


def pairs_of(graph, count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (int(u), int(v))
        for u, v in zip(rng.integers(0, graph.n, count), rng.integers(0, graph.n, count))
    ]


class TestCoalescingSeparation:
    def test_exact_and_approx_never_share_a_batch(self, graph):
        service = make_service()
        key = service.register(graph)
        queries = [
            resistance_query(key, 0, 1),
            resistance_query(key, 0, 1, eta=0.5),
            resistance_query(key, 2, 3),
            resistance_query(key, 2, 3, eta=0.25),
            resistance_query(key, 4, 5, eta=0.5),
        ]
        batches = service.planner.plan(queries)
        shapes = sorted((batch.kind, batch.size) for batch in batches)
        assert shapes == [("resistance", 1), ("resistance", 2), ("resistance", 2)]
        etas = {batch.coalesce_params[0] for batch in batches}
        assert etas == {None, 0.5, 0.25}

    def test_eta_validated_at_submit_time(self, graph):
        service = make_service()
        key = service.register(graph)
        for bad_eta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                service.effective_resistance(key, 0, 1, eta=bad_eta)
            with pytest.raises(ValueError):
                service.effective_resistances(key, [(0, 1)], eta=bad_eta)
        # nothing enqueued by the rejected submissions
        assert service.flush() == 0


class TestRouting:
    def test_below_gate_eta_served_by_exact_dense_oracle(self, graph):
        service = make_service()  # default gate far above n=400
        key = service.register(graph)
        exact = service.effective_resistances(key, pairs_of(graph, 32))
        approx = service.effective_resistances(key, pairs_of(graph, 32), eta=0.5)
        np.testing.assert_array_equal(exact, approx)  # same oracle, exact values
        kinds = {entry.kind for entry in service.cache.entries()}
        assert "sketched_resistance" not in kinds

    def test_above_gate_bulk_eta_builds_sketch(self, graph):
        service = make_service(oracle_limit=100)
        key = service.register(graph)
        fingerprint = service.registry.get(key).fingerprint
        service.effective_resistances(
            key, pairs_of(graph, SKETCH_EAGER_BATCH), eta=0.5
        )
        assert service.cache.contains(
            fingerprint, graph.version, "sketched_resistance", sketched_params(service)
        )

    def test_above_gate_scalar_eta_falls_back_to_splu(self, graph):
        service = make_service(oracle_limit=100)
        key = service.register(graph)
        fingerprint = service.registry.get(key).fingerprint
        service.effective_resistance(key, 0, 1, eta=0.5)
        kinds = {entry.kind for entry in service.cache.entries()}
        assert kinds == {"grounded"}  # exact fallback, no premature sketch build
        assert not service.cache.contains(
            fingerprint, graph.version, "sketched_resistance", sketched_params(service)
        )

    def test_scalar_demand_eventually_amortises_into_sketch(self):
        graph = generators.random_weighted_graph(150, average_degree=6, seed=23)
        service = make_service(oracle_limit=100)
        key = service.register(graph)
        fingerprint = service.registry.get(key).fingerprint
        # tiny k so a handful of scalar queries crosses k / SKETCH_DEMAND_FACTOR
        built_at = None
        for i in range(1000):
            service.effective_resistance(key, 0, 1, eta=0.9)
            if service.cache.contains(
                fingerprint, graph.version, "sketched_resistance",
                (0.9, service.planner.solver_seed),
            ):
                built_at = i
                break
        assert built_at is not None, "cumulative scalar demand never built the sketch"
        assert built_at > 0, "a single scalar query must not pay the build"

    def test_oversized_sketch_never_built_under_tight_budget(self, graph):
        # an embedding that cannot stay resident would be evicted on the next
        # insert and rebuilt every batch; the planner must keep the fallback
        service = make_service(
            oracle_limit=100, cache=ArtifactCache(max_bytes=64 * 1024)
        )
        key = service.register(graph)
        fingerprint = service.registry.get(key).fingerprint
        pairs = pairs_of(graph, 64)
        exact = service.effective_resistances(key, pairs)
        approx = service.effective_resistances(key, pairs, eta=0.5)
        np.testing.assert_array_equal(exact, approx)  # grounded fallback, exact
        assert not service.cache.contains(
            fingerprint, graph.version, "sketched_resistance", sketched_params(service)
        )

    def test_exact_queries_above_gate_still_use_splu(self, graph):
        service = make_service(oracle_limit=100)
        key = service.register(graph)
        service.effective_resistances(key, pairs_of(graph, 32))
        kinds = {entry.kind for entry in service.cache.entries()}
        assert kinds == {"grounded"}

    def test_sketched_answers_within_eta_of_exact(self, graph):
        service = make_service(oracle_limit=100)
        key = service.register(graph)
        pairs = pairs_of(graph, 64)
        exact = service.effective_resistances(key, pairs)
        approx = service.effective_resistances(key, pairs, eta=0.5)
        mask = np.isfinite(exact) & (exact > 0)
        relative = np.abs(approx[mask] - exact[mask]) / exact[mask]
        assert float(relative.max()) <= 0.5
        ties = np.asarray([u == v for u, v in pairs])
        np.testing.assert_array_equal(approx[ties], 0.0)

    def test_mutation_invalidates_sketch(self, graph):
        service = make_service(oracle_limit=100)
        key = service.register(graph)
        pairs = pairs_of(graph, 32)
        service.effective_resistances(key, pairs, eta=0.5)
        graph.add_edge(0, graph.n - 1, 3.5)
        fresh = service.effective_resistances(key, pairs, eta=0.5)
        entry = service.registry.get(key)
        assert entry.is_current()
        # every cached artifact refers to the current version only
        assert all(e.version == graph.version for e in service.cache.entries())
        exact = service.effective_resistances(key, pairs)
        mask = np.isfinite(exact) & (exact > 0)
        relative = np.abs(fresh[mask] - exact[mask]) / exact[mask]
        assert float(relative.max()) <= 0.5


class TestPlannerDirect:
    def test_demand_counter_pruned_on_revalidation(self):
        graph = generators.random_weighted_graph(150, average_degree=6, seed=29)
        registry = GraphRegistry()
        cache = ArtifactCache()
        planner = QueryPlanner(registry, cache, solver_seed=0, t_override=2)
        planner.oracle_limit = 100
        key = registry.register(graph, name="g")
        planner.execute(planner.plan([resistance_query(key, 0, 1, eta=0.5)]))
        assert planner._sketch_demand
        graph.add_edge(0, 149, 2.0)
        planner.execute(planner.plan([resistance_query(key, 0, 1, eta=0.5)]))
        # the old fingerprint's counters are gone; at most the new one remains
        fingerprints = {k[0] for k in planner._sketch_demand}
        assert fingerprints <= {registry.get(key).fingerprint}


class TestAdmissionControl:
    def test_max_pending_sheds_load_with_typed_error(self, graph):
        service = make_service(flush_policy=FlushPolicy(max_pending=3))
        key = service.register(graph)
        tickets = [service.submit(resistance_query(key, i, i + 1)) for i in range(3)]
        with pytest.raises(ServiceOverloadedError):
            service.submit(resistance_query(key, 5, 6))
        assert service.metrics_snapshot()["rejected_total"] == 1
        service.flush()
        for ticket in tickets:
            assert np.isfinite(ticket.result().value)
        # queue drained: submissions are admitted again
        assert np.isfinite(service.effective_resistance(key, 7, 8))

    def test_shed_carries_retry_after_hint(self, graph):
        service = make_service(flush_policy=FlushPolicy(max_pending=2))
        key = service.register(graph)
        service.submit(resistance_query(key, 0, 1))
        service.submit(resistance_query(key, 1, 2))
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit(resistance_query(key, 2, 3))
        # no drain observed yet: the hint is the conservative default, but
        # it is always present and positive on an admission-control shed
        assert excinfo.value.retry_after_seconds is not None
        assert excinfo.value.retry_after_seconds > 0
        service.flush()
        service.submit(resistance_query(key, 3, 4))
        service.submit(resistance_query(key, 4, 5))
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit(resistance_query(key, 5, 6))
        assert excinfo.value.retry_after_seconds > 0
        service.flush()

    def test_rejected_count_accumulates(self, graph):
        service = make_service(flush_policy=FlushPolicy(max_pending=1))
        key = service.register(graph)
        service.submit(resistance_query(key, 0, 1))
        for _ in range(4):
            with pytest.raises(ServiceOverloadedError):
                service.submit(resistance_query(key, 1, 2))
        snapshot = service.metrics_snapshot()
        assert snapshot["rejected_total"] == 4
        assert snapshot["queries_total"] == 0  # nothing executed yet
        service.flush()

    def test_default_policy_remains_unbounded(self, graph):
        service = make_service()
        key = service.register(graph)
        tickets = [service.submit(resistance_query(key, 0, 1)) for _ in range(200)]
        service.flush()
        assert all(ticket.done() for ticket in tickets)
        assert service.metrics_snapshot()["rejected_total"] == 0

    def test_max_pending_validation(self):
        with pytest.raises(ValueError):
            FlushPolicy(max_pending=0)

    def test_solve_many_chunks_through_its_own_admission_bound(self, graph):
        # a bulk helper larger than the queue must drain-and-continue, never
        # shed its own tail after the head was enqueued
        service = make_service(flush_policy=FlushPolicy(max_pending=3))
        key = service.register(graph)
        rng = np.random.default_rng(0)
        rhs = [rng.normal(size=graph.n) for _ in range(8)]
        reports = service.solve_many(key, rhs, eps=1e-6)
        assert len(reports) == 8
        assert service.metrics_snapshot()["queries_by_kind"]["solve"] == 8
