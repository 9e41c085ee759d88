"""Failure containment: breaker, retries, bisection, degradation, deadlines."""

import time

import numpy as np
import pytest

from repro.flow.mincostflow import min_cost_max_flow
from repro.graphs import generators
from repro.graphs.digraph import FlowNetwork
from repro.lp.gram import GramFactorisation, GramSolverBridge
from repro.serve import (
    ArtifactBreakerOpenError,
    CircuitBreaker,
    DeadlineExceededError,
    DrainRateTracker,
    FaultInjectionError,
    FaultPlan,
    FaultRule,
    HealthStats,
    LaplacianService,
    NumericalHealthError,
    ResiliencePolicy,
    TransientFaultError,
    UnknownGraphError,
    call_with_retries,
    estimate_retry_after,
    solve_query,
)


@pytest.fixture
def graph():
    return generators.random_weighted_graph(50, average_degree=6, seed=21)


def make_service(**kwargs):
    kwargs.setdefault("t_override", 2)
    kwargs.setdefault("auto_flush", False)
    return LaplacianService(**kwargs)


def small_network():
    net = FlowNetwork(4, source=0, sink=3)
    net.add_edge(0, 1, capacity=2.0, cost=1.0)
    net.add_edge(0, 2, capacity=2.0, cost=2.0)
    net.add_edge(1, 3, capacity=2.0, cost=1.0)
    net.add_edge(2, 3, capacity=2.0, cost=1.0)
    return net


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        breaker = CircuitBreaker(threshold=3, ttl_seconds=10.0, clock=FakeClock())
        assert breaker.allow("k")
        assert not breaker.record_failure("k")
        assert not breaker.record_failure("k")
        assert breaker.allow("k")
        assert breaker.record_failure("k")  # third: open
        assert not breaker.allow("k")

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(threshold=2, ttl_seconds=10.0, clock=FakeClock())
        breaker.record_failure("k")
        breaker.record_success("k")
        breaker.record_failure("k")
        assert breaker.allow("k")  # count restarted: still closed

    def test_ttl_expiry_allows_half_open_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, ttl_seconds=5.0, clock=clock)
        breaker.record_failure("k")
        breaker.record_failure("k")
        assert not breaker.allow("k")
        clock.now = 5.0
        assert breaker.allow("k")  # half-open probe passes
        # a failing probe re-opens immediately (count re-armed at threshold-1)
        assert breaker.record_failure("k")
        assert not breaker.allow("k")

    def test_successful_probe_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, ttl_seconds=5.0, clock=clock)
        breaker.record_failure("k")
        breaker.record_failure("k")
        clock.now = 6.0
        assert breaker.allow("k")
        breaker.record_success("k")
        assert breaker.allow("k")

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1, ttl_seconds=10.0, clock=FakeClock())
        breaker.record_failure("a")
        assert not breaker.allow("a")
        assert breaker.allow("b")

    def test_key_bound_prunes_oldest(self):
        breaker = CircuitBreaker(threshold=1, ttl_seconds=10.0, clock=FakeClock())
        for i in range(breaker.MAX_KEYS + 10):
            breaker.record_failure(i)
        assert breaker.allow(0)  # oldest key's state was evicted
        assert not breaker.allow(breaker.MAX_KEYS + 9)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            ResiliencePolicy(deadline_seconds=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_jitter"):
            ResiliencePolicy(backoff_jitter=-0.5)
        with pytest.raises(ValueError, match="breaker_threshold"):
            ResiliencePolicy(breaker_threshold=0)

    def test_backoff_grows_and_caps(self):
        policy = ResiliencePolicy(
            backoff_base_seconds=0.1, backoff_max_seconds=0.3, backoff_jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.backoff_seconds(a, rng) for a in range(4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_multiplies_within_band(self):
        policy = ResiliencePolicy(
            backoff_base_seconds=0.1, backoff_max_seconds=1.0, backoff_jitter=0.5
        )
        rng = np.random.default_rng(0)
        for _ in range(32):
            delay = policy.backoff_seconds(0, rng)
            assert 0.1 <= delay <= 0.15


class TestCallWithRetries:
    def test_transient_failures_retried_to_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientFaultError("flake")
            return "ok"

        health = HealthStats()
        result = call_with_retries(
            flaky,
            ResiliencePolicy(max_retries=2, backoff_base_seconds=0.0),
            np.random.default_rng(0),
            health=health,
            sleep=lambda s: None,
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert health.retries_total == 2

    def test_retry_budget_exhaustion_raises_last_error(self):
        def always():
            raise TransientFaultError("still down")

        with pytest.raises(TransientFaultError):
            call_with_retries(
                always,
                ResiliencePolicy(max_retries=1, backoff_base_seconds=0.0),
                np.random.default_rng(0),
                sleep=lambda s: None,
            )

    def test_persistent_failures_never_retried(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise FaultInjectionError("hard fail")

        with pytest.raises(FaultInjectionError):
            call_with_retries(
                broken,
                ResiliencePolicy(max_retries=5, backoff_base_seconds=0.0),
                np.random.default_rng(0),
                sleep=lambda s: None,
            )
        assert len(attempts) == 1

    def test_health_counter_validation(self):
        with pytest.raises(ValueError, match="unknown health counter"):
            HealthStats().increment("nope")


class TestBatchBisection:
    def test_single_poisoned_query_in_coalesced_batch(self, graph, rng):
        """ISSUE acceptance: 16 coalesced queries, 1 injected fault -> exactly
        1 ticket fails with the injected error, 15 resolve matching the
        fault-free answers to 1e-8."""
        reference = make_service()
        ref_key = reference.register(graph)
        rhs = [rng.normal(size=graph.n) for _ in range(16)]
        expected = [reference.solve(ref_key, b) for b in rhs]

        service = make_service()
        key = service.register(graph)
        queries = [solve_query(key, b) for b in rhs]
        poisoned = queries[5]
        service.arm_faults(
            FaultPlan((FaultRule(op="execute", query_id=poisoned.query_id),))
        )
        tickets = [service.submit(q) for q in queries]
        service.flush()

        failures = 0
        for query, ticket, want in zip(queries, tickets, expected):
            assert ticket.done()
            if query is poisoned:
                with pytest.raises(FaultInjectionError, match=str(query.query_id)):
                    ticket.result()
                failures += 1
            else:
                got = ticket.result().value
                np.testing.assert_allclose(
                    got.solution, want.solution, atol=1e-8, rtol=1e-8
                )
        assert failures == 1
        snapshot = service.metrics_snapshot()
        assert snapshot["failures_total"] == 1
        assert snapshot["failures_by_kind"] == {"solve": 1}
        assert snapshot["queries_total"] == 15

    def test_every_query_failing_fails_every_ticket(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        service.arm_faults(FaultPlan((FaultRule(op="execute", kind="solve"),)))
        tickets = [
            service.submit(solve_query(key, rng.normal(size=graph.n)))
            for _ in range(4)
        ]
        service.flush()
        for ticket in tickets:
            with pytest.raises(FaultInjectionError):
                ticket.result()
        assert service.metrics_snapshot()["failures_total"] == 4

    def test_transient_execute_fault_retried_invisibly(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        service.arm_faults(
            FaultPlan(
                (FaultRule(op="execute", transient=True, times=1),),
            )
        )
        report = service.solve(key, rng.normal(size=graph.n))
        assert np.all(np.isfinite(report.solution))
        snapshot = service.metrics_snapshot()
        assert snapshot["retries_total"] == 1
        assert snapshot["failures_total"] == 0


class TestDegradationLadder:
    def test_breaker_trips_then_grounded_serves_exactly(self, graph):
        """ISSUE acceptance: a tripped breaker on sketch builds serves
        resistance queries exactly via the grounded path with degraded=True,
        attempting no further sketch build."""
        pairs = [(i, (i + 7) % graph.n) for i in range(20)]
        reference = make_service()
        ref_key = reference.register(graph)
        reference.planner.oracle_limit = 10  # force the large-graph path
        expected = reference.effective_resistances(ref_key, pairs, eta=0.5)

        service = make_service(
            resilience=ResiliencePolicy(breaker_threshold=2, breaker_ttl_seconds=60.0)
        )
        key = service.register(graph)
        service.planner.oracle_limit = 10
        injector = service.arm_faults(
            FaultPlan((FaultRule(op="build", kind="sketched_resistance"),))
        )

        # two failing builds trip the breaker; both batches degrade but serve
        for _ in range(2):
            values = service.effective_resistances(key, pairs, eta=0.5)
            np.testing.assert_allclose(values, expected, atol=1e-8, rtol=1e-8)
        assert injector.fire_counts() == (2,)
        assert not service.planner.breaker.allow(
            (service.registry.get(key).fingerprint, "sketched_resistance", (0.5, 0))
        )

        # breaker open: the build is short-circuited, not attempted
        values = service.effective_resistances(key, pairs, eta=0.5)
        np.testing.assert_allclose(values, expected, atol=1e-8, rtol=1e-8)
        assert injector.fire_counts() == (2,)  # no third build attempt
        snapshot = service.metrics_snapshot()
        assert snapshot["breaker_open_total"] >= 1
        assert snapshot["degraded_total"] >= 3
        assert snapshot["failures_total"] == 0

    def test_degraded_flag_on_result(self, graph):
        from repro.serve import resistance_batch_query

        service = make_service()
        key = service.register(graph)
        service.planner.oracle_limit = 10
        service.arm_faults(
            FaultPlan((FaultRule(op="build", kind="sketched_resistance"),))
        )
        ticket = service.submit(
            resistance_batch_query(key, [(0, 1), (2, 3)] * 10, eta=0.5)
        )
        service.flush()
        result = ticket.result()
        assert result.degraded is True
        assert np.all(np.isfinite(result.value))

    def test_dense_oracle_failure_degrades_to_grounded(self, graph):
        service = make_service()
        key = service.register(graph)
        service.arm_faults(
            FaultPlan((FaultRule(op="build", kind="resistance_oracle"),))
        )
        value = service.effective_resistance(key, 0, 1)
        assert np.isfinite(value)
        assert service.metrics_snapshot()["degraded_total"] == 1

    def test_failed_repair_walk_falls_back_to_rebuild(self, rng):
        graph = generators.random_weighted_graph(40, average_degree=6, seed=3)
        service = make_service()
        key = service.register(graph)
        b = rng.normal(size=graph.n)
        service.solve(key, b)
        u, v = 0, graph.n - 1
        while graph.has_edge(u, v):
            v -= 1
        graph.add_edge(u, v, 1.0)
        service.arm_faults(FaultPlan((FaultRule(op="repair", step=0),)))
        report = service.solve(key, b)
        assert np.all(np.isfinite(report.solution))
        assert service.metrics_snapshot()["degraded_total"] >= 1
        # the degraded path still answers against the *current* content
        from repro.solvers.laplacian import BCCLaplacianSolver

        reference = BCCLaplacianSolver(graph, seed=0, t_override=2)
        np.testing.assert_allclose(
            report.solution, reference.exact_solution(b), atol=1e-5
        )

    def test_solver_preprocessing_build_failure_reaches_client(self, graph, rng):
        # preprocessing has no cheaper substitute: the error is contained to
        # the ticket, not swallowed
        service = make_service()
        key = service.register(graph)
        service.arm_faults(
            FaultPlan((FaultRule(op="build", kind="preprocessing"),))
        )
        ticket = service.submit(solve_query(key, rng.normal(size=graph.n)))
        service.flush()
        with pytest.raises(FaultInjectionError):
            ticket.result()


class TestNumericalHealth:
    def test_nan_solve_output_refused_with_typed_error(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        query = solve_query(key, rng.normal(size=graph.n))
        service.arm_faults(
            FaultPlan((FaultRule(op="nan", query_id=query.query_id),))
        )
        ticket = service.submit(query)
        service.flush()
        with pytest.raises(NumericalHealthError):
            ticket.result()

    def test_nan_poison_contained_to_its_query(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        rhs = [rng.normal(size=graph.n) for _ in range(8)]
        queries = [solve_query(key, b) for b in rhs]
        service.arm_faults(
            FaultPlan((FaultRule(op="nan", query_id=queries[3].query_id),))
        )
        tickets = [service.submit(q) for q in queries]
        service.flush()
        for index, ticket in enumerate(tickets):
            if index == 3:
                with pytest.raises(NumericalHealthError):
                    ticket.result()
            else:
                assert np.all(np.isfinite(ticket.result().value.solution))

    def test_nan_gram_output_refused(self, monkeypatch):
        """The bridge refuses a NaN Newton direction on both paths; the IPM
        takes the refusal as a stall and the exact correction answers."""
        net = small_network()
        expected = min_cost_max_flow(net, seed=0)
        service = make_service()
        key = service.register(net)
        refusals = []
        call = GramSolverBridge.__call__

        def recording_call(bridge, d, rhs):
            try:
                return call(bridge, d, rhs)
            except NumericalHealthError:
                refusals.append(bridge)
                raise

        monkeypatch.setattr(GramSolverBridge, "__call__", recording_call)
        with monkeypatch.context() as patch:
            patch.setattr(
                GramFactorisation, "solve", lambda self, rhs: np.full(self.structure.n, np.nan)
            )
            direct = min_cost_max_flow(net, seed=0)
            assert len(refusals) == 1
            served = service.min_cost_flow(key, seed=0)
            assert len(refusals) == 2
        for run in (direct, served):
            assert run.rounding_fallback
            assert run.flow == expected.flow and run.cost == expected.cost
        # the service answers the next flow query from a healthy bridge
        healthy = service.min_cost_flow(key, seed=0)
        assert len(refusals) == 2 and not healthy.rounding_fallback
        assert healthy.flow == expected.flow and healthy.cost == expected.cost


class TestDeadlines:
    def test_expired_query_fails_fast_before_execution(self, graph, rng):
        service = make_service(
            resilience=ResiliencePolicy(deadline_seconds=0.01)
        )
        key = service.register(graph)
        ticket = service.submit(solve_query(key, rng.normal(size=graph.n)))
        time.sleep(0.05)
        service.flush()
        with pytest.raises(DeadlineExceededError):
            ticket.result()
        snapshot = service.metrics_snapshot()
        assert snapshot["deadline_misses"] == 1
        assert snapshot["failures_total"] == 1

    def test_late_result_still_resolves_and_counts_miss(self, graph, rng):
        service = make_service(
            resilience=ResiliencePolicy(deadline_seconds=0.05),
            faults=FaultPlan(
                (FaultRule(op="execute", fail=False, delay_seconds=0.1),)
            ),
        )
        key = service.register(graph)
        report = service.solve(key, rng.normal(size=graph.n))
        assert np.all(np.isfinite(report.solution))
        snapshot = service.metrics_snapshot()
        assert snapshot["deadline_misses"] == 1
        assert snapshot["failures_total"] == 0

    def test_no_deadline_means_no_misses(self, graph, rng):
        service = make_service(
            faults=FaultPlan(
                (FaultRule(op="execute", fail=False, delay_seconds=0.02),)
            )
        )
        key = service.register(graph)
        service.solve(key, rng.normal(size=graph.n))
        assert service.metrics_snapshot()["deadline_misses"] == 0


class TestSubmitTimeRejection:
    def test_unknown_graph_typed_error(self):
        service = make_service()
        with pytest.raises(UnknownGraphError):
            service.solve("never-registered", np.zeros(3))
        # KeyError subclass: historical handlers keep working
        with pytest.raises(KeyError):
            service.effective_resistance("never-registered", 0, 1)

    def test_nan_rhs_rejected_at_submit(self, graph):
        service = make_service()
        key = service.register(graph)
        b = np.zeros(graph.n)
        b[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            service.submit(solve_query(key, b))

    def test_inf_rhs_rejected_at_submit(self, graph):
        service = make_service()
        key = service.register(graph)
        b = np.zeros(graph.n)
        b[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            service.solve(key, b)

    @pytest.mark.parametrize("field", ["capacity", "cost"])
    def test_nan_network_never_reaches_submit(self, field):
        """The edge constructor refuses a NaN capacity or cost, so no flow
        network a service is handed carries one."""
        net = small_network()
        with pytest.raises(ValueError, match=r"edge \(0, 1\) needs a finite capacity and cost"):
            net.add_edge(0, 1, **{"capacity": 2.0, "cost": 1.0, field: np.nan})
        assert net == small_network()

    @pytest.mark.parametrize("field", ["capacity", "cost"])
    def test_non_integral_network_never_reaches_submit(self, field):
        """Nor does it take a non-integral one: the flow LP's perturbation and
        optimality certificate assume integral data."""
        net = small_network()
        with pytest.raises(ValueError, match=r"edge \(0, 1\) needs an integral capacity and cost"):
            net.add_edge(0, 1, **{"capacity": 2.0, "cost": 1.0, field: 1.5})
        assert net == small_network()

    def test_rejected_query_never_reaches_the_queue(self, graph):
        service = make_service()
        key = service.register(graph)
        b = np.full(graph.n, np.nan)
        with pytest.raises(ValueError):
            service.submit(solve_query(key, b))
        assert service.flush() == 0


class TestFailureMetrics:
    def test_failed_queries_enter_latency_window(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        query = solve_query(key, rng.normal(size=graph.n))
        service.arm_faults(
            FaultPlan((FaultRule(op="execute", query_id=query.query_id),))
        )
        ticket = service.submit(query)
        service.flush()
        with pytest.raises(FaultInjectionError):
            ticket.result()
        assert service.metrics.failures_total == 1
        assert service.metrics.failures_by_kind == {"solve": 1}
        # the failure's latency sample landed in the percentile window
        assert service.metrics.latency_percentiles()["p99"] > 0.0

    def test_snapshot_exposes_resilience_ledger(self, graph):
        service = make_service()
        service.register(graph)
        snapshot = service.metrics_snapshot()
        for key in (
            "failures_total",
            "failures_by_kind",
            "retries_total",
            "breaker_open_total",
            "degraded_total",
            "deadline_misses",
        ):
            assert key in snapshot

    def test_arm_faults_rejects_garbage(self, graph):
        service = make_service()
        with pytest.raises(TypeError, match="arm_faults"):
            service.arm_faults("not a plan")

    def test_arm_faults_none_disarms(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        service.arm_faults(FaultPlan((FaultRule(op="execute"),)))
        service.arm_faults(None)
        report = service.solve(key, rng.normal(size=graph.n))
        assert np.all(np.isfinite(report.solution))


class TestRetryAfterEstimation:
    def test_tracker_needs_two_observations_for_a_rate(self):
        tracker = DrainRateTracker()
        assert tracker.rate(now=10.0) is None
        tracker.observe(count=4, now=10.0)
        assert tracker.rate(now=10.0) is None  # single point: no span yet
        tracker.observe(count=4, now=12.0)
        # 4 drains (the second batch) over a 2 second span
        assert tracker.rate(now=12.0) == pytest.approx(2.0)

    def test_tracker_window_slides(self):
        tracker = DrainRateTracker(window=4)
        for i in range(10):
            tracker.observe(count=1, now=float(i))
        # only the last 4 observations (t=6..9) remain: 3 drains over 3s
        assert tracker.rate(now=9.0) == pytest.approx(1.0)

    def test_tracker_has_no_rate_over_a_zero_time_span(self):
        tracker = DrainRateTracker()
        tracker.observe(count=3, now=5.0)
        tracker.observe(count=3, now=5.0)
        assert tracker.rate(now=5.0) is None  # two observations, no elapsed time
        assert tracker.rate(now=6.0) == pytest.approx(3.0)

    def test_estimate_falls_back_without_a_rate(self):
        assert estimate_retry_after(5, None) == pytest.approx(0.05)
        assert estimate_retry_after(5, 0.0) == pytest.approx(0.05)
        assert estimate_retry_after(5, -1.0) == pytest.approx(0.05)
        # a constant, not proportional to the backlog
        assert estimate_retry_after(0, None) == pytest.approx(0.05)
        assert estimate_retry_after(10_000, None) == pytest.approx(0.05)

    def test_estimate_tracks_depth_over_drain_rate_with_clamps(self):
        assert estimate_retry_after(10, 100.0) == pytest.approx(0.1)
        assert estimate_retry_after(1, 1e6) == pytest.approx(0.001)  # floor
        assert estimate_retry_after(1000, 0.1) == pytest.approx(5.0)  # ceiling
        assert estimate_retry_after(0, 100.0) == pytest.approx(0.001)  # empty queue
