"""Cluster-level chaos: replicated shards under kills, wedges and flaky links.

These tests are marked both ``chaos`` and ``cluster``: they spawn real
worker processes (heavy, like the cluster suite) *and* inject deterministic
process-tier faults (kill / wedge / heartbeat-drop, driven by the parent's
health monitor through ``worker_*`` :class:`FaultRule` entries).  CI runs
them as their own dedicated step (``-m "chaos and cluster"``).

The headline assertion is the availability contract: a replicated cluster
in which **every** worker is killed once mid-trace still completes a mixed
mutate/query trace with *zero failed events*, and its recorded answers
match a fault-free single-process run of the identical trace to ``1e-8``.
"""

import threading
import time

import numpy as np
import pytest
from traffic import TrafficConfig, compare_answers, generate_trace, run_trace

from repro.graphs import generators
from repro.serve import (
    ClusterService,
    FaultPlan,
    FaultRule,
    HealthPolicy,
    LaplacianService,
    WorkerConfig,
)

pytestmark = [pytest.mark.chaos, pytest.mark.cluster]

SIZES = [40, 24, 30]


def make_graphs():
    """Fresh identical graph objects per service, so replays stay independent."""
    return [
        generators.grid_graph(4, 10),
        generators.random_weighted_graph(24, average_degree=4, seed=5),
        generators.grid_graph(5, 6),
    ]


def make_cluster(num_workers=2, **kwargs):
    kwargs.setdefault("worker_config", WorkerConfig(t_override=2))
    return ClusterService(num_workers=num_workers, **kwargs)


class TestKillChaos:
    def test_killing_every_worker_mid_trace_loses_nothing(self):
        trace = generate_trace(
            SIZES, TrafficConfig(seed=29, queries=120, clients=4)
        )
        # fault-free baseline: the same trace on a single-process service
        single = LaplacianService(t_override=2)
        single_keys = [
            single.register(g, name=f"g{i}") for i, g in enumerate(make_graphs())
        ]
        baseline = run_trace(
            single, single_keys, SIZES, trace, concurrent=False, record_answers=True
        )
        single.close()
        assert baseline.failed == 0 and baseline.shed == 0

        cluster = make_cluster(num_workers=2)  # replication_factor defaults to 2
        try:
            keys = [
                cluster.register(g, name=f"g{i}") for i, g in enumerate(make_graphs())
            ]
            outcome = {}

            def runner():
                outcome["report"] = run_trace(
                    cluster,
                    keys,
                    SIZES,
                    trace,
                    concurrent=False,
                    record_answers=True,
                )

            thread = threading.Thread(target=runner, daemon=True)
            thread.start()
            # kill each worker once, sequentially, while the trace runs
            for victim in ("worker-0", "worker-1"):
                time.sleep(0.3)
                cluster.kill_worker(victim)
                assert cluster.wait_recovered(timeout=60.0), (
                    f"cluster did not recover after killing {victim}"
                )
            thread.join(timeout=300.0)
            assert not thread.is_alive(), "trace replay hung"
            report = outcome["report"]
            # the availability contract: every event resolved, none failed
            assert report.ok + report.shed + report.failed == report.events_total
            assert report.failed == 0, f"failed events: {report.failures_by_type}"
            assert report.shed == 0  # no admission control configured
            compared, worst = compare_answers(baseline, report, atol=1e-8)
            assert compared > 0
            assert worst <= 1e-8
            metrics = cluster.metrics_snapshot()
            assert metrics["worker_crashes"] >= 2
            assert metrics["worker_respawns"] >= 2
        finally:
            cluster.close()


class TestWedgeChaos:
    FAST = HealthPolicy(
        probe_interval_seconds=0.1, suspect_misses=2, dead_misses=6
    )

    def test_wedged_worker_is_detected_and_respawned_unprompted(self):
        cluster = make_cluster(num_workers=2, replication_factor=1, health=self.FAST)
        try:
            key = cluster.register(make_graphs()[0], name="g0")
            b = np.zeros(SIZES[0])
            b[0], b[-1] = 1.0, -1.0
            expected = cluster.solve(key, b).solution
            victim = cluster.replicas_of(key)[0]
            pid_before = cluster._workers[victim].process.pid
            time.sleep(0.5)  # let the first pings land (ends startup grace)
            cluster.wedge_worker(victim, 30.0)  # hang, not crash
            # no operator action: the monitor's dead ladder (6 misses at
            # 0.1s cadence) kills the wedged process and respawn revives it
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if cluster._health_kills_total >= 1:
                    break
                time.sleep(0.05)
            assert cluster._health_kills_total >= 1, "monitor never killed the wedge"
            # the counter moves just before SIGKILL lands, while every worker
            # still looks alive to wait_recovered: wait for the respawn itself
            while (
                time.monotonic() < deadline
                and cluster._workers[victim].process.pid == pid_before
            ):
                time.sleep(0.05)
            assert cluster._workers[victim].process.pid != pid_before
            assert cluster.wait_recovered(timeout=30.0)
            # the shard serves again, identically
            got = cluster.solve(key, b).solution
            np.testing.assert_allclose(got, expected, atol=1e-8)
            metrics = cluster.metrics_snapshot()
            assert metrics["health_kills"] >= 1
            assert metrics["worker_respawns"] >= 1
        finally:
            cluster.close()

    def test_fault_plan_drives_the_wedge_deterministically(self):
        plan = FaultPlan(
            (
                FaultRule(
                    op="worker_wedge",
                    probability=1.0,
                    times=1,
                    delay_seconds=30.0,
                    worker="worker-0",
                ),
            ),
            seed=7,
        )
        cluster = make_cluster(num_workers=2, health=self.FAST)
        try:
            # register first: a wedge queued ahead of the register message
            # would (correctly) stall registration for the wedge duration
            key = cluster.register(make_graphs()[0], name="g0")
            injector = cluster.arm_worker_faults(plan)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if injector.fired_total >= 1 and cluster._health_kills_total >= 1:
                    break
                time.sleep(0.05)
            assert injector.fired_total >= 1, "the wedge rule never fired"
            assert cluster._health_kills_total >= 1
            cluster.arm_worker_faults(None)  # disarm so recovery sticks
            assert cluster.wait_recovered(timeout=30.0)
            b = np.zeros(SIZES[0])
            b[0], b[-1] = 1.0, -1.0
            assert cluster.solve(key, b).solution.shape == (SIZES[0],)
        finally:
            cluster.close()


class TestHeartbeatChaos:
    def test_dropped_heartbeats_mark_suspect_then_recover(self):
        # dead threshold far away: drops must only ever reach *suspect*
        policy = HealthPolicy(
            probe_interval_seconds=0.1, suspect_misses=2, dead_misses=200
        )
        plan = FaultPlan(
            rules=(
                FaultRule(
                    op="worker_drop_ping",
                    probability=1.0,
                    times=4,
                    worker="worker-0",
                ),
            ),
            seed=3,
        )
        cluster = make_cluster(num_workers=2, health=policy)
        cluster.arm_worker_faults(plan)
        try:
            keys = [
                cluster.register(g, name=f"g{i}") for i, g in enumerate(make_graphs())
            ]
            handle = cluster._workers["worker-0"]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not handle.suspect:
                time.sleep(0.05)
            assert handle.suspect, "dropped heartbeats never reached suspect"
            # reads still serve while the worker is suspect (replicas cover)
            b = np.zeros(SIZES[0])
            b[0], b[-1] = 1.0, -1.0
            assert cluster.solve(keys[0], b).solution.shape == (SIZES[0],)
            # the drop rule is capped at 4 firings: pings resume, the worker
            # climbs back down the ladder without ever being killed
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and handle.suspect:
                time.sleep(0.05)
            assert not handle.suspect, "worker never recovered from suspect"
            metrics = cluster.metrics_snapshot()
            assert metrics["workers_suspected_total"] >= 1
            assert metrics["health_kills"] == 0
            assert metrics["worker_crashes"] == 0
        finally:
            cluster.close()
