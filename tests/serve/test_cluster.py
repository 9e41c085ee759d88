"""ClusterService: hash ring, sharded serving, crash recovery, shm cleanup.

The multi-process classes are marked ``cluster`` (spawned workers are too
heavy for the fast suite; CI runs them as a dedicated step).  The
:class:`~repro.serve.cluster.HashRing` tests are pure single-process and run
everywhere.
"""

import inspect
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.graphs import generators
from repro.serve import (
    ClusterService,
    HashRing,
    HealthPolicy,
    LaplacianService,
    TrafficConfig,
    WorkerConfig,
    WorkerCrashedError,
    certify_query,
    compare_answers,
    generate_trace,
    resistance_query,
    run_trace,
    solve_query,
)

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


def segment_exists(name: str) -> bool:
    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    handle.close()
    return True


class TestHashRing:
    KEYS = [f"fingerprint-{i:04d}" for i in range(300)]

    def test_every_key_has_exactly_one_deterministic_owner(self):
        ring = HashRing(["w0", "w1", "w2"])
        owners = {key: ring.owners(key, 1)[0] for key in self.KEYS}
        assert set(owners.values()) <= {"w0", "w1", "w2"}
        fresh = HashRing(["w2", "w0", "w1"])  # insertion order must not matter
        assert {key: fresh.owners(key, 1)[0] for key in self.KEYS} == owners

    def test_adding_a_node_only_moves_keys_onto_it(self):
        ring = HashRing(["w0", "w1", "w2"])
        before = {key: ring.owners(key, 1)[0] for key in self.KEYS}
        ring.add("w3")
        after = {key: ring.owners(key, 1)[0] for key in self.KEYS}
        moved = {key for key in self.KEYS if before[key] != after[key]}
        assert moved, "a new node should take over some keys"
        assert all(after[key] == "w3" for key in moved)

    def test_removing_a_node_only_moves_its_keys(self):
        ring = HashRing(["w0", "w1", "w2"])
        before = {key: ring.owners(key, 1)[0] for key in self.KEYS}
        ring.remove("w1")
        after = {key: ring.owners(key, 1)[0] for key in self.KEYS}
        assert "w1" not in set(after.values())
        for key in self.KEYS:
            if before[key] != "w1":
                assert after[key] == before[key]

    def test_assignment_is_roughly_balanced(self):
        ring = HashRing(["w0", "w1", "w2"], replicas=64)
        counts = {}
        for key in self.KEYS:
            owner = ring.owners(key, 1)[0]
            counts[owner] = counts.get(owner, 0) + 1
        assert min(counts.values()) > len(self.KEYS) * 0.1

    def test_nodes_property_and_empty_ring(self):
        ring = HashRing()
        assert ring.nodes == ()
        with pytest.raises(ValueError):
            ring.owners("anything", 1)
        with pytest.raises(ValueError):
            ring.owners("anything", 2)
        ring.add("solo")
        assert ring.owners("anything", 1)[0] == "solo"

    def test_owners_are_distinct_and_prefixed_by_owner(self):
        ring = HashRing(["w0", "w1", "w2"])
        for key in self.KEYS[:60]:
            owners = ring.owners(key, 2)
            assert owners[0] == ring.owners(key, 1)[0]
            assert len(owners) == len(set(owners)) == 2
        # asking for more replicas than nodes degrades to every node
        assert set(ring.owners("key", 7)) == {"w0", "w1", "w2"}
        with pytest.raises(ValueError):
            ring.owners("key", 0)

    def test_add_moves_a_bounded_fraction_of_replica_sets(self):
        keys = [f"bulk-{i:05d}" for i in range(1000)]
        ring = HashRing(["w0", "w1", "w2", "w3"])
        before = {key: set(ring.owners(key, 2)) for key in keys}
        ring.add("w4")
        after = {key: set(ring.owners(key, 2)) for key in keys}
        moved = sum(1 for key in keys if before[key] != after[key])
        # a 5th node should attract ~2/5 of the (key, replica) slots, i.e.
        # touch ~2/5 of the replica *sets*; allow generous slack over the
        # expectation, but far below "rehash everything"
        assert 0 < moved <= int(0.6 * len(keys))
        for key in keys:
            gained = after[key] - before[key]
            assert gained <= {"w4"}, (
                f"{key}: a node other than the new one took over: {gained}"
            )

    def test_remove_moves_a_bounded_fraction_of_replica_sets(self):
        keys = [f"bulk-{i:05d}" for i in range(1000)]
        ring = HashRing(["w0", "w1", "w2", "w3"])
        before = {key: set(ring.owners(key, 2)) for key in keys}
        ring.remove("w1")
        after = {key: set(ring.owners(key, 2)) for key in keys}
        moved = sum(1 for key in keys if before[key] != after[key])
        # only keys that had w1 in their replica set may change
        assert 0 < moved <= sum(1 for key in keys if "w1" in before[key])
        for key in keys:
            if "w1" not in before[key]:
                assert after[key] == before[key]


FRONT_DOOR = (
    "solve",
    "effective_resistance",
    "effective_resistances",
    "certify",
    "min_cost_flow",
)


@pytest.mark.parametrize("method", FRONT_DOOR)
def test_front_door_is_one_definition_for_both_services(method):
    # true by construction while both inherit QueryFrontDoor; pins the
    # shared front door against a future re-fork of either class
    in_process = getattr(LaplacianService, method)
    clustered = getattr(ClusterService, method)
    assert inspect.signature(in_process) == inspect.signature(clustered)
    assert in_process is clustered
    assert method not in vars(LaplacianService) and method not in vars(ClusterService)


@pytest.mark.cluster
class TestClusterServing:
    @pytest.fixture(scope="class")
    def cluster(self):
        service = make_cluster(num_workers=2)
        yield service
        service.close()

    @pytest.fixture(scope="class")
    def keys(self, cluster):
        return [cluster.register(g, name=f"g{i}") for i, g in enumerate(make_graphs())]

    def test_registration_shards_by_ring(self, cluster, keys):
        from repro.serve import graph_fingerprint

        for key, graph in zip(keys, make_graphs()):
            owner = cluster.ring.owners(graph_fingerprint(graph), 1)[0]
            assert cluster.shard_of(key) == owner
        assert set(cluster.keys()) == set(keys)

    def test_answers_match_single_process_service(self, cluster, keys):
        single = LaplacianService(t_override=2)
        single_keys = [
            single.register(g, name=f"g{i}") for i, g in enumerate(make_graphs())
        ]
        trace = generate_trace(SIZES, TrafficConfig(seed=3, queries=30, clients=3))
        cluster_report = run_trace(
            cluster, keys, SIZES, trace, concurrent=False, record_answers=True
        )
        single_report = run_trace(
            single, single_keys, SIZES, trace, concurrent=False, record_answers=True
        )
        assert cluster_report.failed == 0
        compared, worst = compare_answers(single_report, cluster_report, atol=1e-8)
        assert compared > 0
        assert worst <= 1e-8
        single.close()

    def test_metrics_merge_worker_counters(self, cluster, keys):
        b = np.zeros(SIZES[0])
        b[0], b[-1] = 1.0, -1.0
        cluster.solve(keys[0], b)
        metrics = cluster.metrics_snapshot()
        assert metrics["workers"] == 2
        assert metrics["queries_total"] > 0
        assert metrics["registered_graphs"] == len(keys)
        assert len(metrics["per_worker"]) == 2
        assert metrics["queries_by_kind"].get("solve", 0) >= 1

    def test_unknown_kind_fails_its_ticket_with_a_value_error(self, cluster, keys):
        # the parent-side submit does not validate; the worker's service
        # does.  Before the kind table the bogus query validated as nothing
        # and executed as certify, resolving to a CertificationReport.
        query = certify_query(keys[0])
        query.kind = "bogus"
        ticket = cluster.submit(query)
        with pytest.raises(ValueError, match="unknown query kind 'bogus'"):
            ticket.result(timeout=60)

    def test_duplicate_name_with_different_content_is_rejected(self, cluster, keys):
        with pytest.raises(ValueError):
            cluster.register(generators.grid_graph(3, 3), name="g0")

    def test_reregistering_same_content_is_idempotent(self, cluster, keys):
        again = cluster.register(make_graphs()[0], name="g0")
        assert again == keys[0]

    def test_both_front_doors_return_one_ticket_class(self, cluster, keys):
        single = LaplacianService(t_override=2)
        single_key = single.register(make_graphs()[0], name="g0")
        b = np.zeros(SIZES[0])
        b[0], b[-1] = 1.0, -1.0
        tickets = [
            single.submit(solve_query(single_key, b)),
            cluster.submit(solve_query(keys[0], b)),
        ]
        assert type(tickets[0]) is type(tickets[1])
        for ticket in tickets:
            ticket.result(timeout=60)
            assert ticket.done() is True
        single.close()


@pytest.mark.cluster
class TestCrashRecovery:
    def test_kill_mid_trace_loses_no_acked_query(self):
        cluster = make_cluster(num_workers=2)
        try:
            keys = [
                cluster.register(g, name=f"g{i}") for i, g in enumerate(make_graphs())
            ]
            trace = generate_trace(
                SIZES, TrafficConfig(seed=11, queries=40, clients=4)
            )
            victim = cluster.shard_of(keys[0])
            killer = threading.Timer(0.3, cluster.kill_worker, args=(victim,))
            killer.start()
            report = run_trace(cluster, keys, SIZES, trace, concurrent=True)
            killer.join()
            # the invariant: every acked event resolved or failed *typed*
            assert report.ok + report.shed + report.failed == report.events_total
            known = {"WorkerCrashedError", "ServiceOverloadedError"}
            assert set(report.failures_by_type) <= known
            # the cluster recovered and serves every graph again
            assert cluster.wait_recovered(timeout=30.0)
            for key, n in zip(keys, SIZES):
                b = np.zeros(n)
                b[0], b[-1] = 1.0, -1.0
                assert cluster.solve(key, b).solution.shape == (n,)
            metrics = cluster.metrics_snapshot()
            assert metrics["worker_crashes"] >= 1
            assert metrics["worker_respawns"] >= 1
        finally:
            cluster.close()

    def test_crash_without_respawn_fails_typed(self):
        # replication_factor=1: with the default of 2 a replica would
        # (correctly) keep serving and no typed error would surface
        cluster = make_cluster(num_workers=2, respawn=False, replication_factor=1)
        try:
            key = cluster.register(make_graphs()[0], name="g0")
            victim = cluster.shard_of(key)
            cluster.kill_worker(victim)
            b = np.zeros(SIZES[0])
            b[0], b[-1] = 1.0, -1.0
            with pytest.raises(WorkerCrashedError):
                cluster.solve(key, b)
        finally:
            cluster.close()


@pytest.mark.cluster
class TestShmLifecycle:
    def _exercise(self, cluster):
        keys = [cluster.register(g, name=f"g{i}") for i, g in enumerate(make_graphs())]
        trace = generate_trace(SIZES, TrafficConfig(seed=5, queries=20, clients=2))
        run_trace(cluster, keys, SIZES, trace, concurrent=False)
        return keys

    def test_no_leaked_segments_after_close(self):
        cluster = make_cluster(num_workers=2)
        self._exercise(cluster)
        specs = cluster._store.owned_specs()
        cluster.close()
        leaked = [spec.segment for spec in specs if segment_exists(spec.segment)]
        assert leaked == []

    def test_close_does_not_wait_on_a_wedged_worker(self):
        cluster = make_cluster(num_workers=2)
        self._exercise(cluster)
        victim = cluster.shard_of("g0")
        process = cluster._workers[victim].process
        cluster.wedge_worker(victim, 60.0)
        specs = cluster._store.owned_specs()
        start = time.monotonic()
        cluster.close()
        assert time.monotonic() - start < 20.0
        assert not process.is_alive()
        leaked = [spec.segment for spec in specs if segment_exists(spec.segment)]
        assert leaked == []

    def test_no_leaked_segments_after_worker_crash(self):
        cluster = make_cluster(num_workers=2)
        keys = self._exercise(cluster)
        cluster.kill_worker(cluster.shard_of(keys[0]))
        assert cluster.wait_recovered(timeout=30.0)
        b = np.zeros(SIZES[0])
        b[0], b[-1] = 1.0, -1.0
        cluster.solve(keys[0], b)
        specs = cluster._store.owned_specs()
        assert specs, "the cluster should have published shared artifacts"
        cluster.close()
        leaked = [spec.segment for spec in specs if segment_exists(spec.segment)]
        assert leaked == []


@pytest.mark.cluster
class TestReplication:
    def test_replica_sets_failover_and_lockstep_mutation(self):
        cluster = make_cluster(num_workers=2)  # replication_factor defaults to 2
        try:
            key = cluster.register(make_graphs()[0], name="g0")
            replicas = cluster.replicas_of(key)
            assert len(set(replicas)) == 2
            fingerprint = cluster._graphs[key].fingerprint
            assert replicas == cluster.ring.owners(fingerprint, 2)
            b = np.zeros(SIZES[0])
            b[0], b[-1] = 1.0, -1.0
            # mutate before the kill: the surviving replica must have seen it
            cluster.mutate(key, "add", 0, 7, 1.5)
            expected = cluster.solve(key, b).solution
            cluster.kill_worker(cluster.shard_of(key))
            # the replica serves the *post-mutation* graph during the respawn gap
            got = cluster.solve(key, b).solution
            np.testing.assert_allclose(got, expected, atol=1e-8)
            assert cluster.wait_recovered(timeout=30.0)
            metrics = cluster.metrics_snapshot()
            assert metrics["replication_factor"] == 2
            assert metrics["failures_total"] == 0
        finally:
            cluster.close()

    def test_counters_stay_consistent_when_no_replica_is_up(self):
        cluster = make_cluster(num_workers=2, respawn=False, replication_factor=1)
        try:
            key = cluster.register(make_graphs()[0], name="g0")
            b = np.zeros(SIZES[0])
            b[0], b[-1] = 1.0, -1.0
            cluster.solve(key, b)
            cluster.kill_worker(cluster.shard_of(key))
            for _ in range(5):
                with pytest.raises(WorkerCrashedError):
                    cluster.solve(key, b)
            metrics = cluster.metrics_snapshot()
            # submissions that never reached a worker are neither queries nor
            # failures: the failure rate can never exceed 1
            assert metrics["queries_total"] == 1
            assert metrics["failures_total"] == 0
            assert metrics["failures_total"] <= metrics["queries_total"]
        finally:
            cluster.close()


@pytest.mark.cluster
class TestMembership:
    def _many_graphs(self):
        return [
            generators.random_weighted_graph(16 + 2 * i, average_degree=4, seed=20 + i)
            for i in range(6)
        ]

    def test_add_worker_moves_only_ring_keys_and_reattaches_shm(self):
        cluster = make_cluster(num_workers=2, replication_factor=1)
        try:
            graphs = self._many_graphs()
            keys = [cluster.register(g, name=f"m{i}") for i, g in enumerate(graphs)]
            # warm a dense resistance oracle per graph so specs are published
            for key in keys:
                cluster.effective_resistance(key, 0, 1)
            assert cluster._store.owned_specs(), "expected published shm artifacts"
            before = {key: cluster.replicas_of(key) for key in keys}
            moved = cluster.add_worker()
            new_name = "worker-2"
            assert new_name in cluster.ring.nodes
            # exactly the keys whose ring placement changed were moved, and
            # with rf=1 every moved key is now primaried on the new worker
            for key in keys:
                fingerprint = cluster._graphs[key].fingerprint
                assert cluster.replicas_of(key) == cluster.ring.owners(
                    fingerprint, cluster.replication_factor
                )
                assert (cluster.replicas_of(key) != before[key]) == (key in moved)
            assert moved, "a third worker should attract some keys"
            assert all(cluster.shard_of(key) == new_name for key in moved)
            # the new worker re-attached the published oracle instead of
            # rebuilding: its very first resistance query is a cache hit
            result = cluster._submit_and_wait(resistance_query(moved[0], 0, 1))
            assert result.cache_hit, "expected shm re-attach, not a rebuild"
        finally:
            cluster.close()

    def test_remove_worker_drains_and_rehomes_its_keys(self):
        cluster = make_cluster(num_workers=3)
        try:
            graphs = self._many_graphs()
            keys = [cluster.register(g, name=f"m{i}") for i, g in enumerate(graphs)]
            victim = cluster.shard_of(keys[0])
            moved = cluster.remove_worker(victim)
            assert victim not in cluster.ring.nodes
            assert keys[0] in moved
            b = None
            for key, graph in zip(keys, graphs):
                assert victim not in cluster.replicas_of(key)
                fingerprint = cluster._graphs[key].fingerprint
                assert cluster.replicas_of(key) == cluster.ring.owners(
                    fingerprint, cluster.replication_factor
                )
                b = np.zeros(graph.n)
                b[0], b[-1] = 1.0, -1.0
                assert cluster.solve(key, b).solution.shape == (graph.n,)
            remaining = list(cluster.ring.nodes)
            cluster.remove_worker(remaining[0])
            with pytest.raises(ValueError):
                cluster.remove_worker(remaining[1])
        finally:
            cluster.close()

    def test_removing_unknown_or_last_worker_raises(self):
        cluster = make_cluster(num_workers=1, replication_factor=1)
        try:
            with pytest.raises(KeyError):
                cluster.remove_worker("nope")
            with pytest.raises(ValueError):
                cluster.remove_worker("worker-0")
        finally:
            cluster.close()


@pytest.mark.cluster
class TestWedgedRequest:
    def test_monitor_kill_fails_a_request_pending_on_a_wedged_shard(self):
        # the health monitor is the only liveness rule: the mutate waits
        # with no timeout of its own until the dead ladder (6 misses at a
        # 0.1 s cadence) kills the wedged process
        cluster = make_cluster(
            num_workers=2,
            replication_factor=1,
            health=HealthPolicy(
                probe_interval_seconds=0.1, suspect_misses=2, dead_misses=6
            ),
        )
        try:
            key = cluster.register(make_graphs()[0], name="g0")
            victim = cluster.shard_of(key)
            handle = cluster._workers[victim]
            deadline = time.monotonic() + 30.0
            while not handle.ever_answered and time.monotonic() < deadline:
                time.sleep(0.05)  # wait out the startup grace
            assert handle.ever_answered, "the victim never answered a ping"
            pid_before = handle.process.pid
            cluster.wedge_worker(victim, 60.0)
            with pytest.raises(WorkerCrashedError):
                cluster.mutate(key, "add", 0, 7, 1.5)
            assert cluster.wait_recovered(timeout=30.0)
            assert cluster._workers[victim].process.pid != pid_before
            assert cluster.metrics_snapshot()["health_kills"] >= 1
            b = np.zeros(SIZES[0])
            b[0], b[-1] = 1.0, -1.0
            assert cluster.solve(key, b).solution.shape == (SIZES[0],)
        finally:
            cluster.close()
