"""Multi-process sharded serving: the `ClusterService` front door.

Scales the single-process :class:`~repro.serve.service.LaplacianService`
across worker processes.  Graphs are placed by **consistent hashing on
their content fingerprint** (:class:`HashRing`): each registered graph is
hosted by ``replication_factor`` distinct workers (the ring owner plus its
successors), each running an ordinary in-process service for it
(:mod:`repro.serve.worker`).  Big read-only oracles live in *shared memory*
(:mod:`repro.serve.shm`), where replicas and respawned workers re-attach
them instead of rebuilding.

Replication semantics
---------------------

Replicas are deterministic: every replica receives the same graph copy and
the same ``WorkerConfig`` (seeds included), so any replica's answer is
byte-identical to the primary's.  Reads route to the primary and *fail
over* to a live replica when the primary is down or suspect; queries that
were in flight on a dying worker are transparently resubmitted to a
replica (keeping their original submission time, so latency accounting
stays honest) instead of surfacing :class:`WorkerCrashedError`.  Mutations
are applied to **all** replicas in lockstep under a per-graph lock, and the
parent's own copy is updated only after at least one replica acknowledged
-- a crash mid-mutation therefore leaves every survivor (and the parent's
recovery copy) consistently at the same version.

Health-checked membership
-------------------------

A parent-side monitor thread (:class:`HealthPolicy`) pings every worker on
a fixed cadence over the ordinary control pipe.  A worker that misses
``suspect_misses`` consecutive probes is marked *suspect* -- reads route to
its replicas, and ``metrics_snapshot`` stops querying it -- and one that
misses ``dead_misses`` is declared wedged and proactively killed, which
funnels into the ordinary crash-respawn path (so a worker stuck in a loop,
not just a dead one, self-heals without operator action).  The monitor is
the cluster's only liveness rule: a control round-trip waits for its reply
with no timeout of its own, since killing a worker fails every request
pending on it with :class:`WorkerCrashedError`.  Membership is dynamic: :meth:`ClusterService.add_worker` / :meth:`remove_worker` move
only the ring-mandated keys, re-registering them cheaply from the parent's
lockstep copies plus the already-published shared-memory artifacts.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing as mp
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve.faults import FaultInjector, FaultPlan, as_injector
from repro.serve.planner import Query, solve_query
from repro.serve.registry import graph_fingerprint
from repro.serve.service import QueryFrontDoor, QueryTicket
from repro.serve.shm import SharedArtifactStore, ShmArtifactSpec
from repro.serve.worker import RemoteResult, WorkerConfig, worker_main

#: parent-side end-to-end latency window (matches ServiceMetrics)
LATENCY_WINDOW = 8192


class WorkerCrashedError(RuntimeError):
    """A shard process died with this query (or control request) in flight.

    Typed so clients can tell infrastructure loss from computational
    failure: the query itself was fine, the process serving it is gone.
    With replication the cluster resubmits orphaned queries to a live
    replica before ever surfacing this error; it escapes only when no
    replica could take the work (or for control requests, which are not
    idempotent and never fail over silently).
    """


@dataclass(frozen=True)
class HealthPolicy:
    """Cadence and thresholds for the parent-side worker health monitor.

    Defaults are deliberately generous: a worker legitimately blocks its
    message loop for the whole duration of an IPM batch, so the
    suspect/dead ladders are measured in *missed probes*, not wall-clock
    responsiveness alone.  ``suspect_misses`` consecutive unanswered pings
    mark the worker suspect (reads route to replicas); ``dead_misses``
    declare it wedged, after which the monitor kills the process and the
    ordinary crash-respawn path revives the shard.
    """

    #: seconds between probe rounds
    probe_interval_seconds: float = 0.5
    #: consecutive missed probes before the worker is marked *suspect*
    suspect_misses: int = 4
    #: consecutive missed probes before the worker is killed and respawned
    dead_misses: int = 60
    #: seconds after spawn during which missed probes are forgiven -- a
    #: freshly spawned worker spends this long importing before it can
    #: answer anything, and must not be declared wedged for it
    startup_grace_seconds: float = 15.0

    def __post_init__(self):
        if self.probe_interval_seconds <= 0:
            raise ValueError(
                f"probe_interval_seconds must be > 0, got {self.probe_interval_seconds}"
            )
        if self.startup_grace_seconds < 0:
            raise ValueError(
                f"startup_grace_seconds must be >= 0, got {self.startup_grace_seconds}"
            )
        if self.suspect_misses < 1:
            raise ValueError(f"suspect_misses must be >= 1, got {self.suspect_misses}")
        if self.dead_misses < self.suspect_misses:
            raise ValueError(
                f"dead_misses ({self.dead_misses}) must be >= suspect_misses "
                f"({self.suspect_misses})"
            )


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node is hashed at ``replicas`` points on a 64-bit ring; a key is
    owned by the first node point at or after its own hash (wrapping).
    Adding or removing one node therefore only moves the keys adjacent to
    that node's points -- the property that makes shard counts changeable
    without re-homing every graph.  :meth:`owners` generalises ownership to
    the first ``count`` *distinct* nodes along the ring, which is how the
    cluster picks replica sets.
    """

    def __init__(self, nodes: Sequence[str] = (), replicas: int = 64):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._points: List[Tuple[int, str]] = []
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(hashlib.sha256(value.encode()).digest()[:8], "big")

    def add(self, node: str) -> None:
        """Insert ``node`` at its ``replicas`` ring points."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            bisect.insort(self._points, (self._hash(f"{node}#{i}"), node))

    def remove(self, node: str) -> None:
        """Remove ``node``'s ring points (keys re-home to their successors)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(p, n) for p, n in self._points if n != node]

    @property
    def nodes(self) -> Tuple[str, ...]:
        """The current node set, sorted."""
        return tuple(sorted(self._nodes))

    def owners(self, key: str, count: int) -> Tuple[str, ...]:
        """The first ``count`` distinct nodes at/after ``key``'s hash.

        ``owners(key, 1)[0]`` is the node owning ``key`` (first ring point
        at/after its hash); the walk continues clockwise collecting distinct
        nodes, so the result is the replica set for ``key``.  When the ring has fewer than ``count``
        nodes, every node is returned (a cluster smaller than the
        replication factor degrades gracefully).
        """
        if not self._points:
            raise ValueError("hash ring has no nodes")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        count = min(count, len(self._nodes))
        index = bisect.bisect_left(self._points, (self._hash(key), ""))
        found: List[str] = []
        for step in range(len(self._points)):
            node = self._points[(index + step) % len(self._points)][1]
            if node not in found:
                found.append(node)
                if len(found) == count:
                    break
        return tuple(found)


@dataclass
class _GraphRecord:
    """Parent-side state for one registered graph."""

    key: str
    graph: Any  # the parent's lockstep copy (mutations applied on ack)
    fingerprint: str  # registration-time content fingerprint: the shard key
    workers: List[str]  # replica set, primary first (ring order)
    current_fingerprint: str  # fingerprint of the *current* content (post-mutations)
    # serialises mutate / re-register / rebalance per graph; never acquire
    # the cluster lock while *waiting* on this one (always record -> cluster)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class _WorkerHandle:
    """One shard: process, pipe, in-flight tickets, receiver thread."""

    def __init__(self, name: str, process, conn):
        self.name = name
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self._seq = itertools.count()
        self.inflight: Dict[int, QueryTicket] = {}
        self.inflight_lock = threading.Lock()
        # set by the receiver thread once the pipe is gone
        self.down = threading.Event()
        self.receiver: Optional[threading.Thread] = None
        # graph keys whose register round-trip THIS process acknowledged; a
        # respawned replacement starts empty and must not serve a shard's
        # queries until re-registration confirms (else: UnknownGraphError)
        self.registered: set = set()
        # health-monitor state (touched only by the monitor thread)
        self.suspect = False
        self.missed_probes = 0
        self.ping_ticket: Optional[QueryTicket] = None
        self.spawned_at = time.monotonic()
        self.ever_answered = False  # has any ping come back from this process

    @property
    def alive(self) -> bool:
        """Whether the receiver thread still reads this worker's pipe."""
        return not self.down.is_set()

    def send(self, tag: str, *args, ticket: Optional[QueryTicket] = None) -> None:
        """Send ``(tag, seq, *args)`` under a fresh seq; the one pipe send.

        A ``ticket`` is put into ``inflight`` under that seq first, so the
        receiver thread resolves it with the reply -- or, if the worker
        dies, hands it to the orphan path.  Raises
        :class:`WorkerCrashedError` if the shard is down or the pipe breaks,
        after taking the ticket back; a ticket the orphan path already took
        is its to resolve, and the send counts as delivered.
        """
        seq = next(self._seq)
        if ticket is not None:
            with self.inflight_lock:
                self.inflight[seq] = ticket
        try:
            if not self.alive:
                raise WorkerCrashedError(f"worker {self.name!r} is down")
            try:
                with self.send_lock:
                    self.conn.send((tag, seq) + args)
            except (BrokenPipeError, OSError) as error:
                raise WorkerCrashedError(
                    f"worker {self.name!r} pipe closed mid-send"
                ) from error
        except WorkerCrashedError:
            if ticket is None:
                raise
            with self.inflight_lock:
                if self.inflight.pop(seq, None) is None:
                    return
            raise

    def kill(self) -> None:
        """SIGKILL the process; returns once the receiver has marked it down."""
        self.process.kill()
        self.process.join(timeout=10.0)
        self.down.wait(timeout=10.0)

    def retire(self) -> None:
        """Shut the worker down without waiting on any reply.

        Sends ``shutdown``, gives the process 5 s to exit and kills it if
        it has not (a wedged worker never reads the message).  The receiver
        thread then reads the pipe to EOF -- adopting any ``published``
        segment still queued on it -- before the pipe is closed.
        """
        try:
            self.send("shutdown")
        except WorkerCrashedError:
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.kill()
        self.receiver.join(timeout=5.0)
        self.conn.close()


class ClusterService(QueryFrontDoor):
    """Replicated, sharded multi-process front door.

    Spawns ``num_workers`` processes (``spawn`` start method: fork-safety
    with the parent's receiver threads, and identical behaviour across
    platforms and Python versions), each hosting one
    :class:`~repro.serve.service.LaplacianService` configured by
    ``worker_config``.  Each registered graph lives on
    ``replication_factor`` distinct workers; reads fail over between them
    and mutations apply to all of them in lockstep.  ``health`` configures
    the background probe thread, the only thing that kills a wedged
    worker; ``worker_faults`` arms deterministic cluster-level chaos (see
    :meth:`arm_worker_faults`).

    Registered graphs are *copied* into the cluster: the caller's object is
    not referenced afterwards, and all mutations must go through
    :meth:`mutate`.  Use the service as a context manager or call
    :meth:`close`, which also unlinks every shared-memory segment the
    cluster published.
    """

    def __init__(
        self,
        num_workers: int = 4,
        worker_config: Optional[WorkerConfig] = None,
        respawn: bool = True,
        replication_factor: int = 2,
        health: Optional[HealthPolicy] = None,
        worker_faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        self._config = worker_config if worker_config is not None else WorkerConfig()
        self._ctx = mp.get_context("spawn")
        self._lock = threading.RLock()
        self._closed = False
        self.respawn_enabled = respawn
        self.replication_factor = int(replication_factor)
        self.health_policy = health if health is not None else HealthPolicy()
        self._store = SharedArtifactStore()
        self._graphs: Dict[str, _GraphRecord] = {}
        self._workers: Dict[str, _WorkerHandle] = {}
        self.ring = HashRing()
        self._worker_counter = num_workers
        self._worker_injector = as_injector(worker_faults)
        # parent-side counters (worker counters are merged on top)
        self._latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        self._queries_total = 0
        self._failures_total = 0
        self._crashes_total = 0
        self._respawns_total = 0
        self._failovers_total = 0
        self._suspected_total = 0
        self._health_kills_total = 0
        self._recovery_inflight = 0
        for i in range(num_workers):
            name = f"worker-{i}"
            self.ring.add(name)
            self._workers[name] = self._spawn(name)
        self._health_stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._health_loop, name="cluster-health", daemon=True
        )
        self._monitor.start()

    # -- process management ----------------------------------------------------

    def _spawn(self, name: str) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._config),
            name=f"repro-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(name, process, parent_conn)
        handle.receiver = threading.Thread(
            target=self._receive_loop, args=(handle,), name=f"recv-{name}", daemon=True
        )
        handle.receiver.start()
        return handle

    def _receive_loop(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                self._on_worker_down(handle)
                return
            tag = message[0]
            if tag == "published":
                spec: ShmArtifactSpec = message[1]
                self._store.adopt(spec)
                self._share_spec(spec, publisher=handle.name)
            elif tag == "reply":
                _, seq, ok, payload = message
                with handle.inflight_lock:
                    ticket = handle.inflight.pop(seq, None)
                if ticket is None:
                    continue  # fire-and-forget control (adopt/wedge/shutdown)
                if ok:
                    ticket._resolve(payload)
                    if ticket.query is not None:
                        self._latencies.append(time.monotonic() - ticket.submitted_at)
                else:
                    if ticket.query is not None:
                        self._failures_total += 1
                    ticket._fail(payload)

    def _on_worker_down(self, handle: _WorkerHandle) -> None:
        handle.down.set()
        with handle.inflight_lock:
            orphans = list(handle.inflight.values())
            handle.inflight.clear()
            handle.ping_ticket = None
        for ticket in orphans:
            if ticket.done():
                continue
            if ticket.query is not None and self._forward(ticket, exclude=handle.name):
                # transparently failed over to a live replica; the ticket
                # keeps its original submission time for honest latency
                self._failovers_total += 1
                continue
            if ticket.query is not None:
                self._failures_total += 1
            ticket._fail(
                WorkerCrashedError(
                    f"worker {handle.name!r} died with this request in flight"
                )
            )
        with self._lock:
            if self._closed or not self.respawn_enabled:
                return
            if self._workers.get(handle.name) is not handle:
                return  # already respawned (or removed) by another path
            self._crashes_total += 1
            try:
                handle.process.join(timeout=5.0)
            except Exception:
                pass
            replacement = self._spawn(handle.name)
            self._workers[handle.name] = replacement
            self._respawns_total += 1
            records = [
                record
                for record in self._graphs.values()
                if handle.name in record.workers
            ]
            self._recovery_inflight += 1
        # re-register outside the cluster lock: the replacement's receiver
        # thread resolves these control requests
        try:
            for record in records:
                with record.lock:
                    try:
                        self._register_on_worker(replacement, record)
                    except Exception:
                        # the replacement died immediately; its own receiver
                        # loop will run this recovery again
                        return
        finally:
            with self._lock:
                self._recovery_inflight -= 1

    def _forward(self, ticket: QueryTicket, exclude: Optional[str] = None) -> bool:
        """Send a query ticket to the first replica that takes it.

        The one routing loop behind :meth:`submit` and the failover of a
        dead worker's orphans (queries are idempotent reads against
        deterministic replicas).  The ticket object travels unchanged, so
        the caller's ``result()`` wait and the submission time survive the
        hop.  ``exclude`` is the dead worker's *name*: its respawned
        replacement shares it and may not have re-registered yet.
        """
        with self._lock:
            record = self._graphs.get(ticket.query.graph_key)
        if record is None:
            return False
        for handle in self._route(record):
            if handle.name == exclude:
                continue
            try:
                handle.send("query", ticket.query, ticket=ticket)
                return True
            except WorkerCrashedError:
                continue
        return False

    def _register_on_worker(self, handle: _WorkerHandle, record: _GraphRecord) -> None:
        specs = list(
            self._store.specs_for(record.current_fingerprint, record.graph.version)
        )
        self._request(handle, "register", record.key, record.graph, specs)
        handle.registered.add(record.key)

    def _share_spec(self, spec: ShmArtifactSpec, publisher: str) -> None:
        """Offer a freshly published artifact to the other replicas.

        Replicas compute identical artifacts, so the first one to publish
        wins: the others adopt the shared segment (fire-and-forget; the
        worker-side cache swap is idempotent) instead of packing their own.
        Matching is by *current* content fingerprint and live version, so
        artifacts of stale versions are never pushed.
        """
        if self.replication_factor < 2:
            return
        targets: List[_WorkerHandle] = []
        with self._lock:
            seen = set()
            for record in self._graphs.values():
                if record.current_fingerprint != spec.graph_key:
                    continue
                if record.graph.version != spec.version:
                    continue
                for name in record.workers:
                    if name == publisher or name in seen:
                        continue
                    seen.add(name)
                    handle = self._workers.get(name)
                    if handle is not None and handle.alive:
                        targets.append(handle)
        for handle in targets:
            try:
                handle.send("adopt", [spec])
            except WorkerCrashedError:
                continue

    # -- plumbing --------------------------------------------------------------

    def _request(self, handle: _WorkerHandle, tag: str, *args) -> Any:
        """Synchronous control round-trip; waits for the reply, however long.

        Only handles in ``_workers`` are asked, and the health monitor
        probes each of them: a wedged worker is killed there, which fails
        this request with :class:`WorkerCrashedError`.
        """
        ticket = QueryTicket()
        handle.send(tag, *args, ticket=ticket)
        return ticket.result()

    def _record_for(self, graph_key: str) -> _GraphRecord:
        with self._lock:
            record = self._graphs.get(graph_key)
        if record is None:
            raise KeyError(f"unknown graph key {graph_key!r}")
        return record

    def _route(self, record: _GraphRecord) -> List[_WorkerHandle]:
        """Replica handles in preference order: healthy first, suspects last.

        Only replicas whose *current process* has acknowledged the graph's
        registration are eligible: a freshly respawned replacement shares
        its predecessor's name but holds no shards until recovery
        re-registers them, and routing a query there would bounce with
        ``UnknownGraphError`` instead of failing over.
        """
        with self._lock:
            handles = [self._workers.get(name) for name in record.workers]
        live = [
            h
            for h in handles
            if h is not None and h.alive and record.key in h.registered
        ]
        return [h for h in live if not h.suspect] + [h for h in live if h.suspect]

    # -- registration / mutation -----------------------------------------------

    def register(self, graph, name: Optional[str] = None) -> str:
        """Register a graph cluster-wide; returns its stable query handle.

        The graph is copied (the cluster never aliases caller-owned mutable
        state) and shipped to the ``replication_factor`` distinct workers
        that own its content fingerprint on the ring.  Registration
        succeeds if at least one replica accepted the graph (dead replicas
        catch up through the ordinary respawn path).  Re-registering the
        same content under the same name is idempotent; reusing a name for
        different content raises.
        """
        fingerprint = graph_fingerprint(graph)
        key = name if name is not None else fingerprint
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is closed")
            existing = self._graphs.get(key)
            if existing is not None:
                if existing.fingerprint == fingerprint:
                    return key
                raise ValueError(
                    f"graph key {key!r} is already registered with different content"
                )
            owners = self.ring.owners(fingerprint, self.replication_factor)
            record = _GraphRecord(
                key=key,
                graph=graph.copy(),
                fingerprint=fingerprint,
                workers=list(owners),
                current_fingerprint=fingerprint,
            )
            handles = [self._workers[name_] for name_ in owners]
            self._graphs[key] = record
        registered = 0
        try:
            with record.lock:
                for handle in handles:
                    try:
                        self._request(handle, "register", key, record.graph, [])
                    except WorkerCrashedError:
                        continue
                    handle.registered.add(key)
                    registered += 1
        except BaseException:
            with self._lock:
                self._graphs.pop(key, None)
            raise
        if registered == 0:
            with self._lock:
                self._graphs.pop(key, None)
            raise WorkerCrashedError(
                f"no replica accepted graph {key!r} (all owners down)"
            )
        return key

    def mutate(
        self, graph_key: str, op: str, u: int, v: int, weight: Optional[float] = None
    ) -> int:
        """Apply one edge mutation (``op`` in ``"add"``/``"remove"``) to a graph.

        Forwarded to **every** replica in ring order under the graph's
        lock, so replicas see mutations in an identical sequence; the
        parent's lockstep copy is updated once at least one replica
        acknowledged (a crash mid-mutation leaves parent and respawned
        shard consistently together).  Dead replicas are skipped -- they
        catch up wholesale from the parent copy on respawn.  Returns the
        graph's new version.
        """
        record = self._record_for(graph_key)
        with record.lock:
            with self._lock:
                handles = [self._workers.get(name) for name in record.workers]
            version: Optional[int] = None
            crash: Optional[WorkerCrashedError] = None
            applied = 0
            for handle in handles:
                if handle is None or graph_key not in handle.registered:
                    # a respawned replacement that has not re-registered yet
                    # catches up wholesale: recovery ships the parent copy
                    # (which this mutation updates below) under record.lock
                    continue
                try:
                    version = self._request(
                        handle, "mutate", graph_key, op, u, v, weight
                    )
                    applied += 1
                except WorkerCrashedError as error:
                    crash = error
            if applied == 0:
                raise crash if crash is not None else WorkerCrashedError(
                    f"no live replica for graph {graph_key!r}"
                )
            if op == "add":
                record.graph.add_edge(u, v, weight)
            else:
                record.graph.remove_edge(u, v)
            record.current_fingerprint = graph_fingerprint(record.graph)
            return version

    def keys(self) -> List[str]:
        """Handles of every registered graph."""
        with self._lock:
            return list(self._graphs)

    def shard_of(self, graph_key: str) -> str:
        """Name of the *primary* worker for ``graph_key``."""
        return self._record_for(graph_key).workers[0]

    def replicas_of(self, graph_key: str) -> Tuple[str, ...]:
        """Replica set of ``graph_key``, primary first (ring order)."""
        return tuple(self._record_for(graph_key).workers)

    # -- membership ------------------------------------------------------------

    def add_worker(self, name: Optional[str] = None) -> List[str]:
        """Spawn a new worker and rebalance; returns the moved graph keys.

        The new worker joins the ring, and only the graphs whose replica
        set the ring now assigns differently are touched: gained replicas
        are registered from the parent's lockstep copy plus the
        already-published shared-memory artifacts (re-attach, not rebuild),
        lost replicas are unregistered.  Names auto-increment unless given.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is closed")
            if name is None:
                name = f"worker-{self._worker_counter}"
                self._worker_counter += 1
            if name in self._workers:
                raise ValueError(f"worker {name!r} already exists")
            self._workers[name] = self._spawn(name)
            self.ring.add(name)
            records = list(self._graphs.values())
        moved = []
        for record in records:
            if self._rebalance_record(record):
                moved.append(record.key)
        return moved

    def remove_worker(self, name: str) -> List[str]:
        """Retire one worker and rebalance; returns the moved graph keys.

        The worker keeps serving while its keys are re-homed, then retires
        without waiting on a reply (a wedged one is killed after 5 s).
        Removing the last worker raises.
        """
        with self._lock:
            if name not in self._workers:
                raise KeyError(f"unknown worker {name!r}")
            if len(self._workers) == 1:
                raise ValueError("cannot remove the last worker")
            self.ring.remove(name)
            records = [r for r in self._graphs.values() if name in r.workers]
        moved = [record.key for record in records if self._rebalance_record(record)]
        with self._lock:
            handle = self._workers.pop(name)
        handle.retire()
        return moved

    def _rebalance_record(self, record: _GraphRecord) -> bool:
        """Bring one graph's replica placement in line with the ring."""
        with record.lock:
            with self._lock:
                new_owners = list(
                    self.ring.owners(record.fingerprint, self.replication_factor)
                )
                old_owners = list(record.workers)
                gained = [n for n in new_owners if n not in old_owners]
                lost = [n for n in old_owners if n not in new_owners]
                gained_handles = [
                    self._workers[n] for n in gained if n in self._workers
                ]
                lost_handles = [self._workers[n] for n in lost if n in self._workers]
            for handle in gained_handles:
                try:
                    self._register_on_worker(handle, record)
                except WorkerCrashedError:
                    pass  # the respawn path re-registers
            record.workers = new_owners
            for handle in lost_handles:
                handle.registered.discard(record.key)
                try:
                    self._request(handle, "unregister", record.key)
                except Exception:
                    pass
            return bool(gained or lost)

    # -- health monitoring -----------------------------------------------------

    def _health_loop(self) -> None:
        interval = self.health_policy.probe_interval_seconds
        while not self._health_stop.wait(interval):
            with self._lock:
                if self._closed:
                    return
                handles = sorted(self._workers.values(), key=lambda h: h.name)
            for handle in handles:
                try:
                    self._probe(handle)
                except Exception:
                    continue

    def _probe(self, handle: _WorkerHandle) -> None:
        """One monitor tick for one worker: chaos, ping accounting, ladder."""
        if not handle.alive or not handle.process.is_alive():
            return
        injector = self._worker_injector
        if injector.worker_kill(handle.name):
            handle.kill()
            return
        wedge_seconds = injector.worker_wedge(handle.name)
        if wedge_seconds is not None:
            try:
                handle.send("wedge", float(wedge_seconds))
            except WorkerCrashedError:
                return
        policy = self.health_policy
        in_grace = (
            not handle.ever_answered
            and time.monotonic() - handle.spawned_at < policy.startup_grace_seconds
        )
        ticket = handle.ping_ticket
        if ticket is not None:
            if ticket.done():
                handle.ping_ticket = None
                ok = ticket._error is None
                if ok:
                    handle.ever_answered = True
                if ok and injector.drop_ping(handle.name):
                    ok = False  # chaos: pretend the heartbeat was lost
                if ok:
                    handle.missed_probes = 0
                    handle.suspect = False
                elif not in_grace:
                    handle.missed_probes += 1
            elif not in_grace:
                handle.missed_probes += 1
        if handle.missed_probes >= policy.dead_misses:
            # wedged, not crashed: kill it so the pipe EOF drives respawn
            self._health_kills_total += 1
            handle.kill()
            return
        if handle.missed_probes >= policy.suspect_misses and not handle.suspect:
            handle.suspect = True
            self._suspected_total += 1
        if handle.ping_ticket is None:
            ticket = QueryTicket()
            try:
                handle.send("ping", ticket=ticket)
            except WorkerCrashedError:
                return
            handle.ping_ticket = ticket

    def arm_worker_faults(
        self, plan: Optional[Union[FaultPlan, FaultInjector]] = None
    ) -> FaultInjector:
        """Install (or clear) the worker-scoped chaos injector.

        Accepts a :class:`~repro.serve.faults.FaultPlan` (wrapped in a
        fresh injector), an armed :class:`~repro.serve.faults.FaultInjector`
        (used as-is, so tests can inspect ``fired_total``), or ``None`` to
        disarm.  The monitor thread consults it once per worker per probe
        tick, in sorted worker order, so a seeded plan produces a
        deterministic fault schedule.
        """
        self._worker_injector = as_injector(plan)
        return self._worker_injector

    def wedge_worker(self, name: str, seconds: float) -> None:
        """Make one worker sleep in its message loop (health-monitor drills).

        The worker stops answering pings (and everything else) for
        ``seconds``; a duration past the monitor's dead threshold gets it
        killed and respawned, exactly like a real wedge.
        """
        with self._lock:
            handle = self._workers[name]
        handle.send("wedge", float(seconds))

    # -- submission ------------------------------------------------------------

    def submit(self, query: Query) -> QueryTicket:
        """Forward ``query`` to a replica of its graph; returns a ticket.

        Routes to the primary, failing over to live replicas when the
        primary is down or suspect; raises :class:`WorkerCrashedError` if
        no replica takes it.  A submission counts in ``queries_total`` once
        it has reached a replica, exactly once however many were tried.
        """
        self._record_for(query.graph_key)  # unknown key: KeyError
        ticket = QueryTicket(query)
        if not self._forward(ticket):
            raise WorkerCrashedError(
                f"no live replica for graph {query.graph_key!r} (respawn pending)"
            )
        self._queries_total += 1
        return ticket

    def _submit_and_wait(self, query: Query) -> RemoteResult:
        return self.submit(query).result(timeout=None)

    # -- front doors (the rest: QueryFrontDoor) ---------------------------------

    def solve_many(self, graph_key: str, rhs: Sequence[np.ndarray], eps: float = 1e-6):
        """Solve many right-hand sides; they coalesce into one shard batch."""
        tickets = [self.submit(solve_query(graph_key, b, eps=eps)) for b in rhs]
        return [t.result().value for t in tickets]

    # -- metrics / lifecycle ---------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Cluster-wide metrics: merged worker counters + parent-side view.

        Numeric counters are summed across workers, ``by_kind`` dicts merged
        by summation; ``latency_seconds`` is the *parent-side end-to-end*
        percentile view (pipe + queue + compute), which is what a client
        experiences.  Per-worker snapshots ride along under ``per_worker``
        for drill-down.  Dead and *suspect* workers are skipped (a suspect
        worker is by definition slow to answer control requests; its state
        shows up in ``workers_suspect`` instead).
        """
        per_worker: List[Dict[str, Any]] = []
        with self._lock:
            handles = list(self._workers.values())
        for handle in handles:
            if not handle.alive or handle.suspect:
                continue
            try:
                snapshot = self._request(handle, "metrics")
            except WorkerCrashedError:
                continue
            snapshot["worker"] = handle.name
            per_worker.append(snapshot)
        merged: Dict[str, Any] = {
            "workers": len(handles),
            "replication_factor": self.replication_factor,
            "queries_total": self._queries_total,
            "failures_total": self._failures_total,
            "failover_resubmits": self._failovers_total,
            "worker_crashes": self._crashes_total,
            "worker_respawns": self._respawns_total,
            "workers_suspected_total": self._suspected_total,
            "workers_suspect": sum(1 for h in handles if h.alive and h.suspect),
            "health_kills": self._health_kills_total,
            "registered_graphs": len(self._graphs),
            "shm_segments": len(self._store.owned_specs()),
        }
        for counter in ("batches_total", "cache_entries", "cache_bytes"):
            merged[counter] = sum(int(s.get(counter, 0)) for s in per_worker)
        by_kind: Dict[str, int] = {}
        for snapshot in per_worker:
            for kind, count in snapshot.get("queries_by_kind", {}).items():
                by_kind[kind] = by_kind.get(kind, 0) + count
        merged["queries_by_kind"] = by_kind
        latencies = np.asarray(self._latencies, dtype=float)
        if latencies.size:
            merged["latency_seconds"] = {
                "p50": float(np.percentile(latencies, 50)),
                "p90": float(np.percentile(latencies, 90)),
                "p99": float(np.percentile(latencies, 99)),
            }
        else:
            merged["latency_seconds"] = {"p50": 0.0, "p90": 0.0, "p99": 0.0}
        merged["per_worker"] = per_worker
        return merged

    def kill_worker(self, name: str) -> None:
        """Hard-kill one shard process (crash-recovery tests and drills).

        Returns once the receiver thread has marked the worker down, so the
        next submission already routes around it.  That thread resubmits
        the shard's in-flight queries to live replicas (failing over
        transparently) and -- when respawning is enabled -- brings up a
        replacement that re-registers the shard's graphs and re-attaches
        its shared artifacts.
        """
        with self._lock:
            handle = self._workers[name]
        handle.kill()

    def wait_recovered(self, timeout: float = 30.0) -> bool:
        """Block until every shard is alive *and* fully re-registered.

        Returns ``False`` on timeout.  "Recovered" means every worker
        process is running and no crash-recovery re-registration is still
        in flight, so the full graph set serves again.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                handles = list(self._workers.values())
                recovering = self._recovery_inflight
            if recovering == 0 and all(
                h.alive and h.process.is_alive() for h in handles
            ):
                return True
            time.sleep(0.05)
        return False

    def close(self) -> None:
        """Retire every worker and unlink all shared-memory segments.

        Never waits on a reply: a wedged worker is killed after 5 s.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._workers.values())
        self._health_stop.set()
        self._monitor.join(timeout=5.0)
        for handle in handles:
            handle.retire()
        self._store.close(unlink=True)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
