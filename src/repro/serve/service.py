"""`LaplacianService`: the synchronous front door of the serving layer.

Register a graph once, then query it many times -- the service holds the
:class:`~repro.serve.registry.GraphRegistry`, the
:class:`~repro.serve.artifacts.ArtifactCache` and the
:class:`~repro.serve.planner.QueryPlanner` together behind a thread-safe
submission queue:

* ``submit(query)`` enqueues and returns a :class:`QueryTicket` immediately;
  the queue flushes when ``FlushPolicy.max_batch`` queries are pending or
  ``FlushPolicy.max_wait_seconds`` after the oldest pending arrival (a
  background flusher thread enforces the deadline), coalescing whatever is
  pending into blocked kernel calls.
* the synchronous conveniences (``solve``, ``solve_many``,
  ``effective_resistance``, ``effective_resistances``, ``certify``) submit and
  flush in one call -- single-client code pays no latency for the queue while
  still sharing artifacts (and batches, when several threads are in flight)
  with everyone else.

Metrics: :meth:`LaplacianService.metrics` reports cache hit rate, batch
occupancy (mean coalesced batch size), per-query latency percentiles, and the
raw cache counters -- the numbers a capacity dashboard would scrape.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.artifacts import ArtifactCache
from repro.serve.faults import FaultInjector
from repro.serve.planner import (
    CertificationReport,
    Query,
    QueryBatch,
    QueryPlanner,
    QueryResult,
    certify_query,
    flow_query,
    query_kind,
    resistance_batch_query,
    resistance_query,
    solve_query,
)
from repro.serve.registry import GraphRegistry
from repro.serve.resilience import (
    DeadlineExceededError,
    DrainRateTracker,
    HealthStats,
    ResiliencePolicy,
    call_with_retries,
    estimate_retry_after,
)
from repro.solvers.laplacian import LaplacianSolveReport


class ServiceOverloadedError(RuntimeError):
    """The submission queue is at ``FlushPolicy.max_pending``; shed load.

    Raised by :meth:`LaplacianService.submit` *before* the query is enqueued:
    the caller's work is rejected intact (no half-registered ticket), and a
    well-behaved client backs off and retries.  Rejections are counted in
    ``metrics_snapshot()["rejected_total"]``.

    ``retry_after_seconds`` is the server's backpressure hint: the current
    queue depth divided by the observed drain rate (see
    :func:`~repro.serve.resilience.estimate_retry_after`), i.e. how long the
    backlog is expected to take to clear.  The in-process queue is the only
    thing that sheds (behind a cluster, a worker's queue sheds and the error
    reaches the ticket); ``None`` means the shedding side had no estimate
    and the client falls back to its own backoff.
    """

    def __init__(self, message: str, retry_after_seconds: Optional[float] = None):
        super().__init__(message)
        #: server-computed backoff hint in seconds, or ``None`` if unknown
        self.retry_after_seconds = retry_after_seconds


@dataclass(frozen=True)
class FlushPolicy:
    """When the submission queue drains into the planner.

    ``max_batch`` bounds occupancy (a flush fires as soon as that many
    queries are pending); ``max_wait_seconds`` bounds latency (the background
    flusher drains the queue that long after the oldest pending arrival, even
    if the batch is not full); ``max_pending`` bounds the queue itself --
    admission control: once that many queries are pending (e.g. because
    producers outrun the planner), further submissions raise
    :class:`ServiceOverloadedError` instead of growing the queue without
    bound.  ``None`` keeps the historical unbounded behaviour.
    """

    max_batch: int = 64
    max_wait_seconds: float = 0.01
    max_pending: Optional[int] = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_seconds < 0:
            raise ValueError(
                f"max_wait_seconds must be >= 0, got {self.max_wait_seconds}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")


class QueryTicket:
    """Handle for one submitted query; blocks on :meth:`result`.

    Both front doors return it.  The cluster also tracks its control
    requests (register, ping, ...) with one, ``query=None``.
    """

    def __init__(self, query: Optional[Query] = None):
        self.query = query
        #: monotonic submission timestamp; deadlines are measured from here
        self.submitted_at = time.monotonic()
        self._event = threading.Event()
        self._result: Optional[QueryResult] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether the query has finished (successfully or with an error)."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """The :class:`QueryResult`, waiting for the flush if necessary."""
        if not self._event.wait(timeout):
            what = "control request" if self.query is None else f"query {self.query.query_id}"
            raise TimeoutError(f"{what} not finished within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _resolve(self, result: QueryResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class ServiceMetrics:
    """Aggregated serving metrics (thread-safe)."""

    #: retain at most this many recent latency samples for the percentiles
    LATENCY_WINDOW = 8192

    def __init__(self):
        self._lock = threading.Lock()
        self.queries_total = 0
        self.batches_total = 0
        self.coalesced_queries = 0
        self.rejected_total = 0
        self.failures_total = 0
        self.queries_by_kind: Dict[str, int] = {}
        self.failures_by_kind: Dict[str, int] = {}
        self._latencies: List[float] = []

    def observe_rejection(self) -> None:
        """Count one submission shed by admission control."""
        with self._lock:
            self.rejected_total += 1

    def observe(self, results: Sequence[QueryResult], batches: int) -> None:
        """Fold one flush's results into the counters and latency window."""
        with self._lock:
            self.queries_total += len(results)
            self.batches_total += batches
            self.coalesced_queries += sum(1 for r in results if r.batch_size > 1)
            for result in results:
                kind = result.query.kind
                self.queries_by_kind[kind] = self.queries_by_kind.get(kind, 0) + 1
                self._latencies.append(result.seconds)
            if len(self._latencies) > self.LATENCY_WINDOW:
                del self._latencies[: len(self._latencies) - self.LATENCY_WINDOW]

    def observe_failures(self, failed: Sequence[Tuple[Query, float]]) -> None:
        """Fold one flush's *failed* queries into the metrics.

        Failed queries used to be invisible here, which made the latency
        percentiles lie under fault load (the slowest queries -- the failing
        ones -- were exactly the ones dropped from the window).  Each entry
        is ``(query, seconds)`` with the per-query share of the wall-clock
        spent before the failure surfaced; the latency lands in the same
        window the percentiles read.  ``queries_total`` still counts only
        successful queries -- ``failures_total`` is the separate ledger.
        """
        with self._lock:
            self.failures_total += len(failed)
            for query, seconds in failed:
                kind = query.kind
                self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1
                self._latencies.append(seconds)
            if len(self._latencies) > self.LATENCY_WINDOW:
                del self._latencies[: len(self._latencies) - self.LATENCY_WINDOW]

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p90/p99 over the retained window of per-query latencies."""
        with self._lock:
            samples = list(self._latencies)
        if not samples:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0}
        p50, p90, p99 = np.percentile(samples, [50, 90, 99])
        return {"p50": float(p50), "p90": float(p90), "p99": float(p99)}

    @property
    def batch_occupancy(self) -> float:
        """Mean queries per executed flush batch (1.0 = no coalescing)."""
        with self._lock:
            if self.batches_total == 0:
                return 0.0
            return self.queries_total / self.batches_total


class QueryFrontDoor:
    """The synchronous conveniences shared by every serving front door.

    One definition for :class:`LaplacianService` and
    :class:`~repro.serve.cluster.ClusterService`: each method builds its
    query and returns the ``.value`` of what the host's
    ``_submit_and_wait(query)`` resolves to (a ``QueryResult`` in-process, a
    ``RemoteResult`` from a shard).  ``solve_many`` stays per class: the
    in-process one drains its own queue on overload.
    """

    def solve(self, graph_key: str, b: np.ndarray, eps: float = 1e-6) -> LaplacianSolveReport:
        """Solve ``L_G x = b`` on the registered graph (coalesced if possible)."""
        return self._submit_and_wait(solve_query(graph_key, b, eps=eps)).value

    def effective_resistance(
        self, graph_key: str, u: int, v: int, eta: Optional[float] = None
    ) -> float:
        """Effective resistance between two vertices of a registered graph.

        ``eta=None`` demands the exact value.  A float in ``(0, 1)`` accepts
        a ``(1 +/- eta)``-approximate answer, which lets graphs above the
        dense-oracle gate serve from the cached JL-sketched oracle in O(k)
        instead of a triangular solve; below the gate exact answers are
        served either way.  Approximate queries never share a batch with
        exact ones.
        """
        return self._submit_and_wait(resistance_query(graph_key, u, v, eta=eta)).value

    def effective_resistances(
        self, graph_key: str, pairs: Iterable[Tuple[int, int]], eta: Optional[float] = None
    ) -> np.ndarray:
        """Batched effective resistances: one queue entry, one kernel call.

        ``eta`` as in :meth:`effective_resistance`; the accuracy bound
        applies to every pair of the batch.
        """
        pair_list = list(pairs)
        if not pair_list:
            return np.zeros(0)
        return np.asarray(
            self._submit_and_wait(
                resistance_batch_query(graph_key, pair_list, eta=eta)
            ).value
        )

    def certify(self, graph_key: str, eps: float = 0.5) -> CertificationReport:
        """Certify the cached sparsifier of the graph (Definition 2.1)."""
        return self._submit_and_wait(certify_query(graph_key, eps=eps)).value

    def min_cost_flow(
        self,
        graph_key: str,
        seed: Optional[int] = None,
        memoise_result: bool = False,
    ):
        """Exact min-cost max-flow of a registered ``FlowNetwork``.

        The pipeline consumes one cached serving artifact -- the compiled
        Gram structure every Newton step's ``A^T D A`` factorisation
        scatters into -- so repeated solves on the same network skip that
        preprocessing.  Returns the same
        :class:`~repro.flow.mincostflow.MinCostFlowResult` as the direct
        path, with :attr:`~repro.flow.mincostflow.MinCostFlowResult.gram_stats`
        describing how the bridge served the run.

        ``memoise_result=True`` additionally caches the final result under
        the network's content identity, so repeat queries on an unchanged
        network skip the IPM entirely (read-heavy traffic).
        """
        return self._submit_and_wait(
            flow_query(graph_key, seed=seed, memoise_result=memoise_result)
        ).value


class LaplacianService(QueryFrontDoor):
    """Batched Laplacian query service over registered graphs.

    Parameters mirror :class:`BCCLaplacianSolver` preprocessing knobs
    (``solver_seed``, ``t_override``, ``bundle_scale``); they are
    part of every artifact's cache identity, so two services sharing one
    cache but configured differently never alias artifacts.

    ``auto_flush=False`` disables the background deadline flusher (useful in
    tests and single-threaded scripts where every public method flushes
    synchronously anyway).

    ``resilience=`` takes a :class:`~repro.serve.resilience.ResiliencePolicy`
    (per-query deadline, transient-failure retries, circuit-breaker
    threshold/TTL); :meth:`arm_faults` arms a
    :class:`~repro.serve.faults.FaultPlan` for deterministic failure drills.
    Failure semantics -- batch bisection, the
    degradation ladder, numerical-health refusal -- are documented in
    ``docs/resilience.md``.

    ``repair=True`` (the default) lets the planner absorb short mutation
    deltas of a registered graph -- read from the graph's journal via
    :meth:`~repro.graphs.graph.WeightedGraph.delta_since` -- into the cached
    artifact stack with low-rank updates instead of rebuilding it from
    scratch.  Repair is *lazy*: detecting a mutation only stashes the delta
    in the cache's pending ledger (``metrics_snapshot()`` reports the ledger
    depth as ``pending_repairs``); each stale artifact pays its own repair on
    its first post-mutation lookup, and an artifact never looked up again
    never pays at all.  ``repair=False`` restores unconditional
    invalidate-and-rebuild.  Either way the staleness contract is identical:
    a query observing a mutated graph is always answered against the
    *current* content.

    Thread-safety: ``submit``/``flush`` and every synchronous front door may
    be called from any number of threads; queries are validated at submit
    time, execution (including artifact repair) is serialised behind one
    execute lock, and results travel on per-query tickets.  Mutating a
    registered ``WeightedGraph`` itself is *not* thread-safe against
    concurrent queries of that graph -- mutate from one thread, or fence
    mutations with your own lock; the service then detects the version bump
    on the next flush.
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        flush_policy: Optional[FlushPolicy] = None,
        solver_seed: Optional[int] = 0,
        t_override: Optional[int] = None,
        bundle_scale: float = 1.0,
        auto_flush: bool = True,
        repair: bool = True,
        resilience: Optional[ResiliencePolicy] = None,
    ):
        self.registry = GraphRegistry()
        self.cache = cache if cache is not None else ArtifactCache()
        self.flush_policy = flush_policy if flush_policy is not None else FlushPolicy()
        #: failure-containment knobs (deadline, retries, breaker); shared
        #: with the planner so service and planner can never disagree
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        #: resilience counters (retries/breaker/degradations/deadline misses)
        self.health = HealthStats()
        self.planner = QueryPlanner(
            self.registry,
            self.cache,
            solver_seed=solver_seed,
            t_override=t_override,
            bundle_scale=bundle_scale,
            repair_enabled=repair,
            resilience=self.resilience,
            health=self.health,
        )
        self.metrics = ServiceMetrics()
        # retry jitter for batch execution; offset from the planner's stream
        # so build retries and batch retries draw independent sequences
        self._retry_rng = np.random.default_rng(self.resilience.seed + 1)
        self._pending: List[Tuple[Query, QueryTicket]] = []
        #: observed flush throughput, for the retry-after hint on shed
        self._drain = DrainRateTracker()
        self._oldest_pending: Optional[float] = None
        self._lock = threading.RLock()
        self._execute_lock = threading.Lock()
        self._auto_flush = auto_flush
        self._flusher: Optional[threading.Thread] = None
        self._wakeup = threading.Event()
        self._closed = False

    # -- registration ----------------------------------------------------------

    def register(self, graph, name: Optional[str] = None) -> str:
        """Register a graph and return its stable query handle.

        Accepts the undirected :class:`~repro.graphs.graph.WeightedGraph`
        (solve/resistance/certify workloads) and the directed
        :class:`~repro.graphs.digraph.FlowNetwork` (flow workloads);
        both are content-fingerprinted the same way.
        """
        return self.registry.register(graph, name=name)

    # -- asynchronous submission -----------------------------------------------

    def submit(self, query: Query) -> QueryTicket:
        """Enqueue ``query``; returns immediately with a ticket.

        Malformed queries (unknown graph or kind, wrong right-hand-side shape,
        out-of-range vertices, non-finite inputs) are rejected here, before
        they can coalesce with -- and fail -- other clients' queries in a
        shared batch: submit time is the only place the blast radius is still
        one client.  When
        ``flush_policy.max_pending`` is set and the queue is full, the
        submission is shed with :class:`ServiceOverloadedError` (counted in
        the metrics) instead of growing the queue without bound.

        Triggers an inline flush when the pending count reaches
        ``flush_policy.max_batch``; otherwise the background flusher (or the
        next synchronous call) picks the query up within
        ``flush_policy.max_wait_seconds``.
        """
        # UnknownGraphError (a KeyError subclass) for an unknown key, ValueError
        # for an unknown kind or a payload the kind's validator refuses
        entry = self.registry.get(query.graph_key)
        query_kind(query.kind).validate(entry.graph, query.payload)
        ticket = QueryTicket(query)
        max_pending = self.flush_policy.max_pending
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if max_pending is not None and len(self._pending) >= max_pending:
                self.metrics.observe_rejection()
                retry_after = estimate_retry_after(
                    len(self._pending), self._drain.rate()
                )
                raise ServiceOverloadedError(
                    f"submission queue is full ({len(self._pending)} pending >= "
                    f"max_pending={max_pending}); retry in ~{retry_after:.3f}s",
                    retry_after_seconds=retry_after,
                )
            self._pending.append((query, ticket))
            if self._oldest_pending is None:
                self._oldest_pending = time.monotonic()
            pending = len(self._pending)
            if self._auto_flush and self._flusher is None:
                self._start_flusher_locked()
        if pending >= self.flush_policy.max_batch:
            self.flush()
        elif self._auto_flush:
            self._wakeup.set()
        return ticket

    def flush(self) -> int:
        """Drain the queue through the planner; return #queries flushed.

        Failure containment: a batch that raises is *bisected* -- split in
        half and re-executed -- so exactly the poisoned queries fail with
        the error that named them and every innocent neighbour still
        resolves (see :meth:`_run_batch`).  With a deadline configured,
        queries that expired while queued fail fast with
        :class:`DeadlineExceededError`; queries whose results arrive late
        still resolve (the miss is counted in ``deadline_misses``).
        """
        with self._lock:
            drained = self._pending
            self._pending = []
            self._oldest_pending = None
        if not drained:
            return 0
        tickets = {query.query_id: ticket for query, ticket in drained}
        queries = [query for query, _ in drained]
        failed: List[Tuple[Query, float]] = []
        try:
            with self._execute_lock:
                batches = self.planner.plan(queries)
                results: List[QueryResult] = []
                for batch in batches:
                    self._run_batch(batch, tickets, results, failed)
        except BaseException as error:
            # KeyboardInterrupt/SystemExit: unblock every waiter, then let
            # the interrupt propagate instead of executing remaining batches
            for _, ticket in drained:
                if not ticket.done():
                    ticket._fail(error)
            raise
        deadline = self.resilience.deadline_seconds
        now = time.monotonic()
        for result in results:
            ticket = tickets[result.query.query_id]
            if deadline is not None and now - ticket.submitted_at > deadline:
                # late but computed: resolve anyway, count the miss
                self.health.increment("deadline_misses")
            ticket._resolve(result)
        self.metrics.observe(results, batches=len(batches))
        if failed:
            self.metrics.observe_failures(failed)
        self._drain.observe(len(queries))
        return len(queries)

    def _run_batch(
        self,
        batch: QueryBatch,
        tickets: Dict[int, QueryTicket],
        results: List[QueryResult],
        failed: List[Tuple[Query, float]],
    ) -> None:
        """Execute one batch with deadline, retry, and bisection containment.

        Queries already past the deadline fail *before* execution (no work
        wasted on an answer nobody is waiting for).  The batch then executes
        with the policy's transient-failure retries; if it still raises and
        holds more than one query, it splits in half and both halves
        re-execute recursively -- artifact builds are cached/warm by then, so
        re-execution costs kernel time only, and after ``O(log size)`` rounds
        exactly the poisoned queries have failed with the error that named
        them.  A single-query batch fails normally: its ticket gets the
        original error and there is no further recursion.
        """
        deadline = self.resilience.deadline_seconds
        if deadline is not None:
            now = time.monotonic()
            live = []
            for query in batch.queries:
                if now - tickets[query.query_id].submitted_at > deadline:
                    self.health.increment("deadline_misses")
                    tickets[query.query_id]._fail(
                        DeadlineExceededError(
                            f"query {query.query_id} exceeded its "
                            f"{deadline}s deadline before execution"
                        )
                    )
                    failed.append((query, 0.0))
                else:
                    live.append(query)
            if not live:
                return
            if len(live) < len(batch.queries):
                batch = QueryBatch(
                    batch.graph_key, batch.kind, batch.coalesce_params, live
                )
        start = time.perf_counter()
        try:
            batch_results = call_with_retries(
                lambda: self.planner.execute_batch(batch),
                self.resilience,
                self._retry_rng,
                health=self.health,
            )
        except Exception as error:
            elapsed = time.perf_counter() - start
            if batch.size == 1:
                query = batch.queries[0]
                tickets[query.query_id]._fail(error)
                failed.append((query, elapsed))
                return
            mid = batch.size // 2
            for half in (batch.queries[:mid], batch.queries[mid:]):
                self._run_batch(
                    QueryBatch(batch.graph_key, batch.kind, batch.coalesce_params, half),
                    tickets,
                    results,
                    failed,
                )
            return
        results.extend(batch_results)

    # -- synchronous front door (the rest: QueryFrontDoor) ---------------------

    def solve_many(
        self, graph_key: str, rhs: Sequence[np.ndarray], eps: float = 1e-6
    ) -> List[LaplacianSolveReport]:
        """Solve many right-hand sides as one blocked batch.

        A bulk call larger than ``flush_policy.max_pending`` must not shed
        its own tail (the head would be computed and thrown away), so when a
        submission hits the admission bound the helper drains the queue and
        re-submits -- the work proceeds in queue-capacity chunks.  A second
        rejection right after a flush is genuine overload from concurrent
        producers and propagates.
        """
        tickets = []
        for b in rhs:
            query = solve_query(graph_key, b, eps=eps)
            try:
                tickets.append(self.submit(query))
            except ServiceOverloadedError:
                self.flush()
                tickets.append(self.submit(query))
        self.flush()
        return [t.result().value for t in tickets]

    def _submit_and_wait(self, query: Query) -> QueryResult:
        ticket = self.submit(query)
        self.flush()
        # the flush may have raced another thread's; wait for whichever ran it
        return ticket.result(timeout=None)

    # -- fault injection -------------------------------------------------------

    def arm_faults(self, faults) -> FaultInjector:
        """Arm a :class:`~repro.serve.faults.FaultPlan` on this service.

        Accepts a plan, a pre-built
        :class:`~repro.serve.faults.FaultInjector`, or ``None`` to disarm;
        returns the active injector so callers can read fire counters
        (``fired_total``, :meth:`~repro.serve.faults.FaultInjector.fire_counts`).
        Faults only fire at the planner's seams -- builds, batch execution,
        repair walks, output poisoning -- so an armed production service
        degrades exactly the way the chaos suite proves it does.
        """
        return self.planner.arm_faults(faults)

    # -- metrics / lifecycle ---------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One dict with everything a dashboard would scrape.

        Includes the resilience ledger: ``failures_total`` /
        ``failures_by_kind`` (queries whose tickets got an error),
        ``retries_total``, ``breaker_open_total``, ``degraded_total`` and
        ``deadline_misses`` (see :class:`~repro.serve.resilience.HealthStats`).
        """
        cache_stats = self.cache.stats
        snapshot = {
            "queries_total": self.metrics.queries_total,
            "rejected_total": self.metrics.rejected_total,
            "failures_total": self.metrics.failures_total,
            "failures_by_kind": dict(self.metrics.failures_by_kind),
            "batches_total": self.metrics.batches_total,
            "batch_occupancy": self.metrics.batch_occupancy,
            "queries_by_kind": dict(self.metrics.queries_by_kind),
            "latency_seconds": self.metrics.latency_percentiles(),
            "cache": cache_stats.as_dict(),
            "cache_entries": len(self.cache),
            "cache_bytes": self.cache.total_bytes,
            "pending_repairs": self.cache.pending_repairs,
            "registered_graphs": len(self.registry),
        }
        snapshot.update(self.health.as_dict())
        return snapshot

    def close(self) -> None:
        """Flush outstanding queries and stop the background flusher."""
        with self._lock:
            self._closed = True
        self._wakeup.set()
        self.flush()
        flusher = self._flusher
        if flusher is not None:
            flusher.join(timeout=1.0)

    def __enter__(self) -> "LaplacianService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- background flusher ----------------------------------------------------

    def _start_flusher_locked(self) -> None:
        self._flusher = threading.Thread(
            target=self._flusher_loop, name="laplacian-service-flusher", daemon=True
        )
        self._flusher.start()

    def _flusher_loop(self) -> None:
        max_wait = self.flush_policy.max_wait_seconds
        while True:
            self._wakeup.wait(timeout=max_wait if max_wait > 0 else None)
            with self._lock:
                if self._closed:
                    return
                self._wakeup.clear()
                oldest = self._oldest_pending
            if oldest is None:
                continue
            deadline = oldest + max_wait
            now = time.monotonic()
            if now < deadline:
                time.sleep(deadline - now)
            self.flush()
