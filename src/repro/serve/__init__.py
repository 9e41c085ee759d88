"""Serving layer: register graphs once, answer many queries cheaply.

The paper's economics -- one expensive preprocessing pass (sparsifier +
factorisation) amortised over many cheap solves -- only pays off if something
*holds on to* the preprocessing between queries.  This package is that
something:

* :mod:`repro.serve.registry` -- content-fingerprinted graph handles with
  mutation (version) tracking, so stale artifacts are detected, not served.
* :mod:`repro.serve.artifacts` -- byte-accounted LRU cache of sparsifiers,
  grounded factorisations and solver preprocessing, with a pending-delta
  ledger (:meth:`ArtifactCache.defer_repair`) from which a mutated graph's
  artifacts migrate to its new identity one by one, each on its first
  lookup, via the artifact's own ``apply_delta`` instead of a rebuild.
* :mod:`repro.serve.planner` -- coalesces heterogeneous queries into the
  blocked ``solve_many`` / batched effective-resistance kernels, with
  eps-aware routing of resistance queries (exact dense oracle below the
  size gate, JL-sketched oracle for ``eta``-bounded queries above it, splu
  fallback until a sketch build has amortised), one ``kind -> (validate,
  coalesce, execute)`` table for the query kinds, and lazy artifact repair
  for short mutation deltas (what each artifact absorbs is decided by its
  own ``apply_delta``, not by the planner).
* :mod:`repro.serve.service` -- the :class:`LaplacianService` front door:
  thread-safe submission queue, flush policy with admission control
  (``max_pending`` -> :class:`ServiceOverloadedError`), serving metrics,
  ``repair=`` knob.
* :mod:`repro.serve.resilience` -- failure containment:
  :class:`ResiliencePolicy` (deadlines, transient-failure retries with
  backoff, circuit-breaker knobs), the per-artifact :class:`CircuitBreaker`,
  health counters, and the typed errors clients observe
  (:class:`DeadlineExceededError`, :class:`ArtifactBreakerOpenError`,
  :class:`NumericalHealthError`).  Batches that raise are *bisected* by the
  service so only the poisoned queries fail.
* :mod:`repro.serve.faults` -- deterministic fault injection
  (:class:`FaultPlan` / :class:`FaultInjector`, armed via
  :meth:`LaplacianService.arm_faults`) so every containment behaviour is
  provable on demand.
* :mod:`repro.serve.cluster` -- multi-process scale-out: the
  :class:`ClusterService` front door places registered graphs on
  ``replication_factor`` distinct workers by consistent hashing on the
  content fingerprint (:class:`HashRing`), applies mutations to every
  replica in lockstep, fails reads over to live replicas (in-flight queries
  on a dying worker are resubmitted, not lost), health-checks workers on a
  cadence (:class:`HealthPolicy`: suspect -> dead ladder, wedged workers
  killed and respawned), supports runtime ``add_worker``/``remove_worker``
  membership changes, and merges per-worker metrics.
* :mod:`repro.serve.worker` -- one shard process: an in-process service
  behind a pipe, a :class:`BackgroundBuilder` that moves sketch builds off
  the flush path (the grounded exact fallback serves, non-degraded, until
  the sketch is resident) and shared-memory publication of oracle
  artifacts.
* :mod:`repro.serve.shm` -- the :class:`SharedArtifactStore`: big
  read-only artifacts (dense oracle inverses, JL embeddings) live once in
  POSIX shared memory; workers attach zero-copy views and respawned
  workers re-attach instead of rebuilding.
* :mod:`repro.serve.traffic` -- seeded replayable traffic traces
  (heavy-tailed graph popularity, mixed kinds, interleaved mutations, many
  clients) with p50/p99/throughput/shed-rate reporting, shared by the
  cluster tests and ``benchmarks/bench_cluster.py``.

Quickstart::

    from repro.graphs import generators
    from repro.serve import LaplacianService

    service = LaplacianService(t_override=2)
    key = service.register(generators.grid_graph(30, 30), name="grid30")
    report = service.solve(key, b)                  # cold: builds artifacts
    report = service.solve(key, b2)                 # warm: cache hit
    resistances = service.effective_resistances(key, [(0, 1), (5, 9)])
    print(service.metrics_snapshot()["cache"]["hit_rate"])
"""

from repro.serve.artifacts import ArtifactCache, CacheStats, estimate_nbytes
from repro.serve.cluster import (
    ClusterService,
    HashRing,
    HealthPolicy,
    WorkerCrashedError,
)
from repro.serve.faults import (
    FAULT_OPS,
    FaultInjectionError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    TransientFaultError,
    disarmed_injector,
)
from repro.serve.planner import (
    REPAIR_DELTA_LIMIT,
    CertificationReport,
    Query,
    QueryBatch,
    QueryPlanner,
    QueryResult,
    certify_query,
    flow_query,
    resistance_batch_query,
    resistance_query,
    solve_query,
)
from repro.serve.registry import (
    FingerprintCollisionError,
    GraphRegistry,
    RegisteredGraph,
    UnknownGraphError,
    graph_fingerprint,
)
from repro.serve.resilience import (
    ArtifactBreakerOpenError,
    CircuitBreaker,
    DeadlineExceededError,
    DrainRateTracker,
    HealthStats,
    NumericalHealthError,
    ResiliencePolicy,
    call_with_retries,
    estimate_retry_after,
)
from repro.serve.service import (
    FlushPolicy,
    LaplacianService,
    QueryTicket,
    ServiceMetrics,
    ServiceOverloadedError,
)
from repro.serve.shm import (
    AttachedArtifact,
    SharedArtifactStore,
    ShmArraySpec,
    ShmArtifactSpec,
)
from repro.serve.traffic import (
    ClientRetryPolicy,
    TraceEvent,
    TrafficConfig,
    TrafficReport,
    TrafficTrace,
    compare_answers,
    generate_trace,
    run_trace,
    solve_rhs,
)
from repro.serve.worker import (
    BackgroundBuilder,
    RemoteResult,
    WorkerConfig,
    worker_main,
)

__all__ = [
    "ClusterService",
    "HashRing",
    "HealthPolicy",
    "WorkerCrashedError",
    "AttachedArtifact",
    "SharedArtifactStore",
    "ShmArraySpec",
    "ShmArtifactSpec",
    "ClientRetryPolicy",
    "TraceEvent",
    "TrafficConfig",
    "TrafficReport",
    "TrafficTrace",
    "compare_answers",
    "generate_trace",
    "run_trace",
    "solve_rhs",
    "BackgroundBuilder",
    "RemoteResult",
    "WorkerConfig",
    "worker_main",
    "ArtifactCache",
    "CacheStats",
    "estimate_nbytes",
    "REPAIR_DELTA_LIMIT",
    "CertificationReport",
    "Query",
    "QueryBatch",
    "QueryPlanner",
    "QueryResult",
    "solve_query",
    "resistance_query",
    "resistance_batch_query",
    "certify_query",
    "flow_query",
    "FingerprintCollisionError",
    "GraphRegistry",
    "RegisteredGraph",
    "UnknownGraphError",
    "graph_fingerprint",
    "FlushPolicy",
    "LaplacianService",
    "QueryTicket",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "FAULT_OPS",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "TransientFaultError",
    "disarmed_injector",
    "ArtifactBreakerOpenError",
    "CircuitBreaker",
    "DeadlineExceededError",
    "DrainRateTracker",
    "HealthStats",
    "NumericalHealthError",
    "ResiliencePolicy",
    "call_with_retries",
    "estimate_retry_after",
]
