"""Query planner: coalesce heterogeneous requests into blocked kernel calls.

The solver stack earns its throughput from batching -- one blocked Chebyshev
iteration over an ``(n, k)`` right-hand-side block
(:meth:`BCCLaplacianSolver.solve_many`), one grounded factorisation answering
many resistance pairs (:meth:`GroundedLaplacianSolver.pair_resistances`) --
but clients submit queries one at a time.  The planner closes that gap: it
groups a drained submission queue by ``(graph, kind, coalescing params)``
while preserving per-group submission order, then executes each group with a
single blocked call against artifacts from the
:class:`~repro.serve.artifacts.ArtifactCache`.

Four query kinds exist, one row each in the ``kind -> (validate, coalesce,
execute)`` table at the bottom of this module (:data:`QUERY_KINDS` is derived
from it); clients construct them via the ``*_query`` functions:

``solve``
    ``L_G x = b`` to relative error ``eps``; same-graph same-``eps`` queries
    share one block solve through :func:`repro.core.api.solve_many`.
``resistance``
    effective resistance between an arbitrary vertex pair, exact
    (``eta=None``) or to relative error ``eta``; same-graph same-``eta``
    queries share one batched ``pair_resistances`` kernel call.  Routing is
    eps-aware (see :meth:`QueryPlanner._execute_resistance`): medium graphs
    answer from the exact dense oracle, large graphs answer approximate
    queries from the JL-sketched oracle once its build has amortised and
    everything else from per-batch grounded ``splu`` solves.  Exact and
    approximate queries never coalesce into one batch (``eta`` is a
    coalescing parameter), so an exact client can never be handed a sketched
    answer.
``certify``
    is the cached ``(1 +/- eps)``-sparsifier of this graph valid?  Same-graph
    same-``eps`` queries collapse to a single certification.
``flow``
    a full :func:`~repro.flow.mincostflow.min_cost_max_flow` run on a
    registered network, with the compiled Gram structure served from a
    cached artifact and every Newton system solved by a
    :class:`~repro.lp.gram.GramSolverBridge` on that structure -- the same
    bridge the direct path builds, holding the one factorisation each Newton
    step takes.  The final flow is memoised only on request
    (``memoise_result``); otherwise a repeat solve re-runs the IPM with only
    the structure warm.

Staleness: before executing a batch the planner checks the registry entry's
version.  A drifted graph is revalidated and its outdated artifacts are
refused, never served.  A short mutation delta (at most ``REPAIR_DELTA_LIMIT``
journal records) is parked in the cache's pending ledger and each stale
artifact is repaired lazily, alone, on its first lookup under the new
identity -- by its own ``apply_delta``, the protocol documented at
:meth:`repro.linalg.sparse_backend.RepairableGroundedSolver.apply_delta` --
so an artifact never queried again never pays; anything else is invalidated
and rebuilt, as is an artifact whose walk refuses or dies.  See
:meth:`QueryPlanner._current_entry` and :meth:`QueryPlanner._try_lazy_repair`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import api
from repro.flow.mincostflow import min_cost_max_flow
from repro.graphs.digraph import FlowNetwork
from repro.graphs.laplacian import spectral_approximation_factor
from repro.linalg.jl import resistance_sketch_dimension
from repro.linalg.resistance import SketchedResistanceOracle
from repro.linalg.sparse_backend import (
    RESISTANCE_ORACLE_LIMIT,
    RepairableGroundedSolver,
    ResistanceOracle,
    default_update_budget,
)
from repro.lp.gram import GramSolverBridge, flow_gram_structure
from repro.serve.artifacts import ArtifactCache
from repro.serve.faults import FaultInjector, as_injector
from repro.serve.registry import GraphRegistry, RegisteredGraph
from repro.serve.resilience import (
    ArtifactBreakerOpenError,
    CircuitBreaker,
    HealthStats,
    NumericalHealthError,
    ResiliencePolicy,
    call_with_retries,
)
from repro.solvers.laplacian import BCCLaplacianSolver

#: Longest mutation delta the planner routes through artifact repair; longer
#: deltas (or an overflowed journal) rebuild from scratch.  The routed
#: length is additionally clamped to the graph's fresh ``O(sqrt(n))``
#: update budget (:func:`default_update_budget`), so at small ``n`` a delta
#: that would exhaust a fresh solver mid-walk rebuilds up front instead of
#: paying the partial repair first.
REPAIR_DELTA_LIMIT = 32

#: An approximate-resistance batch at least this large triggers the sketch
#: build immediately: a bulk query signals a bulk workload, and the build
#: amortises over the rest of the stream.
SKETCH_EAGER_BATCH = 16

#: Scalar/approximate trickle threshold: the sketch is built once cumulative
#: approximate pairs served by the splu fallback reach ``k / this`` (the build
#: costs ``k`` blocked solves, a fallback batch costs one solve per pair).
SKETCH_DEMAND_FACTOR = 4

#: Bound on the demand-counter dict: unregistered graphs and permanently
#: over-budget sketches would otherwise leak counters over a long-lived
#: service.  Evicting a counter only delays one graph's sketch build.
SKETCH_DEMAND_MAX_ENTRIES = 1024

_query_ids = itertools.count()


def _validated_eta(eta) -> Optional[float]:
    """Normalise the accuracy knob: ``None`` = exact, else a float in (0, 1)."""
    if eta is None:
        return None
    eta = float(eta)
    if not (0.0 < eta < 1.0):
        raise ValueError(f"accuracy bound eta must lie in (0, 1), got {eta}")
    return eta


@dataclass(frozen=True)
class QueryKind:
    """One row of the kind table at the bottom of this module.

    ``validate(graph, payload)`` raises ``ValueError`` on a malformed query
    (at submit time, before it can poison a shared batch);
    ``coalesce`` names the payload entries queries must agree on to share a
    kernel call (the batch's ``coalesce_params`` are their values, in that
    order); ``execute(planner, entry, batch)`` answers a coalesced batch with
    ``(values, cache_hit, degraded)``.
    """

    validate: Callable[[Any, Dict[str, Any]], None]
    coalesce: Tuple[str, ...]
    execute: Callable[..., Tuple[List[Any], bool, bool]]


def query_kind(kind: str) -> QueryKind:
    """The table row of ``kind``; ``ValueError`` naming it when there is none."""
    try:
        return _KIND_TABLE[kind]
    except KeyError:
        raise ValueError(
            f"unknown query kind {kind!r}; use one of {QUERY_KINDS}"
        ) from None


@dataclass
class Query:
    """One client request against a registered graph."""

    kind: str
    graph_key: str
    payload: Dict[str, Any]
    query_id: int = field(default_factory=_query_ids.__next__)

    def __post_init__(self):
        query_kind(self.kind)


def solve_query(graph_key: str, b: np.ndarray, eps: float = 1e-6) -> Query:
    """``L_G x = b`` to relative error ``eps`` in the ``L_G``-norm."""
    return Query("solve", graph_key, {"b": np.asarray(b, dtype=float), "eps": float(eps)})


def _validate_solve(graph, payload: Dict[str, Any]) -> None:
    # the solver's own range: a bad eps would otherwise fail the whole
    # coalesced batch at flush instead of its own client at submit
    eps = payload["eps"]
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    b = payload["b"]
    if b.shape != (graph.n,):
        raise ValueError(
            f"right-hand side must have shape ({graph.n},), got {b.shape}"
        )
    # a b with one NaN would coalesce into the shared blocked solve_many and
    # poison every column of the block
    if not np.all(np.isfinite(b)):
        raise ValueError(
            "right-hand side contains non-finite entries (NaN/inf); "
            "a poisoned b would corrupt the shared blocked solve"
        )


def resistance_query(
    graph_key: str, u: int, v: int, eta: Optional[float] = None
) -> Query:
    """Effective resistance between vertices ``u`` and ``v``.

    ``eta=None`` demands the exact value; a float in ``(0, 1)`` accepts a
    ``(1 +/- eta)``-approximate answer, which lets graphs above the dense
    oracle gate serve from the JL-sketched oracle instead of per-batch
    triangular solves.  (The eta is validated here, at submit time.)
    """
    return Query(
        "resistance",
        graph_key,
        {"u": int(u), "v": int(v), "eta": _validated_eta(eta)},
    )


def resistance_batch_query(
    graph_key: str, pairs: Sequence[Tuple[int, int]], eta: Optional[float] = None
) -> Query:
    """Effective resistances of many pairs as ONE queue entry.

    A bulk request pays the per-query protocol cost (queue entry, ticket,
    result routing) once for the whole batch instead of once per pair, which
    is where most of the batch=64 throughput win comes from once the kernel
    itself is an O(1)-per-pair oracle lookup.  Its result value is an array
    aligned with ``pairs``.  In the planner it coalesces freely with scalar
    resistance queries on the same graph carrying the same ``eta`` (and never
    with queries carrying a different one).
    """
    pair_array = np.asarray(list(pairs), dtype=np.int64)
    if pair_array.ndim != 2 or pair_array.shape[1] != 2:
        raise ValueError(f"pairs must be (u, v) tuples, got shape {pair_array.shape}")
    return Query(
        "resistance",
        graph_key,
        {"u": pair_array[:, 0], "v": pair_array[:, 1], "eta": _validated_eta(eta)},
    )


def _validate_resistance(graph, payload: Dict[str, Any]) -> None:
    u = np.asarray(payload["u"])
    v = np.asarray(payload["v"])
    # the batch concatenates every query's endpoints into two aligned int64
    # columns: a ragged or fractional query would fail (or truncate) them all
    if u.shape != v.shape or u.ndim > 1:
        raise ValueError(
            f"u and v must be scalars or aligned 1-d arrays, got shapes {u.shape} and {v.shape}"
        )
    if not (np.issubdtype(u.dtype, np.integer) and np.issubdtype(v.dtype, np.integer)):
        raise ValueError(f"pair endpoints must be integers, got {u.dtype} and {v.dtype}")
    if u.size and (
        int(min(u.min(), v.min())) < 0 or int(max(u.max(), v.max())) >= graph.n
    ):
        raise ValueError(f"pair endpoints out of range [0, {graph.n})")


def certify_query(graph_key: str, eps: float = 0.5) -> Query:
    """Certify the cached ``(1 +/- eps)``-sparsifier against the graph."""
    return Query("certify", graph_key, {"eps": float(eps)})


def _validate_certify(graph, payload: Dict[str, Any]) -> None:
    # a (1 +/- eps) window needs eps in (0, 1); a NaN eps would also key a
    # coalesce group and a cache entry that never equal themselves
    eps = payload["eps"]
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def flow_query(
    graph_key: str,
    seed: Optional[int] = None,
    memoise_result: bool = False,
) -> Query:
    """An exact min-cost max-flow of the registered network (Theorem 1.1).

    Identical-parameter queries on the same network coalesce to one pipeline
    run.  The run consumes the cached Gram structure but its result is
    recomputed per batch unless ``memoise_result=True``, which additionally
    caches the final
    :class:`~repro.flow.mincostflow.MinCostFlowResult` under the network's
    content identity so read-heavy traffic on an unchanging network is a
    dictionary lookup.  Memoising and non-memoising queries never share a
    batch (a client that asked for a fresh run must get one).

    ``seed=None`` is served as seed ``0``: the served path is deterministic
    by default, so a repeat query replays the same cost perturbation and
    returns the same flow.  Pass an explicit seed to vary the perturbation.
    """
    return Query(
        "flow",
        graph_key,
        {"seed": 0 if seed is None else int(seed), "memoise_result": bool(memoise_result)},
    )


def _validate_flow(graph, payload: Dict[str, Any]) -> None:
    if not isinstance(graph, FlowNetwork):
        raise ValueError(
            f"'flow' queries need a registered FlowNetwork, got {type(graph).__name__}"
        )
    # the seed reaches np.random.default_rng only at flush
    seed = payload["seed"]
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass
class QueryBatch:
    """Queries that execute as one blocked kernel call."""

    graph_key: str
    kind: str
    coalesce_params: Tuple[Hashable, ...]
    queries: List[Query]

    @property
    def size(self) -> int:
        """Number of queries sharing this kernel call."""
        return len(self.queries)


@dataclass
class QueryResult:
    """Per-query outcome, annotated with serving metadata.

    ``degraded=True`` marks an answer served through a fallback rung of the
    degradation ladder (grounded exact path after an oracle build failure or
    open breaker, rebuild after a failed repair walk): still *correct*, but
    potentially slower than the artifact the planner wanted to use.
    """

    query: Query
    value: Any
    cache_hit: bool
    batch_size: int
    seconds: float  # per-query share of the batch wall-clock
    degraded: bool = False


@dataclass
class CertificationReport:
    """Outcome of a certify query."""

    ok: bool
    lo: float
    hi: float
    eps: float
    sparsifier_edges: int
    graph_edges: int


class QueryPlanner:
    """Plans and executes drained query batches against registry + cache."""

    def __init__(
        self,
        registry: GraphRegistry,
        cache: ArtifactCache,
        solver_seed: Optional[int] = 0,
        t_override: Optional[int] = None,
        bundle_scale: float = 1.0,
        repair_enabled: bool = True,
        resilience: Optional[ResiliencePolicy] = None,
        health: Optional[HealthStats] = None,
    ):
        self.registry = registry
        self.cache = cache
        self.solver_seed = solver_seed
        self.t_override = t_override
        self.bundle_scale = bundle_scale
        #: route short mutation deltas through low-rank artifact repair
        #: instead of invalidate-and-rebuild; ``False`` restores the
        #: pre-repair behaviour (every mutation rebuilds), which the mutation
        #: benchmark uses as its baseline.
        self.repair_enabled = repair_enabled
        self.repair_delta_limit = REPAIR_DELTA_LIMIT
        #: graphs up to this many vertices answer resistance queries from a
        #: precomputed dense oracle (O(1) per query) instead of per-batch
        #: triangular solves; n^2 doubles of cache weight, LRU-evictable.
        #: Above the gate, approximate queries (eta set) are served by the
        #: JL-sketched oracle once its build has amortised.
        self.oracle_limit = RESISTANCE_ORACLE_LIMIT
        #: cumulative approximate pairs served by the splu fallback, keyed by
        #: (fingerprint, version, eta): once demand reaches k /
        #: SKETCH_DEMAND_FACTOR the sketch build has amortised and is
        #: triggered.  Touched only under the service's execute lock.
        self._sketch_demand: Dict[Tuple[str, int, float], int] = {}
        #: failure-containment policy shared with the owning service (the
        #: service passes its own so the two can never disagree)
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        #: resilience counters, surfaced through ``metrics_snapshot``
        self.health = health if health is not None else HealthStats()
        #: TTL'd negative cache over artifact builds, keyed per artifact
        #: identity ``(fingerprint, kind, params)`` -- see :meth:`_build`
        self.breaker = CircuitBreaker(
            threshold=self.resilience.breaker_threshold,
            ttl_seconds=self.resilience.breaker_ttl_seconds,
        )
        #: fault-injection seams (a disarmed no-op injector until :meth:`arm_faults`)
        self.faults = as_injector(None)
        self._retry_rng = np.random.default_rng(self.resilience.seed)
        #: optional off-flush-path sketch builder (duck-typed: ``submit(key,
        #: fn) -> bool``, deduplicating in-flight keys).  The cluster worker
        #: arms one (:class:`repro.serve.worker.BackgroundBuilder`) so a
        #: sketch build runs on a background thread while the grounded exact
        #: fallback keeps serving -- non-degraded, exact answers trivially
        #: satisfy ``eta`` -- until the sketch is resident in the cache.
        self.background_builder = None
        # retry jitter for background builds: a dedicated stream, because
        # ``_retry_rng`` is touched under the service's execute lock and a
        # background thread must not race it
        self._background_rng = np.random.default_rng(
            self.resilience.seed + 0x5EED
        )

    def arm_faults(self, faults) -> FaultInjector:
        """Arm a :class:`FaultPlan`/:class:`FaultInjector`; ``None`` disarms.

        Returns the active injector so callers can read its fire counters
        (e.g. to assert that no sketch build was attempted behind an open
        breaker).  Swapped atomically enough for tests -- arming while a
        flush is executing is not a supported pattern.
        """
        self.faults = as_injector(faults)
        return self.faults

    # -- planning --------------------------------------------------------------

    def plan(self, queries: Sequence[Query]) -> List[QueryBatch]:
        """Group queries into coalesced batches, preserving arrival order.

        Batches are emitted in order of each group's first query, and queries
        keep their submission order inside a batch, so a client that submits
        twice to the same graph gets its answers in submission order.
        """
        batches: "Dict[Tuple[Hashable, ...], QueryBatch]" = {}
        for query in queries:
            params = tuple(query.payload[name] for name in query_kind(query.kind).coalesce)
            group = (query.graph_key, query.kind, params)
            batch = batches.get(group)
            if batch is None:
                batches[group] = QueryBatch(
                    graph_key=query.graph_key,
                    kind=query.kind,
                    coalesce_params=params,
                    queries=[query],
                )
            else:
                batch.queries.append(query)
        return list(batches.values())

    # -- execution -------------------------------------------------------------

    def execute(self, batches: Sequence[QueryBatch]) -> List[QueryResult]:
        """Execute every batch; results in query-submission order per batch."""
        results: List[QueryResult] = []
        for batch in batches:
            results.extend(self.execute_batch(batch))
        return results

    def execute_batch(self, batch: QueryBatch) -> List[QueryResult]:
        """Execute one coalesced batch with a single blocked kernel call.

        Resolves registry staleness first (repair or rebuild, see
        :meth:`_current_entry`), then dispatches through the kind table; the
        returned results carry per-query shares of the batch wall-clock.
        """
        entry = self._current_entry(batch.graph_key)
        self.faults.on_execute(batch)
        start = time.perf_counter()
        values, cache_hit, degraded = query_kind(batch.kind).execute(self, entry, batch)
        per_query_seconds = (time.perf_counter() - start) / max(1, batch.size)
        return [
            QueryResult(
                query=query,
                value=value,
                cache_hit=cache_hit,
                batch_size=batch.size,
                seconds=per_query_seconds,
                degraded=degraded,
            )
            for query, value in zip(batch.queries, values)
        ]

    def _build(
        self,
        entry: RegisteredGraph,
        kind: str,
        params: Tuple[Hashable, ...],
        builder,
        rng=None,
    ):
        """Breaker-guarded, retried ``cache.get_or_build`` -- the one build seam.

        Every artifact build the planner takes goes through here so failure
        containment can never fork per call site: the circuit breaker is
        consulted first (an open breaker raises
        :class:`ArtifactBreakerOpenError` *without* attempting the build --
        that is the short-circuit that saves the ``k`` blocked solves),
        transient build failures are retried with the policy's backoff, and
        the outcome is recorded back into the breaker.  The breaker key is
        the artifact identity ``(fingerprint, kind, params)`` -- the version
        is deliberately excluded so a content-independent failure (e.g.
        resource exhaustion on a sketch of this size) stays remembered
        across cheap mutations; the TTL bounds how long.

        Fault-injection seam: an armed injector's ``build`` rules fire
        inside the builder, i.e. only on a cache miss -- a cached artifact
        is never failed retroactively.

        ``rng`` overrides the retry-jitter stream; background builds pass
        their own so two threads never race ``_retry_rng``.
        """
        if rng is None:
            # the one lazy-repair seam: just before the lookup, migrate a
            # pending stale generation of exactly this artifact (and nothing
            # else) to the entry's identity.  Flush-path only -- background
            # builders rebuild instead, so repairs stay serialised behind the
            # service's execute lock.
            self._try_lazy_repair(entry, kind, params)
        breaker_key = (entry.fingerprint, kind, params)
        if not self.breaker.allow(breaker_key):
            self.health.increment("breaker_open_total")
            raise ArtifactBreakerOpenError(
                f"circuit breaker open for {kind!r} builds of graph "
                f"{entry.fingerprint[:12]} (params={params!r}): recent builds "
                f"failed repeatedly; retrying after the TTL"
            )

        def guarded_builder():
            self.faults.on_build(kind)
            return builder()

        try:
            value, cache_hit = call_with_retries(
                lambda: self.cache.get_or_build(
                    entry.fingerprint, entry.version, kind, params, guarded_builder
                ),
                self.resilience,
                self._retry_rng if rng is None else rng,
                health=self.health,
            )
        except Exception:
            self.breaker.record_failure(breaker_key)
            raise
        self.breaker.record_success(breaker_key)
        return value, cache_hit

    def _current_entry(self, graph_key: str) -> RegisteredGraph:
        """Registry entry with staleness resolved (refuse + repair/rebuild).

        Artifacts are keyed by the entry's *content fingerprint* (plus
        version), never by the registry handle: handles can be unregistered
        and re-used for different graphs, and two services may share one
        cache while naming different graphs alike -- the fingerprint is the
        identity that cannot alias.

        A drifted entry is revalidated, then its cached artifacts follow one
        of two paths: a short mutation delta (the graph's journal reaches
        back to the registered version and holds at most
        ``REPAIR_DELTA_LIMIT`` records) is *deferred* into the cache's
        pending-delta ledger (:meth:`ArtifactCache.defer_repair`) -- no
        repair work happens here; each stale artifact is migrated
        individually on its first lookup under the new identity by
        :meth:`_try_lazy_repair`, and an artifact never looked up again
        never pays its repair at all.  Otherwise everything built against
        the stale content is invalidated and later queries rebuild.  Either
        way no stale artifact can be served: lookups key on the new
        ``(fingerprint, version)``, which no stale entry carries.
        """
        entry = self.registry.get(graph_key)
        if not entry.is_current():
            stale_fingerprint = entry.fingerprint
            stale_version = entry.version
            # flow networks carry a version but no mutation journal: their
            # drift is never expressible as a delta, so they always rebuild
            delta = (
                entry.graph.delta_since(stale_version)
                if self.repair_enabled and hasattr(entry.graph, "delta_since")
                else None
            )
            self.registry.revalidate(graph_key)
            entry = self.registry.get(graph_key)
            limit = min(
                self.repair_delta_limit, default_update_budget(entry.graph.n)
            )
            deferred = False
            if delta and len(delta) <= limit:
                deferred = self.cache.defer_repair(
                    stale_fingerprint,
                    stale_version,
                    entry.fingerprint,
                    entry.version,
                    tuple(delta),
                    limit,
                )
            if not deferred:
                self.cache.invalidate_graph(
                    stale_fingerprint, keep_version=entry.version
                )
            # drop sketch-demand counters for content that no longer exists
            self._sketch_demand = {
                key: count
                for key, count in self._sketch_demand.items()
                if key[0] != stale_fingerprint
            }
        return entry

    def _try_lazy_repair(
        self, entry: RegisteredGraph, kind: str, params: Tuple[Hashable, ...]
    ) -> None:
        """Migrate one stale artifact to the entry's identity, on first lookup.

        The lazy half of the repair path: :meth:`_current_entry` stashed the
        mutation delta in the cache's pending ledger; here -- called from
        :meth:`_build` just before every cache lookup -- a still-cached stale
        generation of the artifact about to be looked up is popped (closest
        source first; popped *before* the walk, so a concurrent repairer can
        never double-apply updates to the same object) and handed the delta
        through its own ``apply_delta``.  How the delta is absorbed is the
        artifact's business; the planner adopts on ``True`` and drops on
        ``False`` or an exception (the books balance via ``note_dropped``),
        after which the lookup falls through to an ordinary rebuild.  Only a
        walk that *raised* counts as a degradation.
        """
        sources = self.cache.pending_repair(entry.fingerprint, entry.version)
        if not sources:
            return
        if self.cache.contains(entry.fingerprint, entry.version, kind, params):
            return
        for (src_key, src_version), delta in sources.items():
            stale = self.cache.take_stale_entry(src_key, src_version, kind, params)
            if stale is None:
                continue
            start = time.perf_counter()
            try:
                repaired = stale.value.apply_delta(
                    delta,
                    graph=entry.graph,
                    grounded=lambda: self._grounded(entry)[0],
                    on_step=self.faults.on_repair,
                )
            except Exception:
                self.health.increment("degraded_total")
                repaired = False
            if repaired:
                seconds = time.perf_counter() - start
                self.cache.adopt_repaired(
                    entry.fingerprint, entry.version, kind, params, stale.value, seconds
                )
            else:
                self.cache.note_dropped()
            return

    def _solver_params(self) -> Tuple[Hashable, ...]:
        return (self.solver_seed, self.t_override, self.bundle_scale)

    def _execute_solve(
        self, entry: RegisteredGraph, batch: QueryBatch
    ) -> Tuple[List[Any], bool, bool]:
        graph = entry.graph
        preprocessing, cache_hit = self._build(
            entry,
            "preprocessing",
            self._solver_params(),
            lambda: BCCLaplacianSolver.prepare(
                graph,
                seed=self.solver_seed,
                t_override=self.t_override,
                bundle_scale=self.bundle_scale,
                # measuring kappa inverts L_G: that is the cached grounded
                # artifact, never a second factorisation of the same matrix
                grounded=lambda: self._grounded(entry)[0],
            ),
        )
        # the solver front object is rebuilt per batch (cheap: the CSR
        # Laplacian is cached on the graph); caching it would both
        # double-account the preprocessing bytes it references and share one
        # communication ledger across unrelated clients
        solver = BCCLaplacianSolver(graph, preprocessing=preprocessing)
        eps = batch.coalesce_params[0]
        reports = api.solve_many(
            graph, [q.payload["b"] for q in batch.queries], eps=eps, solver=solver
        )
        for query, report in zip(batch.queries, reports):
            if self.faults.nan_output(query):
                report.solution[:] = np.nan
        poisoned = [
            q.query_id
            for q, r in zip(batch.queries, reports)
            if not np.all(np.isfinite(r.solution))
        ]
        if poisoned:
            # the numerical-health guard: refuse, never return, NaN/inf.
            # Bisection in the service's flush narrows the failure to
            # exactly the poisoned queries.
            raise NumericalHealthError(
                f"solve produced non-finite solutions for queries {poisoned}"
            )
        return list(reports), cache_hit, False

    def _execute_resistance(
        self, entry: RegisteredGraph, batch: QueryBatch
    ) -> Tuple[List[Any], bool, bool]:
        graph = entry.graph
        eta = batch.coalesce_params[0] if batch.coalesce_params else None

        # flatten scalar and bulk queries into aligned index arrays, answer
        # with a single kernel call, then split the outputs back per query
        us: List[np.ndarray] = []
        vs: List[np.ndarray] = []
        for query in batch.queries:
            us.append(np.atleast_1d(np.asarray(query.payload["u"], dtype=np.int64)))
            vs.append(np.atleast_1d(np.asarray(query.payload["v"], dtype=np.int64)))
        counts = [a.size for a in us]

        degraded = False
        if graph.n <= self.oracle_limit:
            # Medium graphs: precompute the dense grounded-inverse oracle
            # once (one LAPACK Cholesky inverse, n^2 doubles) and answer
            # every later pair query with a three-element lookup; exact
            # answers satisfy any requested eta for free.  The oracle grounds
            # on the graph's current components itself, so neither a hit nor
            # a miss materialises the grounded splu factorisation.
            try:
                solver, cache_hit = self._build(
                    entry, "resistance_oracle", (), lambda: ResistanceOracle(graph)
                )
            except Exception:
                # degradation ladder: a failed (or breaker-open) oracle
                # build answers exactly from the grounded factorisation --
                # slower per pair, identical numbers
                self.health.increment("degraded_total")
                degraded = True
                solver, cache_hit = self._grounded(entry)
        elif eta is not None:
            solver, cache_hit, degraded = self._sketched_or_fallback(
                entry, eta, sum(counts)
            )
        else:
            solver, cache_hit = self._grounded(entry)
        resistances = solver.pair_resistances(np.concatenate(us), np.concatenate(vs))
        slices: List[slice] = []
        offset = 0
        for query, count in zip(batch.queries, counts):
            piece = slice(offset, offset + count)
            offset += count
            if self.faults.nan_output(query):
                resistances[piece] = np.nan
            slices.append(piece)
        # numerical-health guard: NaN only -- inf is the legitimate answer
        # for a cross-component pair
        poisoned = [
            q.query_id
            for q, piece in zip(batch.queries, slices)
            if np.isnan(resistances[piece]).any()
        ]
        if poisoned:
            raise NumericalHealthError(
                f"resistance kernel produced NaN for queries {poisoned}"
            )
        values: List[Any] = []
        for query, piece in zip(batch.queries, slices):
            chunk = resistances[piece]
            values.append(chunk.copy() if np.ndim(query.payload["u"]) else float(chunk[0]))
        return values, cache_hit, degraded

    def _grounded(
        self, entry: RegisteredGraph, rng=None
    ) -> Tuple[RepairableGroundedSolver, bool]:
        """Cached grounded ``splu`` factorisation: ``(solver, cache_hit)``.

        The single owner of the ``"grounded"`` cache identity -- every
        consumer (exact serving, oracle builds, sketch fallback) goes through
        here so the key and builder can never silently fork.  Built as a
        :class:`RepairableGroundedSolver` (identical while no mutation has
        been absorbed) so the repair path can turn a later ``add_edge`` into
        a rank-1 update instead of a refactorisation.  ``rng`` as in
        :meth:`_build` (the background builder passes its own stream).
        """
        return self._build(
            entry,
            "grounded",
            (),
            lambda: RepairableGroundedSolver(entry.graph),
            rng=rng,
        )

    def _sketched_or_fallback(
        self, entry: RegisteredGraph, eta: float, n_pairs: int
    ) -> Tuple[Any, bool, bool]:
        """Serving artifact for a large-graph approximate-resistance batch.

        Policy: a cached sketch always serves.  Otherwise the sketch (``k``
        blocked grounded solves, ``n x k`` floats) is built once the workload
        has earned it -- the batch alone is ``SKETCH_EAGER_BATCH`` pairs or
        bigger, or cumulative fallback demand for this ``(graph, eta)`` has
        reached ``k / SKETCH_DEMAND_FACTOR`` pairs.  Until then the exact
        grounded factorisation answers (exact trivially satisfies ``eta``):
        a trickle of scalar queries never pays a sketch build it would not
        amortise, while any bulk client flips the graph into the sketched
        regime for everyone.  A sketch whose embedding cannot stay resident
        under the cache byte budget is never built at all -- the LRU would
        evict it on the next insert and every approximate batch would pay
        the ``k``-solve rebuild, far worse than the fallback it replaces.

        Failure containment (the third returned flag): a sketch build that
        fails -- or is short-circuited by its open circuit breaker, in which
        case no build is attempted at all -- *degrades* to the grounded
        exact path instead of failing the batch.  The amortisation fallback
        above is not a degradation (nothing failed); only failure-driven
        fallbacks are flagged and counted in ``degraded_total``.
        """
        params = (eta, self.solver_seed)

        def build_sketch(rng=None):
            # ``rng`` as in :meth:`_build`: the background thread passes its own
            return self._build(
                entry,
                "sketched_resistance",
                params,
                lambda: SketchedResistanceOracle(
                    entry.graph,
                    eta=eta,
                    seed=self.solver_seed,
                    grounded=self._grounded(entry, rng=rng)[0],
                ),
                rng=rng,
            )

        # repair a pending stale sketch before the residency check below:
        # a lazily migrated sketch must count as "cached" for the demand
        # accounting, not trigger a redundant build decision
        self._try_lazy_repair(entry, "sketched_resistance", params)
        if not self.cache.contains(
            entry.fingerprint, entry.version, "sketched_resistance", params
        ):
            k = resistance_sketch_dimension(entry.graph.m, eta)
            demand_key = (entry.fingerprint, entry.version, eta)
            demand = self._sketch_demand.get(demand_key, 0) + n_pairs
            # embedding (n x k float32; float64 n x m when the identity
            # sketch takes over) + component labels (n int64)
            m = entry.graph.m
            item = 8 if k >= m else 4
            predicted_nbytes = entry.graph.n * (item * min(k, m) + 8)
            if predicted_nbytes > self.cache.max_bytes or (
                n_pairs < SKETCH_EAGER_BATCH and demand * SKETCH_DEMAND_FACTOR < k
            ):
                self._sketch_demand[demand_key] = demand
                while len(self._sketch_demand) > SKETCH_DEMAND_MAX_ENTRIES:
                    # oldest counter first (insertion order); losing one only
                    # delays that graph's next build decision
                    self._sketch_demand.pop(next(iter(self._sketch_demand)))
                solver, cache_hit = self._grounded(entry)
                return solver, cache_hit, False
            self._sketch_demand.pop(demand_key, None)
            if self.background_builder is not None:
                # off-flush-path build: schedule the k blocked solves on the
                # background thread (deduplicated while in flight) and keep
                # serving the grounded exact path meanwhile.  Exact answers
                # trivially satisfy eta, so this is not a degradation.
                self.background_builder.submit(
                    (entry.fingerprint, entry.version, "sketched_resistance", params),
                    lambda: build_sketch(self._background_rng),
                )
                solver, cache_hit = self._grounded(entry)
                return solver, cache_hit, False
        try:
            oracle, cache_hit = build_sketch()
            if oracle.eta_effective > eta:
                # a repaired oracle's widened bound can drift past the
                # requested eta (the repair path already drops most such
                # cases); the contract wins over the artifact -- rebuild at
                # full accuracy
                self.cache.discard(
                    entry.fingerprint, entry.version, "sketched_resistance", params
                )
                oracle, cache_hit = build_sketch()
        except Exception:
            self.health.increment("degraded_total")
            solver, cache_hit = self._grounded(entry)
            return solver, cache_hit, True
        return oracle, cache_hit, False

    # -- flow workloads --------------------------------------------------------

    def gram_bridge(self, entry: RegisteredGraph) -> Tuple[GramSolverBridge, bool]:
        """A gram bridge for the entry's flow LP (Lemma 5.1), and its cache hit.

        The compiled :class:`~repro.lp.gram.IncidenceStructure` is a cached
        artifact (kind ``"gram_structure"``); the bridge is per-call state --
        the one factorisation it holds and its statistics belong to one IPM
        run -- exactly as on the direct path.
        """
        structure, cache_hit = self._build(
            entry, "gram_structure", (), lambda: flow_gram_structure(entry.graph)
        )
        return GramSolverBridge(structure), cache_hit

    def _execute_flow(
        self, entry: RegisteredGraph, batch: QueryBatch
    ) -> Tuple[List[Any], bool, bool]:
        """One pipeline run answers every identical-parameter flow query.

        The warm serving artifact is the compiled Gram structure (kind
        ``"gram_structure"``, content-addressed like everything else); the
        batch counts as a cache hit when it was warm.  The pipeline itself is
        deterministic given the parameters, so one run is the answer for the
        whole batch.

        With ``memoise_result=True`` on the queries, the final
        :class:`~repro.flow.mincostflow.MinCostFlowResult` is itself a cached
        artifact (kind ``"flow_result"``), keyed by the full parameter tuple
        under the network's content identity -- so a repeat memoising query
        on an unmutated network skips the IPM entirely.
        """
        seed, memoise = batch.coalesce_params
        warm: List[bool] = []

        def run_pipeline():
            def factory(flow_lp):
                bridge, structure_hit = self.gram_bridge(entry)
                warm.append(structure_hit)
                return bridge

            return min_cost_max_flow(entry.graph, seed=seed, gram_solver_factory=factory)

        if memoise:
            result, result_hit = self._build(
                entry,
                "flow_result",
                (seed,),
                run_pipeline,
            )
            cache_hit = result_hit or bool(warm and warm[0])
        else:
            result = run_pipeline()
            cache_hit = warm[0]
        return [result] * batch.size, cache_hit, False

    def _execute_certify(
        self, entry: RegisteredGraph, batch: QueryBatch
    ) -> Tuple[List[Any], bool, bool]:
        graph = entry.graph
        eps = batch.coalesce_params[0]
        params = (eps, *self._solver_params())

        def build_sparsifier_result():
            # the solve path's preprocessing artifact embeds a sparsifier
            # built with SPARSIFIER_EPS and the same knobs -- and its window,
            # when kappa was measured: when the certify eps matches, reuse
            # them instead of re-paying the multi-second sparsification and
            # the eigensolver, and storing the same content twice.  (A
            # repaired artifact has dropped both.)
            if eps == BCCLaplacianSolver.SPARSIFIER_EPS:
                solver_params = self._solver_params()
                if self.cache.contains(
                    entry.fingerprint, entry.version, "preprocessing", solver_params
                ):
                    preprocessing, _ = self.cache.get_or_build(
                        entry.fingerprint,
                        entry.version,
                        "preprocessing",
                        solver_params,
                        lambda: None,  # never runs: the entry is present
                    )
                    if preprocessing.sparsifier_result is not None:
                        return (
                            preprocessing.sparsifier_result,
                            preprocessing.spectral_window,
                        )
            sparsifier_result = api.spectral_sparsifier(
                graph,
                eps=eps,
                seed=self.solver_seed,
                t_override=self.t_override,
                bundle_scale=self.bundle_scale,
            )
            return sparsifier_result, None

        def build_report() -> CertificationReport:
            # no separate 'sparsifier' cache entry: the report below is
            # memoised, so the sparsifier is only ever needed right here,
            # and an extra cache reference would double-count its bytes
            sparsifier_result, window = build_sparsifier_result()
            lo, hi = window or spectral_approximation_factor(
                graph, sparsifier_result.sparsifier
            )
            slack = 1e-7
            return CertificationReport(
                ok=bool(lo >= 1.0 - eps - slack and hi <= 1.0 + eps + slack),
                lo=float(lo),
                hi=float(hi),
                eps=eps,
                sparsifier_edges=sparsifier_result.size,
                graph_edges=graph.m,
            )

        # the eigensolver certification is deterministic per (content
        # version, params): memoise the whole report, so a warm certify is
        # a cache lookup instead of a repeated eigsh run
        report, cache_hit = self._build(entry, "certification", params, build_report)
        # one certification answers every query in the batch
        return [report] * batch.size, cache_hit, False


#: The one place a query kind is defined; planner and service reach it only
#: through :func:`query_kind`.  Adding or removing a kind touches this table
#: (and the kind's constructor / validator above) and nothing else.
_KIND_TABLE: Dict[str, QueryKind] = {
    "solve": QueryKind(_validate_solve, ("eps",), QueryPlanner._execute_solve),
    # exact (None) and approximate queries, or two different accuracy
    # bounds, must never share a kernel call
    "resistance": QueryKind(
        _validate_resistance, ("eta",), QueryPlanner._execute_resistance
    ),
    "certify": QueryKind(_validate_certify, ("eps",), QueryPlanner._execute_certify),
    "flow": QueryKind(
        _validate_flow, ("seed", "memoise_result"), QueryPlanner._execute_flow
    ),
}

QUERY_KINDS = tuple(_KIND_TABLE)
