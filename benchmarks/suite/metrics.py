"""The metric catalogue: every name the suite may print, with unit and direction.

``END_TO_END`` are what a user of the stack sees; each carries the regression
bound ``--compare`` applies and the workloads it is defined on.  The ones
defined on *every* workload (and never zero) are the ones ``BENCHMARK.json``
lists, because its contract wants every end-to-end metric from every workload.
``PER_LAYER`` attribute a run to single layers; they have no bound.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

#: nominal length of one measured region; ``--seconds`` scales passes and op
#: counts relative to it (BENCHMARK.json's ``run_seconds``)
RUN_SECONDS = 15

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "construct",
        "Cold one-shot Thm 1.2/1.3 path (spanner, sparsify, measured kappa, factorise, "
        "8-rhs Chebyshev) on a graph where sampling drops edges; the serve tiers do nothing.",
    ),
    (
        "flow",
        "Thm 1.1 end to end: lp/flow/gram bridge do all the work, spanners and sparsify "
        "none; served cold vs warm drives the gram layer by factorising vs by cache hit.",
    ),
    (
        "serve-read",
        "Warm in-process serving: per-query latency at batch occupancy 1, then bursts, the "
        "only place the planner coalesces; dense-oracle, sketch and splu rungs in one trace.",
    ),
    (
        "serve-mutate",
        "Writes beside reads through the same planner and artifact layers: lazy repair, "
        "update-budget exhaustion and solve-after-removal rebuilds show here and nowhere else.",
    ),
    (
        "cluster-read",
        "The serve-read sync trace behind a one-worker cluster: the price of routing, pipe, "
        "pickle and shm attach per query; scale-out needs more cores than this box has.",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
SERVE = ("serve-read", "serve-mutate", "cluster-read")
READ = ("serve-read", "cluster-read")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    workloads: Tuple[str, ...]
    #: must be identical between two runs of the same seed (bound ignored)
    exact: bool = False


#: bounds are three times the spread ten runs showed on this box (README,
#: "Measured baseline"), capped at 0.25; ``charged_rounds`` only moves with the
#: seed-drawn flow network (0.3 %)
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, WORKLOAD_NAMES),
    EndToEnd("construct_s", "s", "lower", 0.15, ("construct",)),
    EndToEnd("solve_many_s", "s", "lower", 0.10, ("construct",)),
    EndToEnd("flow_direct_s", "s", "lower", 0.20, ("flow",)),
    EndToEnd("flow_cold_s", "s", "lower", 0.20, ("flow",)),
    EndToEnd("flow_warm_s", "s", "lower", 0.25, ("flow",)),
    EndToEnd("charged_rounds", "rounds", "lower", 0.02, WORKLOAD_NAMES, exact=True),
    EndToEnd("ops_per_s", "ops/s", "higher", 0.25, WORKLOAD_NAMES),
    EndToEnd("burst_ops_per_s", "ops/s", "higher", 0.25, ("serve-read",)),
    EndToEnd("solve_p50_ms", "ms", "lower", 0.20, SERVE),
    EndToEnd("resistance_p50_ms", "ms", "lower", 0.25, SERVE),
    EndToEnd("solve_p95_ms", "ms", "lower", 0.25, READ),
    EndToEnd("resistance_p99_ms", "ms", "lower", 0.25, READ),
    EndToEnd("post_mutation_p50_ms", "ms", "lower", 0.20, ("serve-mutate",)),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25, WORKLOAD_NAMES),
    EndToEnd("failed_share", "share", "lower", 0.0, WORKLOAD_NAMES, exact=True),
)
END_TO_END_BY_NAME: Dict[str, EndToEnd] = {metric.name: metric for metric in END_TO_END}

#: what BENCHMARK.json lists: defined on every workload and never zero
#: (``failed_share`` is zero on a healthy run; the contract's own
#: ``attempted`` / ``failed`` fields carry it instead)
DRIVER_END_TO_END: Tuple[str, ...] = tuple(
    metric.name
    for metric in END_TO_END
    if metric.workloads == WORKLOAD_NAMES and metric.name != "failed_share"
)

#: tail percentile and the samples a run must hold for it to have ten beyond it
TAILS: Dict[str, Tuple[float, int]] = {
    "solve_p95_ms": (95.0, 200),
    "resistance_p99_ms": (99.0, 1000),
}

#: (name, unit, better); values are totals over one run (set-up + measured)
#: unless the README glossary says otherwise; 0 = the layer was not exercised
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.generate_s", "s", "lower"),
    ("graphs.certify_s", "s", "lower"),
    ("registry.register_s", "s", "lower"),
    ("spanners.spanner_s", "s", "lower"),
    ("spanners.bundle_s", "s", "lower"),
    ("spanners.bundle_calls", "count", "lower"),
    ("spanners.stretch_max", "ratio", "lower"),
    ("sparsify.self_s", "s", "lower"),
    ("sparsify.edges_kept_share", "share", "lower"),
    ("sparsify.window_lo", "ratio", "higher"),
    ("sparsify.window_hi", "ratio", "lower"),
    ("solvers.prepare_self_s", "s", "lower"),
    ("solvers.kappa", "ratio", "lower"),
    ("solvers.chebyshev_iterations", "count", "lower"),
    ("solvers.chebyshev_s", "s", "lower"),
    ("solvers.rel_error_max", "ratio", "lower"),
    ("linalg.factorise_s", "s", "lower"),
    ("linalg.factorise_calls", "count", "lower"),
    ("linalg.splu_solve_s", "s", "lower"),
    ("linalg.oracle_build_s", "s", "lower"),
    ("linalg.sketch_build_s", "s", "lower"),
    ("linalg.sketch_k", "count", "lower"),
    ("linalg.sketch_max_rel_error", "ratio", "lower"),
    ("linalg.pair_query_s", "s", "lower"),
    ("lp.ipm_iterations", "count", "lower"),
    ("lp.ipm_self_s", "s", "lower"),
    ("lp.gram_solves", "count", "lower"),
    ("lp.gram_factorisations", "count", "lower"),
    ("lp.gram_cache_hits", "count", "higher"),
    ("lp.gram_factorise_s", "s", "lower"),
    ("lp.gram_ladder_share", "share", "higher"),
    ("flow.phase1_s", "s", "lower"),
    ("flow.rounding_fallback", "count", "lower"),
    ("flow.exact", "share", "higher"),
    ("congest.rounds_spanner", "rounds", "lower"),
    ("congest.rounds_sparsify", "rounds", "lower"),
    ("congest.rounds_solve", "rounds", "lower"),
    ("congest.rounds_flow", "rounds", "lower"),
    ("congest.rounds_over_bound", "ratio", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.batch_occupancy", "ratio", "higher"),
    ("service.rejected", "count", "lower"),
    ("planner.plan_s", "s", "lower"),
    ("planner.execute_self_s", "s", "lower"),
    ("planner.repairs", "count", "higher"),
    ("planner.rebuilds", "count", "lower"),
    ("planner.repair_share", "share", "higher"),
    ("planner.degraded", "count", "lower"),
    ("artifacts.hit_rate", "share", "higher"),
    ("artifacts.build_s", "s", "lower"),
    ("artifacts.cache_mb", "MB", "lower"),
    ("artifacts.pending_repairs_max", "count", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.breaker_opens", "count", "lower"),
    ("cluster.overhead_ms_p50", "ms", "lower"),
    ("cluster.overhead_ms_p99", "ms", "lower"),
    ("cluster.request_pickle_bytes_p50", "B", "lower"),
    ("cluster.reply_pickle_bytes_p50", "B", "lower"),
    ("cluster.spawn_s", "s", "lower"),
    ("shm.published_mb", "MB", "lower"),
    ("worker.service_ms_p50", "ms", "lower"),
    ("bench.tracing_overhead_share", "share", "lower"),
    ("bench.loadavg_start", "load", "lower"),
)

#: per-layer metrics read off span aggregates: name -> (span name, field)
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "graphs.generate_s": ("graphs.generate", "total_s"),
    "graphs.certify_s": ("graphs.certify", "total_s"),
    "registry.register_s": ("registry.register", "total_s"),
    "spanners.spanner_s": ("spanners.spanner", "total_s"),
    "spanners.bundle_s": ("spanners.bundle", "total_s"),
    "spanners.bundle_calls": ("spanners.bundle", "count"),
    "sparsify.self_s": ("sparsify.sparsify", "self_s"),
    "solvers.prepare_self_s": ("solvers.prepare", "self_s"),
    "solvers.chebyshev_s": ("solvers.chebyshev", "total_s"),
    "linalg.factorise_s": ("linalg.factorise", "total_s"),
    "linalg.factorise_calls": ("linalg.factorise", "count"),
    "linalg.splu_solve_s": ("linalg.splu_solve", "total_s"),
    "linalg.oracle_build_s": ("linalg.oracle_build", "total_s"),
    "linalg.sketch_build_s": ("linalg.sketch_build", "total_s"),
    "linalg.pair_query_s": ("linalg.pair_query", "total_s"),
    "lp.ipm_self_s": ("lp.ipm", "self_s"),
    "flow.phase1_s": ("flow.phase1", "total_s"),
    "planner.plan_s": ("planner.plan", "total_s"),
    "planner.execute_self_s": ("planner.execute", "self_s"),
}

#: counts ``--compare`` requires to be identical between two runs of one seed
EXACT_COUNTS: Tuple[str, ...] = (
    "planner.repairs",
    "planner.rebuilds",
    "lp.gram_factorisations",
    "solvers.chebyshev_iterations",
)


def samples_beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None below two values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else None
