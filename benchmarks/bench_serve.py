"""E-serve -- throughput benchmark of the batched Laplacian query service.

Measures the three amortisations the serving layer exists for and appends the
measurements to a ``BENCH_serve.json`` trajectory at the repo root:

* **cold vs warm cache** -- a cold query pays per-query solver construction
  (sparsifier + factorisation); a warm query reuses the cached artifacts.
  The floor asserted at ``n = 2000`` is a 5x speedup.
* **batch=1 vs batch=64** -- 64 sequential effective-resistance queries vs
  one coalesced batch through the cached oracle.  The floor asserted at
  ``n = 2000`` is 3x.
* **sketched vs splu fallback** -- above the dense-oracle gate
  (``n > RESISTANCE_ORACLE_LIMIT``), ``eta``-bounded resistance batches are
  served from the JL-sketched oracle instead of per-batch triangular solves.
  The ``eta`` sweep records, per accuracy bound: sketch dimension ``k``,
  build time, batched serving time, speedup over the splu fallback, and the
  *measured* max relative error against the exact path (the accuracy
  contract, must stay <= eta).  The floor asserted on grid-100x100 is a 5x
  win for the sketched batch over the splu batch -- well under the measured
  two-orders-of-magnitude gain, like the other floors.
* **resilience overhead** -- the same grid-100x100 warm workload served
  fault-free and under a 1% *transient* injected build-failure rate
  (``FaultPlan``/``FaultRule``, retried with the default backoff policy).
  The containment machinery -- injector seams on every batch, retry
  wrapping, breaker bookkeeping -- must not tax healthy serving: the floor
  asserts the faulted warm workload stays within 2x of fault-free.
* **repair vs rebuild under mutation** -- a single ``add_edge`` on a
  registered graph invalidates the whole warm artifact stack; the repair
  path absorbs it with low-rank updates (Sherman-Morrison on the grounded
  factorisation and dense oracle, an embedding row-append on any cached
  sketches, a kappa-preserving edge-add on the solver preprocessing) while
  the rebuild path pays cold construction again.  The measurement mutates
  the warm service, times the first post-mutation queries, then clears the
  cache and times the same queries cold; repaired and rebuilt resistance
  answers must agree to 1e-8, and the floor asserted on grid-100x100
  (``n = 10^4``) is a 10x repair win -- the ISSUE 5 acceptance criterion.
* **sustained mutate/query stream** -- an interleaved stream of queries and
  add/reweight/remove mutations against the lazily-repairing warm service:
  per-tick latencies of a mutation-free phase vs a phase with a mutation
  every third tick.  Because repair is deferred to first lookup and costs a
  handful of rank-1 updates, tail latency must not cliff on a mutation: the
  ceiling asserted on grid-100x100 (the ROADMAP sketch-workload target) is
  ``p99(mutation phase) <= 5x p99(clean phase)``, with end-of-stream answers
  agreeing with a fresh-rebuild reference to 1e-8 and the cache stats proving
  the stream was served by repairs alone -- the ISSUE 10 acceptance
  criterion.

Workloads cover the scenario spread: random weighted graphs at
``n in {512, 2000}``, a Barabasi-Albert power-law graph, a Watts-Strogatz
small-world graph (exact-path cases, untouched by the sketch), plus a
``100 x 100`` grid (``n = 10^4``) and a ``200 x 200`` grid (``n = 4*10^4``,
resistance serving only -- the point of the sketched oracle) as the large-n
cases.  Runs as a plain script (what CI executes) or as an explicitly named
pytest-benchmark module (directory collection only picks up ``test_*.py``):

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py --benchmark-only
"""

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

# One BLAS thread, pinned before numpy loads, as benchmarks/suite/run.py does:
# on two cores a threaded gemm contends with SuperLU, and the grid cliff ratio
# then measures the box (3.4x and 5.8x against the 5x ceiling in two runs with
# default threads on a 2-core box, 1.5x and 1.7x pinned).  Run as a script for
# this to hold; under pytest numpy is loaded before this line.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np
import pytest

from repro.graphs import generators
from repro.linalg.jl import resistance_sketch_dimension
from repro.serve import ArtifactCache, FaultPlan, FaultRule, LaplacianService
from repro.solvers import BCCLaplacianSolver

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: sparsifier iteration knob used everywhere (paper constants swallow small n)
T_OVERRIDE = 2

#: queries per warm-phase measurement
WARM_QUERIES = 8

#: resistance batch size of the coalescing measurement
RESISTANCE_BATCH = 64

#: accuracy bounds swept on the large-n workloads; the first is the headline
ETA_SWEEP = (0.5, 0.25)

#: asserted floors at n = 2000 (the ISSUE 3 acceptance criteria)
WARM_SPEEDUP_FLOOR = 5.0
BATCH_SPEEDUP_FLOOR = 3.0

#: asserted floor on grid-100x100: sketched batch vs splu-fallback batch
SKETCH_VS_SPLU_FLOOR = 5.0

#: asserted floor on grid-100x100: post-mutation repaired path vs cold rebuild
MUTATION_SPEEDUP_FLOOR = 10.0

#: asserted ceiling on grid-100x100: warm workload under a 1% transient
#: build-failure rate vs the identical fault-free workload
RESILIENCE_SLOWDOWN_CEILING = 2.0

#: injected transient build-failure probability of the resilience measurement
RESILIENCE_FAULT_RATE = 0.01

#: warm workload repetitions timed by the resilience measurement
RESILIENCE_ROUNDS = 3

#: repaired and rebuilt answers must agree to this on the exact path
MUTATION_AGREEMENT_ATOL = 1e-8

#: ticks per phase of the sustained mutate/query stream measurement
STREAM_TICKS = 60

#: one mutation lands every this-many ticks of the stream's mutation phase
STREAM_MUTATE_EVERY = 3

#: resistance pairs per stream tick
STREAM_PAIRS = 64

#: asserted ceiling: p99 tick latency under sustained mutation vs clean
STREAM_CLIFF_CEILING = 5.0

#: pairs in the post-mutation resistance probe
MUTATION_PAIRS = 32

#: cache budget for the large-n cases (an eta=0.25 sketch of the 200x200
#: grid alone weighs ~280 MiB; the default budget would thrash)
SKETCH_CACHE_BYTES = 1 << 30


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def make_workloads():
    """Named seeded workloads with their measurement mode.

    ``standard`` is the exact serving path (bit-identical to before the
    sketched oracle existed); ``sketch`` adds the eta sweep on top of the
    full case; ``sketch-only`` skips the solve phase (at n = 4*10^4 a cold
    sparsifier build would dominate the benchmark without measuring
    anything new) and benchmarks resistance serving alone.
    """
    return [
        ("random-512", lambda: generators.random_weighted_graph(512, average_degree=8, seed=7), "standard"),
        ("random-2000", lambda: generators.random_weighted_graph(2000, average_degree=8, seed=7), "standard"),
        ("barabasi-albert-2000", lambda: generators.barabasi_albert(2000, attach=4, seed=11), "standard"),
        ("watts-strogatz-2000", lambda: generators.watts_strogatz(2000, k=6, beta=0.1, seed=13), "standard"),
        ("grid-100x100", lambda: generators.grid_graph(100, 100), "sketch"),
        ("grid-200x200", lambda: generators.grid_graph(200, 200), "sketch-only"),
    ]


def _measure_solves(service, key, graph, warm_queries):
    """Cold per-query construction vs warm cached solves."""
    rng = np.random.default_rng(42)
    rhs = [rng.normal(size=graph.n) for _ in range(warm_queries)]

    # cold per-query construction: what the facade did before the serving
    # layer existed -- build solver preprocessing from scratch for one query.
    def cold_query():
        solver = BCCLaplacianSolver(graph, seed=0, t_override=T_OVERRIDE)
        return solver.solve(rhs[0], eps=1e-6)

    _, cold_seconds = _timed(cold_query)
    service.solve(key, rhs[0], eps=1e-6)  # populate the cache
    _, warm_total = _timed(lambda: [service.solve(key, b, eps=1e-6) for b in rhs])
    warm_seconds = warm_total / warm_queries
    return {
        "cold_solve_seconds": round(cold_seconds, 4),
        "warm_solve_seconds": round(warm_seconds, 6),
        "warm_speedup": round(cold_seconds / max(warm_seconds, 1e-12), 2),
        "warm_queries_per_second": round(1.0 / max(warm_seconds, 1e-12), 1),
    }


def _measure_eta_sweep(service, key, graph, pairs, exact_values, batched_exact_seconds):
    """Sketched serving at each accuracy bound, with measured error vs exact."""
    sweep = []
    positive = np.isfinite(exact_values) & (exact_values > 0)
    for eta in ETA_SWEEP:
        _, prime_seconds = _timed(
            lambda: service.effective_resistances(key, pairs, eta=eta)
        )  # first bulk call pays the sketch build (k blocked grounded solves)
        sequential, sequential_seconds = _timed(
            lambda: [service.effective_resistance(key, u, v, eta=eta) for u, v in pairs]
        )
        batched, batched_seconds = _timed(
            lambda: service.effective_resistances(key, pairs, eta=eta)
        )
        np.testing.assert_allclose(batched, sequential, rtol=1e-6, atol=1e-12)
        relative = np.abs(batched[positive] - exact_values[positive]) / exact_values[positive]
        sweep.append({
            "eta": eta,
            "k": resistance_sketch_dimension(graph.m, eta),
            "prime_seconds": round(prime_seconds, 4),
            "sequential_seconds": round(sequential_seconds, 4),
            "batched_seconds": round(batched_seconds, 6),
            "batch_speedup": round(sequential_seconds / max(batched_seconds, 1e-12), 2),
            "sketch_vs_splu_speedup": round(
                batched_exact_seconds / max(batched_seconds, 1e-12), 2
            ),
            "max_rel_error": round(float(relative.max()), 4),
        })
    return sweep


def _fresh_edge(graph):
    """A vertex pair with no edge yet (the mutation the benchmark injects)."""
    for v in range(graph.n - 1, 0, -1):
        if not graph.has_edge(0, v):
            return 0, v
    raise RuntimeError("graph is complete; no fresh edge to insert")


def _measure_mutation(service, key, graph, mode):
    """Single-edge ``add_edge`` on the warm service: repair vs cold rebuild.

    Runs last in a case, against the fully warmed artifact stack (solver
    preprocessing, grounded factorisation, dense or sketched oracles).  The
    repaired timing covers the first post-mutation queries -- which pull the
    whole repair path -- and the rebuild timing covers the same queries after
    ``cache.clear()``, i.e. what every mutation used to cost.
    """
    rng = np.random.default_rng(44)
    pairs = [
        (int(u), int(v))
        for u, v in zip(
            rng.integers(0, graph.n, MUTATION_PAIRS),
            rng.integers(0, graph.n, MUTATION_PAIRS),
        )
    ]
    b = rng.normal(size=graph.n)
    u, v = _fresh_edge(graph)

    def post_mutation_queries():
        values = {"resistances": service.effective_resistances(key, pairs)}
        if mode != "standard":
            # the sketched regime is this workload's point: the repaired path
            # appends a row to the cached sketch, the rebuild path pays the
            # k blocked solves of a fresh one
            values["sketched"] = service.effective_resistances(
                key, pairs, eta=ETA_SWEEP[0]
            )
        if mode != "sketch-only":
            values["solution"] = service.solve(key, b, eps=1e-6).solution
        return values

    repairs_before = service.cache.stats.repairs
    graph.add_edge(u, v, 1.0)
    repaired, repaired_seconds = _timed(post_mutation_queries)
    artifacts_repaired = service.cache.stats.repairs - repairs_before

    service.cache.clear()  # the pre-repair world: every mutation rebuilds
    rebuilt, rebuild_seconds = _timed(post_mutation_queries)

    agreement = float(
        np.abs(np.asarray(repaired["resistances"]) - np.asarray(rebuilt["resistances"])).max()
    )
    np.testing.assert_allclose(
        repaired["resistances"],
        rebuilt["resistances"],
        rtol=0,
        atol=MUTATION_AGREEMENT_ATOL,
    )
    stats = {
        "mutation_repaired_seconds": round(repaired_seconds, 4),
        "mutation_rebuild_seconds": round(rebuild_seconds, 4),
        "mutation_speedup": round(rebuild_seconds / max(repaired_seconds, 1e-12), 2),
        "mutation_artifacts_repaired": artifacts_repaired,
        "mutation_resistance_agreement": agreement,
    }
    if mode != "sketch-only":
        x_rep, x_reb = repaired["solution"], rebuilt["solution"]
        stats["mutation_solve_rel_diff"] = round(
            float(np.linalg.norm(x_rep - x_reb) / max(np.linalg.norm(x_reb), 1e-300)), 10
        )
    return stats


def _measure_mutation_stream(service, key, graph, mode):
    """Sustained interleaved mutate/query stream: tail latency must not cliff.

    Two equal phases of identical resistance-serving ticks (an exact batch,
    plus a sketched batch in sketch modes): a mutation-free baseline, then a
    phase where every :data:`STREAM_MUTATE_EVERY`-th tick is preceded by a
    mutation (rotating add / reweight / removal; removals take back edges the
    stream itself added, so they never split a component).  Ticks do not
    solve: the solver preprocessing's kappa-preserving repair is
    insertion-only by design (a weight decrease can break the sparsifier's
    spectral sandwich), so a solve-after-removal pays a documented rebuild --
    and under lazy repair a stream that never solves never pays it, which is
    exactly the property this measurement pins down on the resistance plane
    where removals ARE repairable end to end.
    With lazy repair each mutation's cost is a few rank-1 updates paid by the
    next lookup, so the mutation phase's p99 tick latency stays within
    :data:`STREAM_CLIFF_CEILING` of the clean phase's -- the rebuild world
    would pay cold construction (100-1000x a tick) on every mutation.  Ends
    with a fresh-rebuild reference agreement check at 1e-8 on the exact path.
    """
    rng = np.random.default_rng(46)
    added = []

    def pick_pairs():
        return [
            (int(u), int(v))
            for u, v in zip(
                rng.integers(0, graph.n, STREAM_PAIRS),
                rng.integers(0, graph.n, STREAM_PAIRS),
            )
        ]

    def tick():
        pairs = pick_pairs()
        service.effective_resistances(key, pairs)
        if mode != "standard":
            service.effective_resistances(key, pairs, eta=ETA_SWEEP[0])

    def mutate(step):
        op = ("add", "update", "remove")[step % 3]
        if op == "remove" and added:
            u, v = added.pop()
            graph.remove_edge(u, v)
        elif op == "update":
            edges = graph.edge_list()
            u, v, w = edges[int(rng.integers(0, len(edges)))]
            graph.add_edge(u, v, w + float(rng.uniform(0.1, 1.0)))
        else:
            while True:
                u, v = (int(x) for x in rng.integers(0, graph.n, 2))
                if u != v and not graph.has_edge(u, v):
                    break
            graph.add_edge(u, v, float(rng.uniform(0.5, 2.0)))
            added.append((u, v))

    def phase(mutating):
        latencies = []
        mutations = 0
        for step in range(STREAM_TICKS):
            if mutating and step % STREAM_MUTATE_EVERY == 0:
                mutate(mutations)
                mutations += 1
            _, seconds = _timed(tick)
            latencies.append(seconds)
        return np.asarray(latencies), mutations

    tick()  # warm every artifact the ticks touch before timing anything
    clean, _ = phase(mutating=False)
    repairs_before = service.cache.stats.repairs
    misses_before = service.cache.stats.misses
    stream, mutations = phase(mutating=True)
    repairs = service.cache.stats.repairs - repairs_before
    rebuilds = service.cache.stats.misses - misses_before

    # end-of-stream differential check: the lazily repaired service must
    # agree with a from-scratch reference on the final graph, inf included
    probe = pick_pairs()
    got = np.asarray(service.effective_resistances(key, probe))
    reference = LaplacianService(t_override=T_OVERRIDE, auto_flush=False, repair=False)
    ref_key = reference.register(graph)
    want = np.asarray(reference.effective_resistances(ref_key, probe))
    reference.close()
    agreement = float(np.abs(got - want).max())
    np.testing.assert_allclose(got, want, rtol=0, atol=MUTATION_AGREEMENT_ATOL)

    clean_p99 = float(np.percentile(clean, 99))
    stream_p99 = float(np.percentile(stream, 99))
    return {
        "stream_ticks": int(STREAM_TICKS),
        "stream_mutations": mutations,
        "stream_clean_p99_ms": round(clean_p99 * 1000, 3),
        "stream_mutation_p99_ms": round(stream_p99 * 1000, 3),
        "stream_cliff_ratio": round(stream_p99 / max(clean_p99, 1e-12), 2),
        "stream_repairs": repairs,
        "stream_rebuilds": rebuilds,
        "stream_agreement": agreement,
    }


def _measure_resilience(graph_factory):
    """Warm-workload cost of serving under a 1% transient build-failure rate.

    Two services, identical seeded workloads: one fault-free, one armed with
    a probabilistic transient ``build`` rule.  Both prime cold (where the
    injected failures actually fire and the retry policy absorbs them), then
    the *warm* workload is timed -- the steady state a production service
    lives in, where the containment machinery's only legitimate cost is the
    per-batch seam checks and retry wrapping.
    """
    plan = FaultPlan(
        (FaultRule(op="build", probability=RESILIENCE_FAULT_RATE, transient=True),),
        seed=3,
    )
    timings = {}
    ledger = {}
    for label, faults in (("fault_free", None), ("faulted", plan)):
        service = LaplacianService(
            t_override=T_OVERRIDE,
            auto_flush=False,
            cache=ArtifactCache(max_bytes=SKETCH_CACHE_BYTES),
            faults=faults,
        )
        graph = graph_factory()
        key = service.register(graph)
        rng = np.random.default_rng(45)
        rhs = [rng.normal(size=graph.n) for _ in range(WARM_QUERIES)]
        pairs = [
            (int(u), int(v))
            for u, v in zip(
                rng.integers(0, graph.n, RESISTANCE_BATCH),
                rng.integers(0, graph.n, RESISTANCE_BATCH),
            )
        ]

        def workload():
            for b in rhs:
                service.solve(key, b, eps=1e-6)
            service.effective_resistances(key, pairs)

        workload()  # prime cold: builds run (and injected flakes retry) here
        _, seconds = _timed(lambda: [workload() for _ in range(RESILIENCE_ROUNDS)])
        timings[label] = seconds
        if label == "faulted":
            snapshot = service.metrics_snapshot()
            ledger = {
                "resilience_retries": snapshot["retries_total"],
                "resilience_failures": snapshot["failures_total"],
            }
        service.close()
    return {
        "resilience_fault_rate": RESILIENCE_FAULT_RATE,
        "resilience_fault_free_seconds": round(timings["fault_free"], 4),
        "resilience_faulted_seconds": round(timings["faulted"], 4),
        "resilience_slowdown": round(
            timings["faulted"] / max(timings["fault_free"], 1e-12), 2
        ),
        **ledger,
    }


def run_case(
    name: str,
    graph,
    warm_queries: int = WARM_QUERIES,
    mode: str = "standard",
    stream: bool = False,
) -> dict:
    """Serve one workload; return cold/warm/batched throughput measurements."""
    cache = ArtifactCache(max_bytes=SKETCH_CACHE_BYTES) if mode != "standard" else None
    service = LaplacianService(t_override=T_OVERRIDE, auto_flush=False, cache=cache)
    key = service.register(graph, name=name)

    stats = {"case": name, "n": graph.n, "m": graph.m, "t_override": T_OVERRIDE, "mode": mode}
    if mode != "sketch-only":
        stats.update(_measure_solves(service, key, graph, warm_queries))

    rng = np.random.default_rng(42)
    rng.normal(size=graph.n * warm_queries)  # keep the pair stream stable across modes
    pairs = [
        (int(u), int(v))
        for u, v in zip(
            rng.integers(0, graph.n, RESISTANCE_BATCH),
            rng.integers(0, graph.n, RESISTANCE_BATCH),
        )
    ]
    service.effective_resistance(key, *pairs[0])  # warm the factorisation
    sequential, sequential_seconds = _timed(
        lambda: [service.effective_resistance(key, u, v) for u, v in pairs]
    )
    batched, batched_seconds = _timed(
        lambda: service.effective_resistances(key, pairs)
    )
    np.testing.assert_allclose(batched, sequential, rtol=1e-9, atol=1e-12)
    stats.update({
        "resistance_batch": RESISTANCE_BATCH,
        "sequential_resistance_seconds": round(sequential_seconds, 4),
        "batched_resistance_seconds": round(batched_seconds, 4),
        "batch_speedup": round(sequential_seconds / max(batched_seconds, 1e-12), 2),
    })

    if mode != "standard":
        sweep = _measure_eta_sweep(
            service, key, graph, pairs, np.asarray(batched), batched_seconds
        )
        headline = sweep[0]
        stats.update({
            # headline numbers come from the sketched path at the first eta;
            # the exact splu-fallback numbers stay recorded alongside
            "batch_speedup": headline["batch_speedup"],
            "batch_speedup_exact": round(
                sequential_seconds / max(batched_seconds, 1e-12), 2
            ),
            "eta": headline["eta"],
            "max_rel_error": headline["max_rel_error"],
            "sketch_vs_splu_speedup": headline["sketch_vs_splu_speedup"],
            "eta_sweep": sweep,
        })

    snapshot = service.metrics_snapshot()
    stats.update({
        "cache_hit_rate": round(snapshot["cache"]["hit_rate"], 4),
        "batch_occupancy": round(snapshot["batch_occupancy"], 2),
        "cache_bytes": snapshot["cache_bytes"],
    })
    # mutate last: the repair measurement wants the warm stack (and clears
    # the cache for its rebuild baseline, which would skew the stats above)
    stats.update(_measure_mutation(service, key, graph, mode))
    # the stream runs after: its rebuild baseline left the stack freshly
    # rebuilt, so the stream's 20 mutations get a sketch with full
    # eta_effective headroom (running it first would hand _measure_mutation
    # a sketch already at the accuracy boundary, turning its repair into a
    # legitimate-but-floor-breaking rebuild)
    if stream:
        stats.update(_measure_mutation_stream(service, key, graph, mode))
    service.close()
    return stats


def append_trajectory(cases) -> None:
    history = []
    if TRAJECTORY_PATH.exists():
        history = json.loads(TRAJECTORY_PATH.read_text())
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for case in cases:
        history.append({"timestamp": stamp, **case})
    TRAJECTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


# -- pytest entry points --------------------------------------------------------


@pytest.mark.parametrize(
    "name,factory", [(n, f) for n, f, mode in make_workloads() if mode == "standard"]
)
def test_serve_throughput(benchmark, name, factory):
    graph = factory()
    stats = benchmark.pedantic(lambda: run_case(name, graph), iterations=1, rounds=1)
    for key, value in stats.items():
        benchmark.extra_info[key] = value
    assert stats["warm_speedup"] >= 1.0


def test_serve_floors_at_n2000():
    """The ISSUE 3 acceptance floors, asserted on the n=2000 random workload."""
    graph = generators.random_weighted_graph(2000, average_degree=8, seed=7)
    stats = run_case("random-2000", graph)
    assert stats["warm_speedup"] >= WARM_SPEEDUP_FLOOR, (
        f"warm-cache speedup regressed below {WARM_SPEEDUP_FLOOR}x: {stats}"
    )
    assert stats["batch_speedup"] >= BATCH_SPEEDUP_FLOOR, (
        f"batched resistance speedup regressed below {BATCH_SPEEDUP_FLOOR}x: {stats}"
    )


# -- script entry point ---------------------------------------------------------


def _print_case(stats):
    parts = [f"{stats['case']:>22} (n={stats['n']}, m={stats['m']}):"]
    if "warm_speedup" in stats:
        parts.append(
            f"cold {stats['cold_solve_seconds']:.3f}s, "
            f"warm {stats['warm_solve_seconds']*1000:.1f}ms "
            f"({stats['warm_speedup']:.0f}x, {stats['warm_queries_per_second']:.0f} q/s),"
        )
    parts.append(f"ER batch={RESISTANCE_BATCH} {stats['batch_speedup']:.1f}x")
    if "eta_sweep" in stats:
        parts.append(
            f"[sketched eta={stats['eta']}: {stats['sketch_vs_splu_speedup']:.0f}x vs splu, "
            f"max_rel_err {stats['max_rel_error']:.3f}; exact path {stats['batch_speedup_exact']:.1f}x]"
        )
    if "mutation_speedup" in stats:
        parts.append(
            f"[mutate+query: repaired {stats['mutation_repaired_seconds']:.3f}s vs "
            f"rebuild {stats['mutation_rebuild_seconds']:.3f}s, "
            f"{stats['mutation_speedup']:.0f}x]"
        )
    if "stream_cliff_ratio" in stats:
        parts.append(
            f"[stream: {stats['stream_mutations']} mutations over "
            f"{stats['stream_ticks']} ticks, p99 {stats['stream_mutation_p99_ms']:.1f}ms "
            f"vs clean {stats['stream_clean_p99_ms']:.1f}ms "
            f"({stats['stream_cliff_ratio']:.2f}x), {stats['stream_repairs']} repairs]"
        )
    if "resilience_slowdown" in stats:
        parts.append(
            f"[{stats['resilience_fault_rate']:.0%} fault rate: "
            f"{stats['resilience_slowdown']:.2f}x of fault-free, "
            f"{stats['resilience_retries']} retries]"
        )
    print(" ".join(parts))


def main():
    cases = []
    for name, factory, mode in make_workloads():
        graph = factory()
        stats = run_case(name, graph, mode=mode, stream=name == "grid-100x100")
        if name == "grid-100x100":
            stats.update(_measure_resilience(factory))
        cases.append(stats)
        _print_case(stats)
    append_trajectory(cases)
    by_case = {c["case"]: c for c in cases}
    floors = by_case["random-2000"]
    if floors["warm_speedup"] < WARM_SPEEDUP_FLOOR:
        raise SystemExit(
            f"FAIL: warm-cache speedup {floors['warm_speedup']}x below floor "
            f"{WARM_SPEEDUP_FLOOR}x at n=2000"
        )
    if floors["batch_speedup"] < BATCH_SPEEDUP_FLOOR:
        raise SystemExit(
            f"FAIL: batched resistance speedup {floors['batch_speedup']}x below "
            f"floor {BATCH_SPEEDUP_FLOOR}x at n=2000"
        )
    grid = by_case["grid-100x100"]
    if grid["sketch_vs_splu_speedup"] < SKETCH_VS_SPLU_FLOOR:
        raise SystemExit(
            f"FAIL: sketched resistance batch {grid['sketch_vs_splu_speedup']}x over "
            f"the splu fallback, below floor {SKETCH_VS_SPLU_FLOOR}x on grid-100x100"
        )
    if grid["mutation_speedup"] < MUTATION_SPEEDUP_FLOOR:
        raise SystemExit(
            f"FAIL: post-mutation repaired path {grid['mutation_speedup']}x over the "
            f"cold rebuild, below floor {MUTATION_SPEEDUP_FLOOR}x on grid-100x100"
        )
    if grid["resilience_slowdown"] > RESILIENCE_SLOWDOWN_CEILING:
        raise SystemExit(
            f"FAIL: warm workload under {RESILIENCE_FAULT_RATE:.0%} injected "
            f"build-failure rate is {grid['resilience_slowdown']}x fault-free, "
            f"above the {RESILIENCE_SLOWDOWN_CEILING}x ceiling on grid-100x100"
        )
    if grid["stream_cliff_ratio"] > STREAM_CLIFF_CEILING:
        raise SystemExit(
            f"FAIL: grid-100x100 p99 tick latency under sustained mutation is "
            f"{grid['stream_cliff_ratio']}x the mutation-free p99, above the "
            f"{STREAM_CLIFF_CEILING}x no-cliff ceiling"
        )
    if grid["stream_repairs"] == 0 or grid["stream_rebuilds"] != 0:
        raise SystemExit(
            f"FAIL: grid-100x100 mutation stream was not served by repairs alone "
            f"({grid['stream_repairs']} repairs, {grid['stream_rebuilds']} rebuilds)"
        )
    if grid["resilience_failures"] != 0:
        raise SystemExit(
            f"FAIL: {grid['resilience_failures']} queries failed under the "
            f"transient fault plan; retries should have absorbed every flake"
        )
    for case in cases:
        for entry in case.get("eta_sweep", ()):
            if entry["max_rel_error"] > entry["eta"]:
                raise SystemExit(
                    f"FAIL: {case['case']} eta={entry['eta']} measured max relative "
                    f"error {entry['max_rel_error']} breaks the accuracy contract"
                )
    print(f"PASS (trajectory appended to {TRAJECTORY_PATH.name})")


if __name__ == "__main__":
    main()
