"""The serving tier's throughput floors, measured end to end on seeded graphs.

What the batched Laplacian query service exists for, each held to a floor
well under what it measures:

* **cold vs warm cache** on random-2000 -- a cold query pays solver
  construction (sparsifier + factorisation), a warm one reuses the cached
  artifacts: warm >= 5x cold.
* **sequential vs batched resistances** on random-2000 -- 64 scalar queries
  against one coalesced batch through the cached oracle: batch >= 3x.
* **sketched vs splu** on grid-100x100 -- above the dense-oracle gate an
  ``eta``-bounded batch is served from the JL-sketched oracle instead of
  per-batch triangular solves: >= 5x, with the measured max relative error
  against the exact path <= ``eta`` for every ``eta`` swept (on grid-200x200
  too).
* **repair vs rebuild** on grid-100x100 -- one ``add_edge`` on the warm
  service, absorbed by low-rank repairs, against the same queries after
  ``cache.clear()``: repair >= 10x, answers agree to 1e-8.
* **a sustained mutate/query stream** on grid-100x100 -- a mutation every
  third tick: served by repairs alone, and its p99 tick latency <= 5x the
  mutation-free p99.
* **resilience overhead** on grid-100x100 -- the warm workload under a 1 %
  transient build-failure rate costs <= 2x fault-free, with no failed query.

Every workload is measured once per session (``measure``) and the floors
read the recorded stats.  The measurements themselves assert that batched
and sequential answers agree and that repaired and rebuilt answers agree, on
every workload.  Marked ``slow``: the whole module takes about half a minute.
"""

import functools
import os
import time

import numpy as np
import pytest
from reference_generators import edge_list, watts_strogatz

from repro.graphs import generators
from repro.serve import ArtifactCache, FaultPlan, FaultRule, LaplacianService
from repro.solvers import BCCLaplacianSolver

pytestmark = pytest.mark.slow

#: sparsifier iteration knob used everywhere (paper constants swallow small n)
T_OVERRIDE = 2

#: queries per warm-phase measurement
WARM_QUERIES = 8

#: resistance batch size of the coalescing measurement
RESISTANCE_BATCH = 64

#: accuracy bounds swept on the large-n workloads; the first is the headline
ETA_SWEEP = (0.5, 0.25)

#: floors on random-2000
WARM_SPEEDUP_FLOOR = 5.0
BATCH_SPEEDUP_FLOOR = 3.0

#: floors and ceilings on grid-100x100
SKETCH_VS_SPLU_FLOOR = 5.0
MUTATION_SPEEDUP_FLOOR = 10.0
RESILIENCE_SLOWDOWN_CEILING = 2.0
STREAM_CLIFF_CEILING = 5.0

#: injected transient build-failure probability of the resilience measurement
RESILIENCE_FAULT_RATE = 0.01

#: warm workload repetitions timed by the resilience measurement
RESILIENCE_ROUNDS = 3

#: repaired and rebuilt answers must agree to this on the exact path
MUTATION_AGREEMENT_ATOL = 1e-8

#: ticks per phase of the mutate/query stream, one mutation every third
#: tick of its mutation phase, resistance pairs per tick
STREAM_TICKS = 60
STREAM_MUTATE_EVERY = 3
STREAM_PAIRS = 64

#: pairs in the post-mutation resistance probe
MUTATION_PAIRS = 32

#: cache budget for the large-n cases (an eta=0.25 sketch of the 200x200
#: grid alone weighs ~280 MiB; the default budget would thrash)
SKETCH_CACHE_BYTES = 1 << 30

#: BLAS threads must be pinned before numpy loads for the p99 ceiling to
#: measure the service: on two cores a threaded gemm contends with SuperLU
#: (the cliff ratio read 3.4x and 5.8x unpinned, 1.5x and 1.7x pinned)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: name -> (graph factory, mode).  ``standard`` is the exact serving path;
#: ``sketch`` adds the eta sweep; ``sketch-only`` skips the solve phase (a
#: cold sparsifier build at n = 4*10^4 measures nothing new)
WORKLOADS = {
    "random-512": (lambda: generators.random_weighted_graph(512, average_degree=8, seed=7), "standard"),
    "random-2000": (lambda: generators.random_weighted_graph(2000, average_degree=8, seed=7), "standard"),
    "barabasi-albert-2000": (lambda: generators.barabasi_albert(2000, attach=4, seed=11), "standard"),
    "watts-strogatz-2000": (lambda: watts_strogatz(2000, k=6, beta=0.1, seed=13), "standard"),
    "grid-100x100": (lambda: generators.grid_graph(100, 100), "sketch"),
    "grid-200x200": (lambda: generators.grid_graph(200, 200), "sketch-only"),
}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _random_pairs(rng, n, count):
    return [(int(u), int(v)) for u, v in zip(rng.integers(0, n, count), rng.integers(0, n, count))]


def _measure_solves(service, key, graph):
    """Cold per-query construction vs warm cached solves."""
    rng = np.random.default_rng(42)
    rhs = [rng.normal(size=graph.n) for _ in range(WARM_QUERIES)]
    _, cold_seconds = _timed(
        lambda: BCCLaplacianSolver(graph, seed=0, t_override=T_OVERRIDE).solve(rhs[0], eps=1e-6)
    )
    service.solve(key, rhs[0], eps=1e-6)  # populate the cache
    _, warm_total = _timed(lambda: [service.solve(key, b, eps=1e-6) for b in rhs])
    return {"warm_speedup": cold_seconds / max(warm_total / WARM_QUERIES, 1e-12)}


def _measure_eta_sweep(service, key, pairs, exact_values, batched_exact_seconds):
    """Sketched serving at each accuracy bound, with measured error vs exact."""
    sweep = []
    positive = np.isfinite(exact_values) & (exact_values > 0)
    for eta in ETA_SWEEP:
        service.effective_resistances(key, pairs, eta=eta)  # pays the sketch build
        sequential = [service.effective_resistance(key, u, v, eta=eta) for u, v in pairs]
        batched, batched_seconds = _timed(lambda: service.effective_resistances(key, pairs, eta=eta))
        np.testing.assert_allclose(batched, sequential, rtol=1e-6, atol=1e-12)
        relative = np.abs(batched[positive] - exact_values[positive]) / exact_values[positive]
        sweep.append({
            "eta": eta,
            "sketch_vs_splu_speedup": batched_exact_seconds / max(batched_seconds, 1e-12),
            "max_rel_error": float(relative.max()),
        })
    return sweep


def _measure_mutation(service, key, graph, mode):
    """One ``add_edge`` on the warm service: repair vs cold rebuild.

    The repaired timing covers the first post-mutation queries, which pull
    the whole repair path; the rebuild timing covers the same queries after
    ``cache.clear()``, i.e. what every mutation would cost without repair.
    """
    rng = np.random.default_rng(44)
    pairs = _random_pairs(rng, graph.n, MUTATION_PAIRS)
    b = rng.normal(size=graph.n)
    u, v = 0, next(w for w in range(graph.n - 1, 0, -1) if not graph.has_edge(0, w))

    def post_mutation_queries():
        values = {"resistances": service.effective_resistances(key, pairs)}
        if mode != "standard":
            values["sketched"] = service.effective_resistances(key, pairs, eta=ETA_SWEEP[0])
        if mode != "sketch-only":
            values["solution"] = service.solve(key, b, eps=1e-6).solution
        return values

    graph.add_edge(u, v, 1.0)
    repaired, repaired_seconds = _timed(post_mutation_queries)
    service.cache.clear()
    rebuilt, rebuild_seconds = _timed(post_mutation_queries)
    agreement = float(
        np.abs(np.asarray(repaired["resistances"]) - np.asarray(rebuilt["resistances"])).max()
    )
    assert agreement <= MUTATION_AGREEMENT_ATOL, agreement
    return {"mutation_speedup": rebuild_seconds / max(repaired_seconds, 1e-12)}


def _measure_mutation_stream(service, key, graph):
    """A mutation-free phase of resistance ticks, then one with a mutation every third tick.

    Mutations rotate add / reweight / removal (removals take back edges the
    stream added, so no component splits).  Ticks do not solve: a weight
    decrease can break the sparsifier's spectral sandwich, so a
    solve-after-removal pays a documented rebuild.  Ends with a
    fresh-rebuild reference agreement check at 1e-8.
    """
    rng = np.random.default_rng(46)
    added = []

    def tick():
        pairs = _random_pairs(rng, graph.n, STREAM_PAIRS)
        service.effective_resistances(key, pairs)
        service.effective_resistances(key, pairs, eta=ETA_SWEEP[0])

    def mutate(step):
        op = ("add", "update", "remove")[step % 3]
        if op == "remove" and added:
            graph.remove_edge(*added.pop())
        elif op == "update":
            edges = edge_list(graph)
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
        latencies, mutations = [], 0
        for step in range(STREAM_TICKS):
            if mutating and step % STREAM_MUTATE_EVERY == 0:
                mutate(mutations)
                mutations += 1
            latencies.append(_timed(tick)[1])
        return np.asarray(latencies)

    tick()  # warm every artifact the ticks touch before timing anything
    clean = phase(mutating=False)
    repairs_before = service.cache.stats.repairs
    misses_before = service.cache.stats.misses
    stream = phase(mutating=True)

    probe = _random_pairs(rng, graph.n, STREAM_PAIRS)
    got = np.asarray(service.effective_resistances(key, probe))
    with LaplacianService(t_override=T_OVERRIDE, auto_flush=False, repair=False) as reference:
        want = np.asarray(reference.effective_resistances(reference.register(graph), probe))
    np.testing.assert_allclose(got, want, rtol=0, atol=MUTATION_AGREEMENT_ATOL)
    return {
        "stream_cliff_ratio": np.percentile(stream, 99) / max(np.percentile(clean, 99), 1e-12),
        "stream_repairs": service.cache.stats.repairs - repairs_before,
        "stream_rebuilds": service.cache.stats.misses - misses_before,
    }


@functools.lru_cache(maxsize=None)
def measure(name):
    """Serve one workload end to end; the stats every floor reads."""
    factory, mode = WORKLOADS[name]
    graph = factory()
    cache = ArtifactCache(max_bytes=SKETCH_CACHE_BYTES) if mode != "standard" else None
    service = LaplacianService(t_override=T_OVERRIDE, auto_flush=False, cache=cache)
    key = service.register(graph, name=name)
    stats = {}
    if mode != "sketch-only":
        stats.update(_measure_solves(service, key, graph))

    rng = np.random.default_rng(42)
    rng.normal(size=graph.n * WARM_QUERIES)  # the same pair stream in every mode
    pairs = _random_pairs(rng, graph.n, RESISTANCE_BATCH)
    service.effective_resistance(key, *pairs[0])  # warm the factorisation
    sequential, sequential_seconds = _timed(
        lambda: [service.effective_resistance(key, u, v) for u, v in pairs]
    )
    batched, batched_seconds = _timed(lambda: service.effective_resistances(key, pairs))
    np.testing.assert_allclose(batched, sequential, rtol=1e-9, atol=1e-12)
    stats["batch_speedup"] = sequential_seconds / max(batched_seconds, 1e-12)
    if mode != "standard":
        stats["eta_sweep"] = _measure_eta_sweep(
            service, key, pairs, np.asarray(batched), batched_seconds
        )
    # mutate last: the repair measurement wants the warm stack, and its
    # rebuild baseline leaves the stream a sketch with full eta headroom
    stats.update(_measure_mutation(service, key, graph, mode))
    if name == "grid-100x100":
        stats.update(_measure_mutation_stream(service, key, graph))
    service.close()
    return stats


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_agrees_and_keeps_its_accuracy_contract(name):
    stats = measure(name)  # asserts batched = sequential and repaired = rebuilt
    for entry in stats.get("eta_sweep", ()):
        assert entry["max_rel_error"] <= entry["eta"], entry


def test_warm_and_batched_speedups_on_random_2000():
    stats = measure("random-2000")
    assert stats["warm_speedup"] >= WARM_SPEEDUP_FLOOR, stats
    assert stats["batch_speedup"] >= BATCH_SPEEDUP_FLOOR, stats


def test_sketch_and_repair_speedups_on_grid_100x100():
    stats = measure("grid-100x100")
    assert stats["eta_sweep"][0]["sketch_vs_splu_speedup"] >= SKETCH_VS_SPLU_FLOOR, stats
    assert stats["mutation_speedup"] >= MUTATION_SPEEDUP_FLOOR, stats


def test_mutation_stream_is_served_by_repairs_alone():
    stats = measure("grid-100x100")
    assert stats["stream_repairs"] > 0 and stats["stream_rebuilds"] == 0, stats


def test_mutation_stream_p99_does_not_cliff():
    unpinned = [name for name in THREAD_VARIABLES if os.environ.get(name) != "1"]
    if unpinned:
        pytest.skip(f"needs {', '.join(THREAD_VARIABLES)} set to 1; not 1: {', '.join(unpinned)}")
    stats = measure("grid-100x100")
    assert stats["stream_cliff_ratio"] <= STREAM_CLIFF_CEILING, stats


def test_transient_faults_cost_at_most_twice_fault_free():
    """The warm grid-100x100 workload, fault-free and under 1 % transient build failures.

    Both services prime cold (where the injected failures fire and the retry
    policy absorbs them); then the warm steady state is timed, where the
    containment machinery's only cost is per-batch seam checks and retry
    wrapping.
    """
    plan = FaultPlan(
        (FaultRule(op="build", probability=RESILIENCE_FAULT_RATE, transient=True),), seed=3
    )
    factory, _ = WORKLOADS["grid-100x100"]
    timings = {}
    for label, faults in (("fault_free", None), ("faulted", plan)):
        service = LaplacianService(
            t_override=T_OVERRIDE,
            auto_flush=False,
            cache=ArtifactCache(max_bytes=SKETCH_CACHE_BYTES),
        )
        service.arm_faults(faults)
        graph = factory()
        key = service.register(graph)
        rng = np.random.default_rng(45)
        rhs = [rng.normal(size=graph.n) for _ in range(WARM_QUERIES)]
        pairs = _random_pairs(rng, graph.n, RESISTANCE_BATCH)

        def workload():
            for b in rhs:
                service.solve(key, b, eps=1e-6)
            service.effective_resistances(key, pairs)

        workload()  # prime cold
        _, timings[label] = _timed(lambda: [workload() for _ in range(RESILIENCE_ROUNDS)])
        assert service.metrics_snapshot()["failures_total"] == 0, label
        service.close()
    slowdown = timings["faulted"] / max(timings["fault_free"], 1e-12)
    assert slowdown <= RESILIENCE_SLOWDOWN_CEILING, timings
