"""Laziness properties of the pending-delta repair ledger.

The tentpole contract: mutating a registered graph does *zero* repair or
build work up front.  The planner stashes the delta in the cache's pending
ledger and every stale artifact pays its repair on its own first lookup --
or never, if it is never looked up again.  Fault-injector fire counters
(``op="repair"`` / ``op="build"`` rules with ``fail=False`` count without
failing) and the cache's counters are the observables.
"""

import numpy as np
import pytest

from repro.graphs import generators
from repro.serve import ArtifactCache, LaplacianService
from repro.serve.artifacts import PENDING_SOURCE_LIMIT, PENDING_TARGET_LIMIT
from repro.serve.faults import FaultPlan, FaultRule

T_OVERRIDE = 2
PAIRS = [(0, 5), (1, 9), (10, 250), (7, 120)]


def make_service(**kwargs):
    kwargs.setdefault("t_override", T_OVERRIDE)
    kwargs.setdefault("auto_flush", False)
    return LaplacianService(**kwargs)


@pytest.fixture
def graph():
    return generators.random_weighted_graph(300, average_degree=8, seed=7)


class TestZeroWorkUntilLookup:
    def test_mutation_does_no_repair_or_build_work(self, graph):
        service = make_service()
        key = service.register(graph)
        b = np.random.default_rng(0).normal(size=graph.n)
        service.solve(key, b)
        service.effective_resistances(key, PAIRS)
        injector = service.arm_faults(
            FaultPlan(
                rules=(
                    FaultRule(op="repair", fail=False),  # counts walk records
                    FaultRule(op="build", fail=False),  # counts builder runs
                )
            )
        )
        repairs_before = service.cache.stats.repairs

        graph.add_edge(2, 290, 1.7)
        # the mutation alone does nothing: no walk, no build, no stats
        assert injector.fired_total == 0
        assert service.cache.stats.repairs == repairs_before

        # the first query repairs exactly the artifact it looks up -- the
        # solve path walks the 1-record delta over the preprocessing (one
        # repair-seam firing) and runs no builder at all
        service.solve(key, b)
        assert injector.fire_counts() == (1, 0)
        assert service.cache.stats.repairs == repairs_before + 1

        # the dense resistance oracle is still stale and still pending
        entry = service.registry.get(key)
        pending = service.cache.pending_repair(entry.fingerprint, entry.version)
        assert pending is not None

        # ...until its own first lookup pays its repair
        service.effective_resistances(key, PAIRS)
        assert injector.fire_counts() == (2, 0)
        assert service.cache.stats.repairs == repairs_before + 2

    def test_never_queried_artifact_never_pays_repair(self, graph):
        service = make_service()
        key = service.register(graph)
        b = np.random.default_rng(0).normal(size=graph.n)
        service.solve(key, b)  # preprocessing + grounded
        service.effective_resistances(key, PAIRS)  # dense oracle
        injector = service.arm_faults(
            FaultPlan(rules=(FaultRule(op="repair", fail=False),))
        )
        graph.add_edge(2, 290, 1.7)
        service.effective_resistances(key, PAIRS)
        # one walk record for the dense oracle; the grounded solver (and the
        # preprocessing) cached in the same generation was never looked up,
        # so its repair was skipped entirely -- not deferred-and-paid, skipped
        assert injector.fired_total == 1
        entry = service.registry.get(key)
        grounded = [e for e in service.cache.entries() if e.kind == "grounded"]
        assert grounded and all(
            e.graph_key != entry.fingerprint for e in grounded
        )


class TestEvictionWhilePending:
    def test_evicted_artifact_drops_its_delta_cleanly(self, graph):
        # a one-entry cache: by the time the mutation lands, the artifact the
        # next query wants has already been LRU-evicted.  The pending ledger
        # must resolve to an ordinary rebuild -- no error, no repair, and the
        # swept ledger reports nothing pending once its sources are gone.
        service = make_service(cache=ArtifactCache(max_bytes=1))  # holds one entry
        key = service.register(graph)
        b = np.random.default_rng(0).normal(size=graph.n)
        service.solve(key, b)  # preprocessing built...
        service.effective_resistances(key, PAIRS)  # ...then evicted
        repairs_before = service.cache.stats.repairs

        graph.add_edge(2, 290, 1.7)
        report = service.solve(key, b, eps=1e-8)
        assert np.all(np.isfinite(report.solution))
        assert service.cache.stats.repairs == repairs_before  # rebuilt, clean

    def test_pending_source_swept_when_artifacts_vanish(self):
        cache = ArtifactCache()
        cache.get_or_build("fpA", 1, "grounded", (), lambda: np.zeros(8))
        assert cache.defer_repair("fpA", 1, "fpB", 2, ("r1",), limit=4)
        assert cache.pending_repair("fpB", 2) == {("fpA", 1): ("r1",)}
        # the only artifact of the source generation disappears (eviction,
        # discard, ...): the ledger sweeps the source and reports nothing
        assert cache.discard("fpA", 1, "grounded", ())
        assert cache.pending_repair("fpB", 2) is None
        # and the sweep is sticky -- the target itself was pruned
        assert cache.pending_repair("fpB", 2) is None


class TestLedgerBookkeeping:
    def test_chained_deltas_coalesce_across_generations(self):
        cache = ArtifactCache()
        cache.get_or_build("fpA", 1, "grounded", (), lambda: np.zeros(8))
        cache.get_or_build("fpB", 2, "preprocessing", (), lambda: np.zeros(8))
        assert cache.defer_repair("fpA", 1, "fpB", 2, ("r1",), limit=4)
        assert cache.defer_repair("fpB", 2, "fpC", 3, ("r2", "r3"), limit=4)
        pending = cache.pending_repair("fpC", 3)
        # the closest generation comes first (shortest delta); the older one
        # carries the concatenated records
        assert list(pending.items()) == [
            (("fpB", 2), ("r2", "r3")),
            (("fpA", 1), ("r1", "r2", "r3")),
        ]
        # the intermediate target was consumed by the chaining
        assert cache.pending_repair("fpB", 2) is None

    def test_chain_exceeding_limit_drops_the_far_generation(self):
        cache = ArtifactCache()
        cache.get_or_build("fpA", 1, "grounded", (), lambda: np.zeros(8))
        cache.get_or_build("fpB", 2, "grounded", (), lambda: np.zeros(8))
        assert cache.defer_repair("fpA", 1, "fpB", 2, ("r1", "r2"), limit=3)
        invalidations_before = cache.stats.invalidations
        # fpA's combined delta would be 4 records > limit: dropped, and its
        # lingering artifact invalidated; fpB stays repairable
        assert cache.defer_repair("fpB", 2, "fpC", 3, ("r3", "r4"), limit=3)
        assert cache.pending_repair("fpC", 3) == {("fpB", 2): ("r3", "r4")}
        assert cache.stats.invalidations == invalidations_before + 1
        assert not cache.contains("fpA", 1, "grounded", ())

    def test_source_cap_keeps_the_closest_generations(self):
        cache = ArtifactCache()
        for version in range(1, PENDING_SOURCE_LIMIT + 3):
            cache.get_or_build(
                f"fp{version}", version, "grounded", (), lambda: np.zeros(8)
            )
            if version > 1:
                assert cache.defer_repair(
                    f"fp{version - 1}",
                    version - 1,
                    f"fp{version}",
                    version,
                    (f"r{version}",),
                    limit=64,
                )
        top = PENDING_SOURCE_LIMIT + 2
        pending = cache.pending_repair(f"fp{top}", top)
        assert len(pending) == PENDING_SOURCE_LIMIT
        # the kept sources are the most recent generations, shortest first
        assert next(iter(pending)) == (f"fp{top - 1}", top - 1)

    def test_target_cap_evicts_oldest_target(self):
        cache = ArtifactCache()
        for i in range(PENDING_TARGET_LIMIT + 1):
            cache.get_or_build(f"src{i}", 1, "grounded", (), lambda: np.zeros(8))
            assert cache.defer_repair(f"src{i}", 1, f"dst{i}", 2, ("r",), limit=4)
        assert cache.pending_repair("dst0", 2) is None  # evicted, swept
        assert cache.pending_repair(f"dst{PENDING_TARGET_LIMIT}", 2) is not None

    def test_invalidate_graph_prunes_ledger(self):
        cache = ArtifactCache()
        cache.get_or_build("fpA", 1, "grounded", (), lambda: np.zeros(8))
        assert cache.defer_repair("fpA", 1, "fpB", 2, ("r1",), limit=4)
        cache.invalidate_graph("fpA")
        assert cache.pending_repair("fpB", 2) is None

    def test_clear_empties_ledger(self):
        cache = ArtifactCache()
        cache.get_or_build("fpA", 1, "grounded", (), lambda: np.zeros(8))
        assert cache.defer_repair("fpA", 1, "fpB", 2, ("r1",), limit=4)
        cache.clear()
        assert cache.pending_repair("fpB", 2) is None
