"""Differential stream testing: lazy repair vs fresh-rebuild reference.

Seeded interleaved mutate/query streams run against two services sharing one
evolving graph: the default lazily-repairing service under test, and a
``repair=False`` reference whose every answer comes from artifacts rebuilt
from scratch against the current content.  Exact-path answers must agree to
1e-8 at every step (``inf`` agreeing on cross-component pairs); sketched
answers must stay within the oracle's *effective* accuracy bound of the
exact reference.  Cache counters close the loop: on the repairable
subsequences the lazy service's answers really came from repairs
(``stats.repairs`` grows, ``stats.misses`` does not), while the reference
rebuilt throughout (``repairs == 0``).
"""

import numpy as np
import pytest

from repro.graphs import generators
from repro.serve import LaplacianService

TOL = 1e-8
T_OVERRIDE = 2


def make_pair(graph, oracle_limit=None):
    """(lazy service, reference service) registered on the SAME graph object.

    Sharing the object means one mutation drives both registries' journals;
    each service still tracks its own registered version, cache and
    artifacts, so the reference's rebuilds never leak into the lazy cache.
    """
    lazy = LaplacianService(t_override=T_OVERRIDE, auto_flush=False)
    ref = LaplacianService(t_override=T_OVERRIDE, auto_flush=False, repair=False)
    lazy_key = lazy.register(graph)
    ref_key = ref.register(graph)
    if oracle_limit is not None:
        lazy.planner.oracle_limit = oracle_limit
        ref.planner.oracle_limit = oracle_limit
    return lazy, lazy_key, ref, ref_key


def random_pairs(rng, n, count):
    return [
        (int(u), int(v))
        for u, v in zip(rng.integers(0, n, count), rng.integers(0, n, count))
    ]


def mutate_once(graph, rng, ops):
    """One random mutation drawn from ``ops``; returns the op applied."""
    op = str(rng.choice(ops))
    if op == "add":
        while True:
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u != v and not graph.has_edge(u, v):
                break
        graph.add_edge(u, v, float(rng.uniform(0.5, 2.0)))
    elif op == "update":
        edges = graph.edge_list()
        u, v, w = edges[int(rng.integers(0, len(edges)))]
        graph.add_edge(u, v, w + float(rng.uniform(0.1, 1.0)))
    else:
        edges = graph.edge_list()
        u, v, _ = edges[int(rng.integers(0, len(edges)))]
        graph.remove_edge(u, v)
    return op


class TestExactPathStreams:
    @pytest.mark.parametrize("ops", [("add", "update"), ("add", "update", "remove")])
    def test_dense_oracle_stream_agrees_and_repairs(self, ops):
        graph = generators.random_weighted_graph(300, average_degree=8, seed=7)
        lazy, lk, ref, rk = make_pair(graph)
        rng = np.random.default_rng(hash(ops) % 2**32)
        lazy.effective_resistances(lk, random_pairs(rng, graph.n, 8))  # warm
        misses_warm = lazy.cache.stats.misses

        for step in range(18):
            if step % 3 == 2:
                mutate_once(graph, rng, ops)
            pairs = random_pairs(rng, graph.n, 8)
            got = lazy.effective_resistances(lk, pairs)
            want = ref.effective_resistances(rk, pairs)
            np.testing.assert_allclose(got, want, atol=TOL, rtol=1e-7)

        # the whole stream was repairable: every post-mutation answer came
        # from a repaired oracle, never a rebuilt one
        assert lazy.cache.stats.repairs >= 6
        assert lazy.cache.stats.misses == misses_warm
        assert ref.cache.stats.repairs == 0  # the reference always rebuilds

    def test_grounded_stream_with_bridge_removals(self):
        # every edge of a path is a bridge: each removal splits a component,
        # exercising the split re-grounding path, and cross-split pairs must
        # agree on inf with the fresh-rebuild reference
        graph = generators.path_graph(60)
        lazy, lk, ref, rk = make_pair(graph, oracle_limit=10)
        rng = np.random.default_rng(19)
        lazy.effective_resistances(lk, [(0, 5), (20, 40)])  # warm
        misses_warm = lazy.cache.stats.misses

        for cut in ((45, 46), (15, 16)):
            graph.remove_edge(*cut)
            pairs = random_pairs(rng, graph.n, 16)
            got = lazy.effective_resistances(lk, pairs)
            want = ref.effective_resistances(rk, pairs)
            np.testing.assert_allclose(got, want, atol=TOL, rtol=1e-7)
            assert np.any(np.isinf(want))  # the stream really crossed splits

        # both bridge removals were absorbed by re-grounding the split-off
        # component -- repaired in place, no refactorisation
        assert lazy.cache.stats.repairs == 2
        assert lazy.cache.stats.misses == misses_warm
        (grounded,) = [e for e in lazy.cache.entries() if e.kind == "grounded"]
        assert grounded.value.updates_applied == 4  # 2 removals x 2 slots

    def test_long_burst_falls_back_to_rebuild_and_still_agrees(self):
        graph = generators.random_weighted_graph(300, average_degree=8, seed=9)
        lazy, lk, ref, rk = make_pair(graph)
        rng = np.random.default_rng(23)
        lazy.effective_resistances(lk, random_pairs(rng, graph.n, 8))
        lazy.planner.repair_delta_limit = 3
        for _ in range(6):  # one revalidation sees a 6-record delta: too long
            mutate_once(graph, rng, ("add",))
        pairs = random_pairs(rng, graph.n, 8)
        got = lazy.effective_resistances(lk, pairs)
        want = ref.effective_resistances(rk, pairs)
        np.testing.assert_allclose(got, want, atol=TOL, rtol=1e-7)
        assert lazy.cache.stats.repairs == 0  # rebuilt, correctly

    def test_solve_stream_agrees_through_mutations(self):
        graph = generators.random_weighted_graph(300, average_degree=8, seed=11)
        lazy, lk, ref, rk = make_pair(graph)
        rng = np.random.default_rng(29)
        for step in range(6):
            if step % 2 == 1:
                mutate_once(graph, rng, ("add", "update"))
            b = rng.normal(size=graph.n)
            got = lazy.solve(lk, b, eps=1e-8).solution
            want = ref.solve(rk, b, eps=1e-8).solution
            scale = max(1.0, float(np.linalg.norm(want)))
            assert np.linalg.norm(got - want) <= 1e-6 * scale
        assert lazy.cache.stats.repairs >= 2
        assert ref.cache.stats.repairs == 0


class TestSketchedStreams:
    def test_sketched_stream_repairs_across_mixed_traffic(self):
        graph = generators.random_weighted_graph(400, average_degree=8, seed=5)
        eta = 0.5
        lazy, lk, ref, rk = make_pair(graph, oracle_limit=100)
        rng = np.random.default_rng(31)
        pairs = random_pairs(rng, graph.n, 48)
        lazy.effective_resistances(lk, pairs, eta=eta)  # bulk: builds sketch
        (sketch,) = [
            e for e in lazy.cache.entries() if e.kind == "sketched_resistance"
        ]
        oracle = sketch.value
        misses_warm = lazy.cache.stats.misses

        for step in range(9):
            if step % 3 == 0:
                op = ("add", "update", "remove")[(step // 3) % 3]
                mutate_once(graph, rng, (op,))
            pairs = random_pairs(rng, graph.n, 48)
            approx = lazy.effective_resistances(lk, pairs, eta=eta)
            exact = ref.effective_resistances(rk, pairs)
            mask = np.isfinite(exact) & (exact > 0)
            rel = np.abs(approx[mask] - exact[mask]) / exact[mask]
            assert float(rel.max()) <= oracle.eta_effective <= eta

        # all three mutation flavours were absorbed by the SAME oracle
        # object: appended column, re-derived column reweight, retirement
        (sketch_after,) = [
            e for e in lazy.cache.entries() if e.kind == "sketched_resistance"
        ]
        assert sketch_after.value is oracle
        assert oracle.appended == 1
        assert oracle.reweighted == 1
        assert oracle.removed == 1
        # repaired, never rebuilt: sketch + grounded migrate per mutation
        assert lazy.cache.stats.misses == misses_warm
        assert lazy.cache.stats.repairs >= 6
        assert ref.cache.stats.repairs == 0

    def test_sketch_dies_on_component_split_but_stream_stays_correct(self):
        # a long path: the only cycle-free topology where a removal splits.
        # The sketched oracle cannot follow a split (its chi is inconsistent
        # across the re-grounding) -- it must be dropped and rebuilt -- while
        # answers keep agreeing with the reference, inf included.
        graph = generators.path_graph(220)
        eta = 0.6
        lazy, lk, ref, rk = make_pair(graph, oracle_limit=100)
        rng = np.random.default_rng(37)
        pairs = random_pairs(rng, graph.n, 48)
        lazy.effective_resistances(lk, pairs, eta=eta)
        assert any(
            e.kind == "sketched_resistance" for e in lazy.cache.entries()
        )

        graph.remove_edge(110, 111)  # a bridge: splits the path
        pairs = random_pairs(rng, graph.n, 48)
        approx = lazy.effective_resistances(lk, pairs, eta=eta)
        exact = ref.effective_resistances(rk, pairs)
        # inf pattern identical: the sketch that served reflects the split
        np.testing.assert_array_equal(np.isinf(approx), np.isinf(exact))
        mask = np.isfinite(exact) & (exact > 0)
        rel = np.abs(approx[mask] - exact[mask]) / exact[mask]
        assert float(rel.max()) <= eta


class TestSizeIndependence:
    """Repair-vs-rebuild is decided by the mutation, never by the graph's size.

    There is one linear-algebra path, so a 40-vertex graph repairs exactly
    what a 300-vertex one does.  (The stream is five mutations long: the
    rank-1 update budget is ``max(4, isqrt(n))`` -- 6 at ``n = 40`` -- and a
    removal reserves two slots, so a sixth would exhaust the small graph's
    budget first; that one gate is about accumulated cost and stays.)
    """

    STREAM = ("add", "update", "remove", "add", "update")

    @staticmethod
    def artifacts(service, key):
        """``kind -> (artifact, is it keyed to the current version)``."""
        version = service.registry.get(key).version
        return {e.kind: (e.value, e.version == version) for e in service.cache.entries()}

    def run_stream(self, n):
        graph = generators.random_weighted_graph(n, average_degree=8, seed=n)
        lazy, lk, ref, rk = make_pair(graph)
        rng = np.random.default_rng(41)

        def query_both():
            b = rng.normal(size=graph.n)
            got = lazy.solve(lk, b, eps=1e-8).solution
            want = ref.solve(rk, b, eps=1e-8).solution
            assert np.linalg.norm(got - want) <= 1e-6 * max(1.0, np.linalg.norm(want))
            pairs = random_pairs(rng, graph.n, 8)
            np.testing.assert_allclose(
                lazy.effective_resistances(lk, pairs),
                ref.effective_resistances(rk, pairs),
                atol=TOL,
                rtol=1e-7,
            )

        query_both()  # warm: preprocessing, grounded, resistance_oracle
        outcomes = []
        for op in self.STREAM:
            before = self.artifacts(lazy, lk)
            mutate_once(graph, rng, (op,))
            query_both()
            outcome = {}
            for kind, (artifact, current) in sorted(self.artifacts(lazy, lk).items()):
                if artifact is not before[kind][0]:
                    outcome[kind] = "rebuilt"
                else:
                    # lazy repair: an artifact no query needed stays pending
                    outcome[kind] = "repaired" if current else "pending"
            outcomes.append(outcome)
        assert ref.cache.stats.repairs == 0
        return outcomes

    def test_small_and_large_graphs_repair_the_same_artifacts(self):
        small, large = self.run_stream(40), self.run_stream(300)
        assert small == large
        # a weight increase is absorbed by the preprocessing and the oracle
        # (nothing asks for the graph's factorisation, so its repair stays
        # pending); a removal is absorbed by everything but the preprocessing,
        # whose sparsifier may not lose weight -- its rebuild measures kappa
        # through the grounded artifact, which migrates it
        increase = {
            "grounded": "pending",
            "preprocessing": "repaired",
            "resistance_oracle": "repaired",
        }
        removal = {
            "grounded": "repaired",
            "preprocessing": "rebuilt",
            "resistance_oracle": "repaired",
        }
        assert small == [increase, increase, removal, increase, increase]
