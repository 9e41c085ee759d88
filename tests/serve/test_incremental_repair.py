"""Serving-layer incremental repair: small deltas update artifacts in place.

The contract under test: after mutating a registered graph, every query is
answered against the *current* content (1e-8 agreement with a cold service
that only ever saw the mutated graph), and -- when the delta is repairable --
the answers come from repaired artifacts (``cache.stats.repairs``) rather
than rebuilt ones (``cache.stats.misses``).
"""

import numpy as np
import pytest

import reference_dense
from reference_repair import updates_applied
from reference_generators import edge_list, path_graph
from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.linalg.sparse_backend import RepairableGroundedSolver
from repro.serve import ArtifactCache, LaplacianService, resistance_batch_query
from repro.solvers.laplacian import SolverPreprocessing

TOL = 1e-8
T_OVERRIDE = 2


def make_service(**kwargs):
    kwargs.setdefault("t_override", T_OVERRIDE)
    kwargs.setdefault("auto_flush", False)
    return LaplacianService(**kwargs)


def fresh_resistances(graph, pairs):
    """Ground truth from a service that only ever saw the mutated content."""
    with make_service() as svc:
        return svc.effective_resistances(svc.register(graph.copy()), pairs)


@pytest.fixture
def graph():
    return generators.random_weighted_graph(300, average_degree=8, seed=7)


PAIRS = [(0, 5), (1, 9), (10, 250), (42, 42), (7, 120)]


class TestInsertionRepair:
    def test_repaired_answers_match_cold_rebuild(self, graph):
        service = make_service()
        key = service.register(graph)
        rng = np.random.default_rng(0)
        b = rng.normal(size=graph.n)
        service.solve(key, b, eps=1e-8)
        service.effective_resistances(key, PAIRS)

        graph.add_edge(2, 290, 1.7)
        repaired = service.effective_resistances(key, PAIRS)
        np.testing.assert_allclose(
            repaired, fresh_resistances(graph, PAIRS), atol=TOL
        )
        report = service.solve(key, b, eps=1e-8)
        # the repaired preconditioner still meets the eps contract against
        # the mutated graph's exact solution
        x = report.solution
        with make_service() as ref:
            exact = ref.solve(ref.register(graph.copy()), b, eps=1e-8).solution
        assert np.linalg.norm(x - exact) <= 1e-6 * max(1.0, np.linalg.norm(exact))

    def test_insertion_repairs_instead_of_rebuilding(self, graph):
        service = make_service()
        key = service.register(graph)
        service.solve(key, np.random.default_rng(0).normal(size=graph.n))
        service.effective_resistances(key, PAIRS)
        misses_before = service.cache.stats.misses

        graph.add_edge(2, 290, 1.7)
        service.effective_resistances(key, PAIRS)
        service.solve(key, np.random.default_rng(1).normal(size=graph.n))
        stats = service.cache.stats
        # the dense oracle and the solver preprocessing -- the two artifacts
        # the post-mutation queries actually looked up -- were repaired; the
        # grounded solver was never looked up again, so its repair is still
        # pending (lazily skipped, not paid)
        assert stats.repairs >= 2
        # ...and the queries after the mutation were served from them: no new
        # artifact build beyond the memoised certification-free baseline
        assert stats.misses == misses_before

    def test_repaired_artifacts_rekeyed_to_current_identity(self, graph):
        service = make_service()
        key = service.register(graph)
        b = np.zeros(graph.n)
        b[0], b[1] = 1.0, -1.0
        service.solve(key, b)  # caches the grounded solver (kappa measurement)
        service.effective_resistances(key, PAIRS)
        graph.add_edge(2, 290, 1.7)
        service.effective_resistances(key, PAIRS)
        entry = service.registry.get(key)
        assert entry.is_current()
        # the artifact the query looked up was migrated to the new identity
        oracles = [
            e for e in service.cache.entries() if e.kind == "resistance_oracle"
        ]
        assert [(e.graph_key, e.version) for e in oracles] == [
            (entry.fingerprint, entry.version)
        ]
        # while the never-again-looked-up grounded solver still sits at the
        # stale identity, unservable (lookups key on the new identity) but
        # with its repair pending for whenever it is next wanted
        grounded = [e for e in service.cache.entries() if e.kind == "grounded"]
        assert grounded and all(
            e.graph_key != entry.fingerprint for e in grounded
        )
        assert service.cache.pending_repair(entry.fingerprint, entry.version)

    def test_sequence_of_single_edge_mutations(self, graph):
        service = make_service()
        key = service.register(graph)
        service.effective_resistances(key, PAIRS)
        rng = np.random.default_rng(5)
        for _ in range(6):
            while True:
                u, v = (int(x) for x in rng.integers(0, graph.n, 2))
                if u != v and not graph.has_edge(u, v):
                    break
            graph.add_edge(u, v, float(rng.uniform(0.5, 2.0)))
            got = service.effective_resistances(key, PAIRS)
            np.testing.assert_allclose(got, fresh_resistances(graph, PAIRS), atol=TOL)
        assert service.cache.stats.repairs > 0


class TestRemovalPolicy:
    def test_removal_repairs_dense_oracle_in_place(self, graph):
        """A non-bridge removal rank-1-downdates the dense oracle in place.

        (Previously any removal conservatively rebuilt it; the denominator
        guard inside ``ResistanceOracle.apply_update`` is what refuses the
        bridge removals that would genuinely split a component.)  Correctness
        is anchored to a cold service that only ever saw the mutated graph.
        """
        service = make_service()
        key = service.register(graph)
        service.effective_resistances(key, PAIRS)
        oracle_entries = [
            e for e in service.cache.entries() if e.kind == "resistance_oracle"
        ]
        assert len(oracle_entries) == 1
        old_oracle = oracle_entries[0].value

        u, v, w = edge_list(graph)[10]
        graph.remove_edge(u, v)  # a random-graph edge: (almost surely) no bridge
        got = service.effective_resistances(key, PAIRS)
        np.testing.assert_allclose(got, fresh_resistances(graph, PAIRS), atol=TOL)
        new_entries = [
            e for e in service.cache.entries() if e.kind == "resistance_oracle"
        ]
        assert len(new_entries) == 1
        assert new_entries[0].value is old_oracle  # repaired, not rebuilt
        assert old_oracle._repairs == 1

    def test_grounded_solver_downdates_on_removal(self, graph):
        service = make_service()
        key = service.register(graph)
        # force the exact splu path (no dense oracle) by raising the gate off
        service.planner.oracle_limit = 10
        service.effective_resistances(key, PAIRS)
        grounded = [e for e in service.cache.entries() if e.kind == "grounded"]
        assert len(grounded) == 1
        solver_before = grounded[0].value

        u, v, w = edge_list(graph)[10]
        graph.remove_edge(u, v)  # a random-graph edge: (almost surely) no bridge
        got = service.effective_resistances(key, PAIRS)
        np.testing.assert_allclose(got, fresh_resistances(graph, PAIRS), atol=TOL)
        grounded_after = [e for e in service.cache.entries() if e.kind == "grounded"]
        assert grounded_after[0].value is solver_before  # down-dated in place
        assert updates_applied(solver_before) == 1

    def test_bridge_removal_falls_back_to_rebuild(self):
        graph = path_graph(40)
        service = make_service()
        key = service.register(graph)
        service.planner.oracle_limit = 10  # exercise the grounded path
        service.effective_resistances(key, [(0, 5), (3, 30)])
        graph.remove_edge(10, 11)  # disconnects: not rank-1 repairable
        got = service.effective_resistances(key, [(0, 5), (3, 30), (5, 20)])
        np.testing.assert_allclose(
            got, fresh_resistances(graph, [(0, 5), (3, 30), (5, 20)]), atol=TOL
        )
        assert np.isinf(got[2])  # 5 and 20 are now in different components

    def test_dense_oracle_rebuilt_after_bridge_removal_is_exact(self):
        """The rebuilt oracle grounds on the graph's current components.

        The grounded solver is cached too, so the removal re-grounds the
        split-off side inside that solver with a rank-1 regulariser; the
        Laplacian restricted to the solver's kept vertices is then singular,
        and an oracle grounded on them would fail its Cholesky and degrade.
        """
        # a 6 x 6 grid, a bridge (35, 36) and a pendant unit edge (36, 37)
        grid = edge_list(generators.grid_graph(6, 6))
        graph = WeightedGraph(38, edges=grid + [(35, 36, 1.0), (36, 37, 1.0)])
        service = make_service()
        key = service.register(graph)
        pairs = [(0, 37), (0, 35), (36, 37)]
        planner = service.planner
        limit, planner.oracle_limit = planner.oracle_limit, 10
        service.effective_resistances(key, pairs)  # caches the grounded solver
        planner.oracle_limit = limit
        service.effective_resistances(key, pairs)  # builds the dense oracle
        kinds = [e.kind for e in service.cache.entries()]
        assert kinds.count("grounded") == kinds.count("resistance_oracle") == 1

        graph.remove_edge(35, 36)
        planner.oracle_limit = 10
        service.effective_resistances(key, pairs)  # re-grounds the solver
        planner.oracle_limit = limit
        ticket = service.submit(resistance_batch_query(key, pairs))
        service.flush()
        result = ticket.result()
        assert result.degraded is False
        u, v = np.array(pairs).T
        expected = reference_dense.pair_resistances(graph, u, v)
        assert np.isinf(result.value[0])
        np.testing.assert_allclose(result.value[1:], expected[1:], rtol=0, atol=1e-10)
        assert result.value[2] == pytest.approx(1.0, abs=1e-12)
        assert service.metrics_snapshot()["degraded_total"] == 0


class TestStructuralAndBudgetFallbacks:
    def test_cross_component_insertion_rebuilds(self):
        graph = WeightedGraph(
            60,
            edges=[(i, i + 1, 1.0) for i in range(29)]
            + [(i, i + 1, 1.0) for i in range(30, 59)]
            + [(0, 29, 1.0), (30, 59, 1.0)],
        )
        service = make_service()
        key = service.register(graph)
        service.planner.oracle_limit = 10
        pairs = [(0, 10), (31, 45), (5, 40)]
        before = service.effective_resistances(key, pairs)
        assert np.isinf(before[2])
        graph.add_edge(29, 30, 2.0)  # merges the two cycles
        got = service.effective_resistances(key, pairs)
        np.testing.assert_allclose(got, fresh_resistances(graph, pairs), atol=TOL)
        assert np.isfinite(got[2])
        assert service.cache.stats.repairs == 0  # nothing was repairable

    def test_exhausted_budget_triggers_refactorisation(self):
        graph = generators.random_weighted_graph(100, average_degree=8, seed=3)
        service = make_service()
        key = service.register(graph)
        service.planner.oracle_limit = 10
        service.effective_resistances(key, [(0, 5)])
        (grounded,) = [e for e in service.cache.entries() if e.kind == "grounded"]
        grounded.value.max_updates = 2  # force the threshold quickly
        solver_before = grounded.value
        rng = np.random.default_rng(9)
        for i in range(4):
            while True:
                u, v = (int(x) for x in rng.integers(0, graph.n, 2))
                if u != v and not graph.has_edge(u, v):
                    break
            graph.add_edge(u, v, 1.0)
            got = service.effective_resistances(key, [(0, 5), (u, v)])
            np.testing.assert_allclose(
                got, fresh_resistances(graph, [(0, 5), (u, v)]), atol=TOL
            )
        (grounded_after,) = [
            e for e in service.cache.entries() if e.kind == "grounded"
        ]
        # the third mutation exceeded the budget: the solver was rebuilt
        assert grounded_after.value is not solver_before

    def test_long_delta_rebuilds(self, graph):
        service = make_service()
        key = service.register(graph)
        service.effective_resistances(key, PAIRS)
        service.planner.repair_delta_limit = 3
        rng = np.random.default_rng(11)
        for _ in range(5):  # one revalidation sees a 5-record delta
            while True:
                u, v = (int(x) for x in rng.integers(0, graph.n, 2))
                if u != v and not graph.has_edge(u, v):
                    break
            graph.add_edge(u, v, 1.0)
        got = service.effective_resistances(key, PAIRS)
        np.testing.assert_allclose(got, fresh_resistances(graph, PAIRS), atol=TOL)
        assert service.cache.stats.repairs == 0

    def test_delta_clamped_to_fresh_update_budget(self):
        # n = 100 -> fresh budget isqrt(100) = 10: an 12-record delta is under
        # REPAIR_DELTA_LIMIT but would exhaust a fresh solver mid-walk, so it
        # must rebuild up front instead of paying a partial repair first
        graph = generators.random_weighted_graph(100, average_degree=8, seed=3)
        service = make_service()
        key = service.register(graph)
        service.effective_resistances(key, [(0, 5), (1, 9)])
        rng = np.random.default_rng(13)
        for _ in range(12):
            while True:
                u, v = (int(x) for x in rng.integers(0, graph.n, 2))
                if u != v and not graph.has_edge(u, v):
                    break
            graph.add_edge(u, v, 1.0)
        got = service.effective_resistances(key, [(0, 5), (1, 9)])
        np.testing.assert_allclose(
            got, fresh_resistances(graph, [(0, 5), (1, 9)]), atol=TOL
        )
        assert service.cache.stats.repairs == 0

    def test_concurrent_repairers_cannot_double_apply(self, graph):
        # two services sharing one cache race to repair the same mutation;
        # take_stale_entry pops the stale artifact atomically, so exactly one
        # lazy walk can ever hold it and the loser serves the repaired entry
        # instead of re-applying the rank-1 update to it
        cache = ArtifactCache()
        s1 = make_service(cache=cache)
        s2 = make_service(cache=cache)
        k1 = s1.register(graph)
        k2 = s2.register(graph)
        s1.effective_resistances(k1, PAIRS)
        graph.add_edge(2, 290, 1.7)

        takes = []
        original = cache.take_stale_entry

        def spying_take(*args, **kwargs):
            result = original(*args, **kwargs)
            takes.append(result)
            return result

        cache.take_stale_entry = spying_take
        r1 = s1.effective_resistances(k1, PAIRS)
        r2 = s2.effective_resistances(k2, PAIRS)
        truth = fresh_resistances(graph, PAIRS)
        np.testing.assert_allclose(r1, truth, atol=TOL)
        np.testing.assert_allclose(r2, truth, atol=TOL)
        # the first lookup popped and repaired the stale oracle; the second
        # found the repaired entry already cached and never attempted a take
        popped = [t for t in takes if t is not None]
        assert len(popped) == 1
        (oracle,) = [e for e in cache.entries() if e.kind == "resistance_oracle"]
        assert oracle.value._repairs == 1  # applied exactly once

    def test_repair_disabled_knob(self, graph):
        service = make_service(repair=False)
        key = service.register(graph)
        service.effective_resistances(key, PAIRS)
        graph.add_edge(2, 290, 1.7)
        got = service.effective_resistances(key, PAIRS)
        np.testing.assert_allclose(got, fresh_resistances(graph, PAIRS), atol=TOL)
        assert service.cache.stats.repairs == 0
        assert service.cache.stats.invalidations > 0


class TestSketchedRepair:
    def make_sketched_service(self, graph):
        service = make_service(cache=ArtifactCache())
        service.planner.oracle_limit = 100  # graph.n > gate: sketched regime
        return service, service.register(graph)

    def test_sketched_oracle_repaired_and_contract_held(self):
        graph = generators.random_weighted_graph(400, average_degree=8, seed=5)
        service, key = self.make_sketched_service(graph)
        rng = np.random.default_rng(21)
        pairs = [
            (int(u), int(v))
            for u, v in zip(rng.integers(0, graph.n, 48), rng.integers(0, graph.n, 48))
        ]
        service.effective_resistances(key, pairs, eta=0.5)  # bulk: builds sketch
        (sketch,) = [
            e for e in service.cache.entries() if e.kind == "sketched_resistance"
        ]
        oracle_before = sketch.value

        graph.add_edge(3, 397, 1.1)
        approx = service.effective_resistances(key, pairs, eta=0.5)
        (sketch_after,) = [
            e for e in service.cache.entries() if e.kind == "sketched_resistance"
        ]
        assert sketch_after.value is oracle_before  # repaired in place
        assert oracle_before.appended == 1
        exact = service.effective_resistances(key, pairs)
        mask = np.isfinite(exact) & (exact > 0)
        rel = np.abs(approx[mask] - exact[mask]) / exact[mask]
        assert float(rel.max()) <= oracle_before.eta_effective <= 0.5

    def test_sketch_repaired_in_place_on_reweight(self):
        # a reweighted edge's sketch column is re-derived from its recorded
        # (seed_bits, ambient index) identity and corrected by one rank-1
        # update, so the sketch survives reweights without widening its bound
        graph = generators.random_weighted_graph(400, average_degree=8, seed=5)
        service, key = self.make_sketched_service(graph)
        rng = np.random.default_rng(22)
        pairs = [
            (int(u), int(v))
            for u, v in zip(rng.integers(0, graph.n, 48), rng.integers(0, graph.n, 48))
        ]
        service.effective_resistances(key, pairs, eta=0.5)
        (sketch,) = [
            e for e in service.cache.entries() if e.kind == "sketched_resistance"
        ]
        oracle_before = sketch.value
        u, v, w = edge_list(graph)[0]
        graph.add_edge(u, v, w + 1.0)  # reweight an existing edge
        approx = service.effective_resistances(key, pairs, eta=0.5)
        (sketch_after,) = [
            e for e in service.cache.entries() if e.kind == "sketched_resistance"
        ]
        assert sketch_after.value is oracle_before  # repaired in place
        assert oracle_before.reweighted == 1
        assert oracle_before.eta_effective <= 0.5  # insertion-free: no widening
        exact = service.effective_resistances(key, pairs)
        mask = np.isfinite(exact) & (exact > 0)
        rel = np.abs(approx[mask] - exact[mask]) / exact[mask]
        assert float(rel.max()) <= 0.5  # repaired sketch honours eta


class TestPreprocessingRepair:
    def test_solver_preprocessing_survives_insertion(self, graph):
        service = make_service()
        key = service.register(graph)
        b = np.random.default_rng(0).normal(size=graph.n)
        service.solve(key, b)
        (prep,) = [e for e in service.cache.entries() if e.kind == "preprocessing"]
        artifact = prep.value
        assert isinstance(artifact, SolverPreprocessing)
        assert isinstance(artifact.grounded, RepairableGroundedSolver)
        sparsifier_m = artifact.sparsifier.m

        graph.add_edge(2, 290, 1.7)
        service.solve(key, b)
        (prep_after,) = [
            e for e in service.cache.entries() if e.kind == "preprocessing"
        ]
        assert prep_after.value is artifact  # repaired, not rebuilt
        assert artifact.sparsifier.m == sparsifier_m + 1
        assert artifact.sparsifier_result is None  # transcript invalidated
        assert updates_applied(artifact.grounded) == 1

    def test_weight_decrease_drops_preprocessing(self, graph):
        service = make_service()
        key = service.register(graph)
        b = np.random.default_rng(0).normal(size=graph.n)
        service.solve(key, b)
        (prep,) = [e for e in service.cache.entries() if e.kind == "preprocessing"]
        artifact = prep.value
        u, v, w = edge_list(graph)[0]
        graph.add_edge(u, v, w * 0.5)  # decrease: sparsifier lower bound at risk
        report = service.solve(key, b, eps=1e-8)
        with make_service() as ref:
            exact = ref.solve(ref.register(graph.copy()), b, eps=1e-8).solution
        assert np.linalg.norm(report.solution - exact) <= 1e-6 * max(
            1.0, np.linalg.norm(exact)
        )
        (prep_after,) = [
            e for e in service.cache.entries() if e.kind == "preprocessing"
        ]
        assert prep_after.value is not artifact  # rebuilt
