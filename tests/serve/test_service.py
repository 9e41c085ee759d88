"""LaplacianService: correctness, staleness, eviction, queueing, metrics."""

import threading

import numpy as np
import pytest

import reference_dense
from reference_generators import edge_list
from repro.graphs import generators
from repro.serve import (
    ArtifactCache,
    FlushPolicy,
    LaplacianService,
    Query,
    QueryTicket,
    certify_query,
    resistance_query,
    solve_query,
)
from repro.linalg.sparse_backend import GroundedLaplacianSolver
from repro.solvers.laplacian import BCCLaplacianSolver


@pytest.fixture
def graph():
    return generators.random_weighted_graph(50, average_degree=6, seed=21)


def make_service(**kwargs):
    kwargs.setdefault("t_override", 2)
    kwargs.setdefault("auto_flush", False)
    return LaplacianService(**kwargs)


class TestSolveFrontDoor:
    def test_solve_matches_exact_solution(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        b = rng.normal(size=graph.n)
        report = service.solve(key, b, eps=1e-8)
        reference = BCCLaplacianSolver(graph, seed=0, t_override=2)
        np.testing.assert_allclose(
            report.solution, reference.exact_solution(b), atol=1e-6
        )

    def test_second_solve_hits_cache(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        service.solve(key, rng.normal(size=graph.n))
        misses_after_first = service.cache.stats.misses
        service.solve(key, rng.normal(size=graph.n))
        assert service.cache.stats.misses == misses_after_first
        assert service.cache.stats.hits > 0

    def test_solve_caches_preprocessing_not_solver_objects(self, graph, rng):
        # the solver front object references the cached preprocessing; caching
        # it too would double-account those bytes and pin evicted entries
        service = make_service()
        key = service.register(graph)
        service.solve(key, rng.normal(size=graph.n))
        kinds = {entry.kind for entry in service.cache.entries()}
        # t_override measures kappa, which inverts L_G through the graph's
        # grounded artifact -- at every n
        assert kinds == {"preprocessing", "grounded"}
        assert service.cache.total_bytes == sum(
            entry.nbytes for entry in service.cache.entries()
        )

    def test_warm_certify_is_cached(self, graph):
        service = make_service()
        key = service.register(graph)
        first = service.certify(key, eps=0.5)
        misses = service.cache.stats.misses
        second = service.certify(key, eps=0.5)
        assert second is first  # memoised report, no repeated eigensolve
        assert service.cache.stats.misses == misses

    def test_solve_many_matches_sequential(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        rhs = [rng.normal(size=graph.n) for _ in range(4)]
        batched = service.solve_many(key, rhs, eps=1e-8)
        for report, b in zip(batched, rhs):
            single = service.solve(key, b, eps=1e-8)
            np.testing.assert_allclose(report.solution, single.solution, atol=1e-7)

    def test_unregistered_key_raises(self, rng):
        service = make_service()
        with pytest.raises(KeyError):
            service.solve("missing", rng.normal(size=10))


class TestResistanceAndCertify:
    def test_effective_resistances_match_dense_reference(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        pairs = [(int(u), int(v)) for u, v in rng.integers(0, graph.n, (32, 2))]
        batched = service.effective_resistances(key, pairs)
        reference = reference_dense.pair_resistances(graph, *np.transpose(pairs))
        np.testing.assert_allclose(batched, reference, rtol=1e-7, atol=1e-9)
        # scalar front door agrees with the batch
        single = service.effective_resistance(key, *pairs[0])
        np.testing.assert_allclose(single, batched[0], rtol=1e-9)

    def test_empty_pair_batch(self, graph):
        service = make_service()
        key = service.register(graph)
        assert service.effective_resistances(key, []).shape == (0,)

    def test_certify(self, graph):
        service = make_service()
        key = service.register(graph)
        report = service.certify(key, eps=0.5)
        assert report.ok
        assert report.sparsifier_edges > 0
        assert report.eps == 0.5


class TestCacheInvalidation:
    """Satellite: mutate a registered graph -> stale artifacts are refused."""

    def test_mutation_refuses_stale_artifact_and_rebuilds(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        b = rng.normal(size=graph.n)
        service.solve(key, b, eps=1e-8)
        version_before = service.registry.get(key).version

        def preprocessing_entries():
            return [e for e in service.cache.entries() if e.kind == "preprocessing"]

        def exact():
            return GroundedLaplacianSolver(graph).solve(b - b.mean())

        (built,) = preprocessing_entries()
        graph.add_edge(0, graph.n - 1, 9.0)  # mutate registered content
        report = service.solve(key, b, eps=1e-8)

        # a weight increase is absorbed as a repair: the same artifact, moved
        # to the new version -- never served as it was
        assert service.cache.stats.repairs >= 1
        entry = service.registry.get(key)
        assert entry.version > version_before and entry.is_current()
        (repaired,) = preprocessing_entries()
        assert repaired.value is built.value and repaired.version == entry.version
        assert repaired.value.sparsifier.has_edge(0, graph.n - 1)
        # and the answer reflects the *mutated* graph
        np.testing.assert_allclose(report.solution, exact(), atol=1e-6)

        # a removal cannot be absorbed by the preprocessing: dropped, rebuilt
        misses_before = service.cache.stats.misses
        graph.remove_edge(0, graph.n - 1)
        report = service.solve(key, b, eps=1e-8)
        assert service.cache.stats.misses > misses_before
        (rebuilt,) = preprocessing_entries()
        assert rebuilt.value is not built.value
        np.testing.assert_allclose(report.solution, exact(), atol=1e-6)

    def test_mutation_drops_stale_cache_entries(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        service.solve(key, rng.normal(size=graph.n))
        service.effective_resistance(key, 0, 1)
        entries_before = len(service.cache)
        graph.remove_edge(*edge_list(graph)[0][:2])
        service.solve(key, rng.normal(size=graph.n))
        # the preprocessing could not absorb a removal: dropped and rebuilt
        assert service.cache.stats.invalidations >= 1
        # stale-version entries may linger awaiting their lazy repair -- they
        # are unservable (lookups key on the current version) and every one
        # still has a pending delta that can migrate it on its next lookup
        entry = service.registry.get(key)
        stale = [e for e in service.cache.entries() if e.version != entry.version]
        if stale:
            assert service.cache.pending_repair(entry.fingerprint, entry.version)
        assert len(service.cache) <= entries_before

    def test_resistance_reflects_mutation(self, graph):
        service = make_service()
        key = service.register(graph)
        u, v, _ = edge_list(graph)[0]
        before = service.effective_resistance(key, u, v)
        # adding a parallel 2-hop path strictly lowers the resistance
        w = next(
            x for x in range(graph.n)
            if x not in (u, v) and not graph.has_edge(u, x) and not graph.has_edge(x, v)
        )
        graph.add_edge(u, w, 50.0)
        graph.add_edge(w, v, 50.0)
        after = service.effective_resistance(key, u, v)
        assert after < before
        reference = reference_dense.pair_resistances(graph, [u], [v])
        np.testing.assert_allclose(after, reference[0], rtol=1e-7)

    def test_reused_handle_never_serves_previous_graphs_artifacts(self, rng):
        # artifacts are keyed by content fingerprint, so re-using a handle
        # for a different graph (unregister + register) must rebuild, even
        # when both graphs happen to share the same version counter value
        g1 = generators.random_weighted_graph(40, average_degree=5, seed=1)
        g2 = generators.random_weighted_graph(40, average_degree=5, seed=2)
        service = make_service()
        b = rng.normal(size=40)
        key = service.register(g1, name="prod")
        service.solve(key, b, eps=1e-8)
        service.registry.unregister("prod")
        key = service.register(g2, name="prod")
        report = service.solve(key, b, eps=1e-8)
        reference = BCCLaplacianSolver(g2, seed=0, t_override=2)
        np.testing.assert_allclose(
            report.solution, reference.exact_solution(b), atol=1e-6
        )

    def test_lru_eviction_under_small_budget_stays_correct(self, rng):
        # alternate between two graphs with a cache that can hold only one
        # preprocessing artifact: every switch evicts, answers stay correct
        g1 = generators.random_weighted_graph(40, average_degree=5, seed=1)
        g2 = generators.random_weighted_graph(40, average_degree=5, seed=2)
        service = make_service(cache=ArtifactCache(max_bytes=1))  # holds one entry
        k1, k2 = service.register(g1), service.register(g2)
        b = rng.normal(size=40)
        ref1 = BCCLaplacianSolver(g1, seed=0, t_override=2).exact_solution(b)
        ref2 = BCCLaplacianSolver(g2, seed=0, t_override=2).exact_solution(b)
        for _ in range(2):
            np.testing.assert_allclose(
                service.solve(k1, b, eps=1e-8).solution, ref1, atol=1e-6
            )
            np.testing.assert_allclose(
                service.solve(k2, b, eps=1e-8).solution, ref2, atol=1e-6
            )
        assert service.cache.stats.evictions > 0
        assert len(service.cache) <= 2


class TestQueueing:
    def test_submit_defers_until_flush(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        ticket = service.submit(solve_query(key, rng.normal(size=graph.n)))
        assert not ticket.done()
        service.flush()
        assert ticket.done()
        assert ticket.result().batch_size == 1

    def test_unfinished_tickets_time_out_with_timeout_error(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        query = solve_query(key, rng.normal(size=graph.n))
        with pytest.raises(TimeoutError, match=f"query {query.query_id} not finished"):
            service.submit(query).result(timeout=0.01)
        # a cluster's control ticket carries no query
        with pytest.raises(TimeoutError, match="control request not finished"):
            QueryTicket().result(timeout=0.01)

    def test_full_batch_triggers_inline_flush(self, graph, rng):
        service = make_service(flush_policy=FlushPolicy(max_batch=3, max_wait_seconds=30))
        key = service.register(graph)
        tickets = [
            service.submit(resistance_query(key, 0, i)) for i in range(1, 4)
        ]
        # third submit reached max_batch -> flushed without an explicit call
        assert all(t.done() for t in tickets)
        assert tickets[0].result().batch_size == 3

    def test_background_flusher_honours_max_wait(self, graph, rng):
        service = LaplacianService(
            t_override=2,
            auto_flush=True,
            flush_policy=FlushPolicy(max_batch=64, max_wait_seconds=0.02),
        )
        try:
            key = service.register(graph)
            ticket = service.submit(resistance_query(key, 0, 1))
            result = ticket.result(timeout=10.0)  # no explicit flush anywhere
            assert result.value >= 0.0
        finally:
            service.close()

    def test_concurrent_submitters_all_get_answers(self, graph):
        service = LaplacianService(
            t_override=2,
            auto_flush=True,
            flush_policy=FlushPolicy(max_batch=8, max_wait_seconds=0.005),
        )
        key = service.register(graph)
        reference = reference_dense.pair_resistances(graph, [0] * 16, range(1, 17))
        answers = {}
        errors = []

        def client(v):
            try:
                answers[v] = service.effective_resistance(key, 0, v)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=client, args=(v,)) for v in range(1, 17)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        service.close()
        assert not errors
        np.testing.assert_allclose(
            [answers[v] for v in range(1, 17)], reference, rtol=1e-7, atol=1e-9
        )

    def test_malformed_queries_rejected_at_submit(self, graph, rng):
        # fault isolation: a bad query must fail its own client at submit
        # time, never a shared batch
        service = make_service()
        key = service.register(graph)
        with pytest.raises(ValueError):
            service.submit(resistance_query(key, 0, graph.n + 5))
        with pytest.raises(ValueError):
            service.submit(solve_query(key, np.zeros(graph.n + 3)))
        # an innocent query co-submitted around the rejected ones still works
        assert service.effective_resistance(key, 0, 1) > 0.0

    @pytest.mark.parametrize(
        "u, v",
        [
            ([0, 1, 2], [3]),  # ragged
            ([[0, 1]], [[2, 3]]),  # not 1-d
            ([0.0, 1.5], [2.0, 3.0]),  # fractional endpoints
            (0, [1, 2]),  # scalar against an array
        ],
    )
    def test_misaligned_pair_arrays_rejected_at_submit(self, graph, u, v):
        # a hand-built resistance query with ragged u / v used to pass submit
        # and then fail its whole coalesced batch at flush
        service = make_service()
        key = service.register(graph)
        innocent = service.submit(resistance_query(key, 0, 1))
        bad = Query("resistance", key, {"u": np.asarray(u), "v": np.asarray(v), "eta": None})
        with pytest.raises(ValueError, match="u and v must be|must be integers"):
            service.submit(bad)
        service.flush()
        assert innocent.result(timeout=30).value > 0.0

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), 5.0])
    def test_solve_eps_outside_the_solver_range_rejected_at_submit(self, graph, eps):
        service = make_service()
        key = service.register(graph)
        with pytest.raises(ValueError, match="eps must lie in"):
            service.submit(solve_query(key, np.ones(graph.n) - 1.0 / graph.n, eps=eps))
        assert service.flush() == 0  # nothing was queued

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), 1.0, 2.0, float("inf")])
    def test_certify_eps_outside_the_unit_interval_rejected_at_submit(self, graph, eps):
        service = make_service()
        key = service.register(graph)
        with pytest.raises(ValueError, match="eps must lie in"):
            service.submit(certify_query(key, eps=eps))
        assert service.flush() == 0

    def test_unknown_kind_rejected_at_submit(self, graph):
        # Query.__post_init__ is bypassed by pickle and by mutation after
        # construction: a kind with no table row must fail its own client
        # with an error naming it, not validate as nothing, coalesce as
        # resistance and execute as certify
        service = make_service()
        key = service.register(graph)
        query = certify_query(key)
        query.kind = "bogus"
        with pytest.raises(ValueError, match="unknown query kind 'bogus'"):
            service.submit(query)
        assert service.flush() == 0  # nothing was queued
        with pytest.raises(ValueError, match="unknown query kind 'bogus'"):
            service.planner.plan([query])

    def test_failed_batch_propagates_to_tickets(self, graph, rng, monkeypatch):
        service = make_service()
        key = service.register(graph)
        ticket = service.submit(resistance_query(key, 0, 1))

        def explode(batch):
            raise RuntimeError("backend fell over")

        monkeypatch.setattr(service.planner, "execute_batch", explode)
        service.flush()
        with pytest.raises(RuntimeError, match="backend fell over"):
            ticket.result()

    def test_closed_service_rejects_submissions(self, graph):
        service = make_service()
        key = service.register(graph)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(resistance_query(key, 0, 1))


class TestMetrics:
    def test_snapshot_counters(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        service.solve(key, rng.normal(size=graph.n))
        service.solve(key, rng.normal(size=graph.n))
        service.effective_resistances(key, [(0, 1), (1, 2)])
        service.certify(key)
        snap = service.metrics_snapshot()
        assert snap["queries_total"] == 4
        assert snap["batches_total"] == 4
        assert snap["queries_by_kind"] == {"solve": 2, "resistance": 1, "certify": 1}
        assert 0.0 < snap["cache"]["hit_rate"] < 1.0
        assert snap["cache_bytes"] > 0
        assert snap["registered_graphs"] == 1
        latency = snap["latency_seconds"]
        assert latency["p50"] <= latency["p90"] <= latency["p99"]
        assert latency["p99"] > 0.0

    def test_batch_occupancy_counts_coalescing(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        for v in range(1, 5):
            service.submit(resistance_query(key, 0, v))
        service.flush()
        assert service.metrics.batch_occupancy == 4.0


class TestCertifyReuse:
    def test_certify_reuses_solve_preprocessing_sparsifier(self, graph, rng):
        # certify at the solver's SPARSIFIER_EPS must not re-run the
        # multi-second sparsification when the solve path already cached it
        service = make_service()
        key = service.register(graph)
        service.solve(key, rng.normal(size=graph.n))
        build_seconds_before = service.cache.stats.build_seconds
        report = service.certify(key, eps=0.5)
        extra_build = service.cache.stats.build_seconds - build_seconds_before
        assert report.sparsifier_edges > 0
        # the certification report build only paid the eigensolve, not a
        # fresh sparsify; and no duplicate sparsifier entry was cached
        kinds = [entry.kind for entry in service.cache.entries()]
        assert kinds.count("certification") == 1
        assert "sparsifier" not in kinds
        prep = next(
            e.value for e in service.cache.entries() if e.kind == "preprocessing"
        )
        assert report.sparsifier_edges == prep.sparsifier.m

    def test_certify_after_solve_reads_the_measured_window(self, rng, linalg_counts):
        # measuring kappa inverts L_H through the preconditioner and L_G
        # through the grounded artifact (n above DENSE_EIG_FALLBACK: eigsh runs)
        graph = generators.random_weighted_graph(300, average_degree=6, seed=22)
        service = make_service()
        key = service.register(graph)
        service.solve(key, rng.normal(size=graph.n))
        assert linalg_counts["splu"] == 2 and linalg_counts["eigsh"] == 2
        by_kind = {entry.kind: entry.value for entry in service.cache.entries()}
        assert set(by_kind) == {"preprocessing", "grounded"}
        window = by_kind["preprocessing"].spectral_window

        linalg_counts.clear()
        report = service.certify(key, eps=0.5)
        assert linalg_counts["eigsh"] == 0 and linalg_counts["splu"] == 0
        assert (report.lo, report.hi) == window

        # an insertion is absorbed by repair, which drops the stored window
        # with the transcript it described: certify measures again
        graph.add_edge(0, 150, 2.0)
        service.solve(key, rng.normal(size=graph.n))
        assert service.cache.stats.repairs >= 1
        repaired = next(
            e.value for e in service.cache.entries() if e.kind == "preprocessing"
        )
        assert repaired is by_kind["preprocessing"]
        assert repaired.spectral_window is None
        linalg_counts.clear()
        again = service.certify(key, eps=0.5)
        assert linalg_counts["eigsh"] == 2
        assert again is not report and again.graph_edges == graph.m
