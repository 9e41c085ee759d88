"""QueryPlanner: coalescing plans and blocked execution correctness."""

import numpy as np
import pytest

import reference_dense
from repro.graphs import generators
from repro.serve.artifacts import ArtifactCache
from repro.serve.planner import (
    QueryPlanner,
    certify_query,
    resistance_batch_query,
    resistance_query,
    solve_query,
)
from repro.serve.registry import GraphRegistry
from repro.solvers.laplacian import BCCLaplacianSolver


@pytest.fixture
def graph():
    return generators.random_weighted_graph(60, average_degree=6, seed=9)


@pytest.fixture
def setup(graph):
    registry = GraphRegistry()
    cache = ArtifactCache()
    planner = QueryPlanner(registry, cache, solver_seed=0, t_override=2)
    key = registry.register(graph, name="g")
    return planner, key


class TestPlanning:
    def test_groups_by_graph_kind_and_eps(self, setup):
        planner, key = setup
        b = np.zeros(60)
        queries = [
            solve_query(key, b, eps=1e-6),
            resistance_query(key, 0, 1),
            solve_query(key, b, eps=1e-6),
            solve_query(key, b, eps=1e-8),
            certify_query(key),
            resistance_query(key, 2, 3),
        ]
        batches = planner.plan(queries)
        shapes = [(batch.kind, batch.size) for batch in batches]
        assert ("solve", 2) in shapes  # the two eps=1e-6 solves coalesced
        assert ("solve", 1) in shapes  # the eps=1e-8 solve stands alone
        assert ("resistance", 2) in shapes
        assert ("certify", 1) in shapes

    def test_preserves_submission_order_within_batch(self, setup):
        planner, key = setup
        queries = [resistance_query(key, 0, i) for i in range(1, 6)]
        (batch,) = planner.plan(queries)
        assert [q.query_id for q in batch.queries] == [q.query_id for q in queries]

    def test_different_graphs_never_coalesce(self, setup, graph):
        planner, key = setup
        other_key = planner.registry.register(
            generators.random_weighted_graph(30, seed=4), name="h"
        )
        batches = planner.plan(
            [resistance_query(key, 0, 1), resistance_query(other_key, 0, 1)]
        )
        assert len(batches) == 2

    def test_rejects_unknown_kind(self, setup):
        from repro.serve.planner import Query

        with pytest.raises(ValueError):
            Query("frobnicate", "g", {})


class TestExecution:
    def test_solve_batch_matches_direct_solver(self, setup, graph, rng):
        planner, key = setup
        rhs = [rng.normal(size=graph.n) for _ in range(3)]
        queries = [solve_query(key, b, eps=1e-8) for b in rhs]
        results = planner.execute(planner.plan(queries))
        reference = BCCLaplacianSolver(graph, seed=0, t_override=2)
        for result, b in zip(results, rhs):
            np.testing.assert_allclose(
                result.value.solution, reference.exact_solution(b), atol=1e-6
            )
            assert result.batch_size == 3

    def test_resistance_batch_matches_dense_reference(self, setup, graph, rng):
        planner, key = setup
        pairs = [(int(u), int(v)) for u, v in rng.integers(0, graph.n, (20, 2))]
        queries = [resistance_query(key, u, v) for u, v in pairs]
        results = planner.execute(planner.plan(queries))
        reference = reference_dense.pair_resistances(graph, *np.transpose(pairs))
        np.testing.assert_allclose(
            [r.value for r in results], reference, rtol=1e-7, atol=1e-9
        )

    def test_bulk_and_scalar_resistance_queries_coalesce(self, setup, graph):
        planner, key = setup
        bulk = resistance_batch_query(key, [(0, 1), (2, 3)])
        scalar = resistance_query(key, 4, 5)
        (batch,) = planner.plan([bulk, scalar])
        results = planner.execute_batch(batch)
        assert isinstance(results[0].value, np.ndarray) and results[0].value.shape == (2,)
        assert isinstance(results[1].value, float)
        reference = reference_dense.pair_resistances(graph, [0, 2, 4], [1, 3, 5])
        np.testing.assert_allclose(
            np.append(results[0].value, results[1].value), reference, rtol=1e-7
        )

    def test_oracle_and_grounded_paths_agree(self, graph, rng):
        registry = GraphRegistry()
        pairs = [(int(u), int(v)) for u, v in rng.integers(0, graph.n, (16, 2))]
        values = []
        for oracle_limit in (0, graph.n):  # force grounded vs oracle path
            planner = QueryPlanner(
                registry, ArtifactCache(), t_override=2, oracle_limit=oracle_limit
            )
            key = registry.register(graph)
            results = planner.execute(
                planner.plan([resistance_query(key, u, v) for u, v in pairs])
            )
            values.append([r.value for r in results])
        np.testing.assert_allclose(values[0], values[1], rtol=1e-8, atol=1e-10)

    def test_certify_coalesces_to_one_artifact(self, setup, graph):
        planner, key = setup
        queries = [certify_query(key, eps=0.5) for _ in range(3)]
        results = planner.execute(planner.plan(queries))
        assert len(results) == 3
        assert all(r.value is results[0].value for r in results)
        report = results[0].value
        slack = 1e-7
        assert report.ok == (
            report.lo >= 0.5 - slack and report.hi <= 1.5 + slack
        )
        # second round hits the cached sparsifier
        again = planner.execute(planner.plan([certify_query(key, eps=0.5)]))
        assert again[0].cache_hit

    def test_certify_accepts_a_valid_sparsifier(self, setup, graph):
        planner, key = setup
        # a huge bundle makes the sparsifier the whole graph: trivially valid
        planner.t_override = 10
        report = planner.execute(planner.plan([certify_query(key, eps=0.5)]))[0].value
        assert report.ok
        assert report.lo == pytest.approx(1.0) and report.hi == pytest.approx(1.0)

    def test_solver_artifact_reused_across_batches(self, setup, graph, rng):
        planner, key = setup
        b = rng.normal(size=graph.n)
        first = planner.execute(planner.plan([solve_query(key, b)]))
        second = planner.execute(planner.plan([solve_query(key, b)]))
        assert not first[0].cache_hit
        assert second[0].cache_hit
