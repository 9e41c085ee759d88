"""Tests for the public facade API."""

import numpy as np
import pytest

import reference_dense
from repro import core
from repro.graphs import generators, is_spectral_sparsifier
from repro.graphs.graph import WeightedGraph
from repro.lp import LPProblem
from repro.solvers import BCCLaplacianSolver


class TestFacade:
    def test_spanner_facade(self):
        g = generators.random_weighted_graph(18, seed=1)
        result = core.spanner(g, k=2, seed=2)
        assert result.spanner_graph(g).is_connected()

    def test_sparsifier_facade(self):
        g = generators.random_weighted_graph(18, seed=3)
        result = core.spectral_sparsifier(g, eps=0.5, seed=4)
        assert is_spectral_sparsifier(g, result.sparsifier, eps=0.5)

    def test_laplacian_facade_with_and_without_reuse(self):
        g = generators.random_weighted_graph(18, seed=5)
        rng = np.random.default_rng(6)
        b = rng.normal(size=g.n)
        report = core.solve_laplacian(g, b, eps=1e-6, seed=7, t_override=2)
        assert report.solution.shape == (g.n,)
        solver = BCCLaplacianSolver(g, seed=8, t_override=2)
        report2 = core.solve_laplacian(g, b, eps=1e-6, solver=solver)
        np.testing.assert_allclose(report.solution, report2.solution, atol=1e-4)

    def test_lp_facade(self):
        rng = np.random.default_rng(9)
        m, n = 14, 3
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.4, 0.6, size=m)
        problem = LPProblem(A=A, b=A.T @ x0, c=rng.normal(size=m), lower=np.zeros(m), upper=np.ones(m))
        solution = core.solve_lp(problem, x0, eps=1e-5)
        assert solution.converged
        assert np.all(solution.x >= problem.lower - 1e-5)
        assert np.all(solution.x <= problem.upper + 1e-5)
        assert np.linalg.norm(problem.AT @ solution.x - problem.b, ord=np.inf) <= 1e-5

    def test_flow_facade(self):
        net = generators.random_flow_network(9, seed=10)
        result = core.min_cost_max_flow(net, seed=10, verify_against_baseline=True)
        assert result.value > 0


class TestPipeline:
    def test_figure_one_pipeline_runs_end_to_end(self):
        """Every box of Figure 1 through the facades, on one flow network: the
        spanner, sparsifier and Laplacian solver on its undirected unit-weight
        support, then the exact flow on the network itself."""
        net = generators.random_flow_network(10, seed=11, max_capacity=6, max_cost=4)
        support = WeightedGraph(net.n)
        for u, v in sorted({tuple(sorted(key)) for key in net.edge_keys()}):
            support.add_edge(u, v, 1.0)

        spanner = core.spanner(support, k=2, seed=11)
        assert spanner.spanner_graph(support).is_connected()
        # t_override=2 keeps the bundles thin: a preconditioner, not a certified sparsifier
        sparsifier = core.spectral_sparsifier(support, eps=0.5, seed=11, t_override=2)
        assert 0 < sparsifier.size <= support.m
        assert sparsifier.sparsifier.is_connected()
        solver = BCCLaplacianSolver(support, seed=11, t_override=2)
        b = np.random.default_rng(11).normal(size=support.n)
        report = core.solve_laplacian(support, b, eps=1e-6, solver=solver)
        np.testing.assert_allclose(report.solution, solver.exact_solution(b), atol=1e-4)
        flow = core.min_cost_max_flow(net, seed=11, verify_against_baseline=True)
        assert flow.value > 0

        stage_rounds = [
            spanner.rounds,
            sparsifier.rounds,
            solver.preprocessing.rounds + report.rounds,
            flow.rounds,
        ]
        assert all(rounds > 0 for rounds in stage_rounds)

    def test_spanner_facade_splits_decided_edges(self):
        g = generators.random_weighted_graph(20, seed=12)
        probabilities = {e.key: 0.5 for e in g.edges()}
        result = core.spanner(g, k=2, probabilities=probabilities, seed=13)
        assert result.f_plus.isdisjoint(result.f_minus)
        assert len(result.f_minus) > 0


class TestBatchedFacades:
    def test_solve_many_matches_single_solves(self):
        graph = generators.random_weighted_graph(30, average_degree=5, seed=3)
        rng = np.random.default_rng(0)
        rhs = [rng.normal(size=graph.n) for _ in range(3)]
        reports = core.solve_many(graph, rhs, eps=1e-8, seed=1, t_override=2)
        reference = BCCLaplacianSolver(graph, seed=1, t_override=2)
        assert len(reports) == 3
        for report, b in zip(reports, rhs):
            np.testing.assert_allclose(
                report.solution, reference.exact_solution(b), atol=1e-6
            )

    def test_solve_many_reuses_supplied_solver(self):
        graph = generators.random_weighted_graph(30, average_degree=5, seed=3)
        solver = BCCLaplacianSolver(graph, seed=1, t_override=2)
        rng = np.random.default_rng(1)
        reports = core.solve_many(
            graph, [rng.normal(size=graph.n)], eps=1e-6, solver=solver
        )
        assert len(reports) == 1

    def test_effective_resistances_all_edges_default(self):
        graph = generators.grid_graph(5, 5)
        from repro.graphs import effective_resistances as graph_er

        np.testing.assert_allclose(
            core.effective_resistances(graph), graph_er(graph), rtol=1e-9
        )

    def test_effective_resistances_pairs_dense_vs_sparse(self):
        graph = generators.random_weighted_graph(40, average_degree=6, seed=5)
        rng = np.random.default_rng(2)
        pairs = [(int(u), int(v)) for u, v in rng.integers(0, graph.n, (25, 2))]
        dense = reference_dense.pair_resistances(graph, *np.transpose(pairs))
        sparse = core.effective_resistances(graph, pairs=pairs)
        np.testing.assert_allclose(dense, sparse, rtol=1e-8, atol=1e-10)

    def test_effective_resistances_pair_semantics(self):
        # two components: a triangle and an edge
        from repro.graphs.graph import WeightedGraph

        graph = WeightedGraph(5)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(3, 4, 2.0)
        values = core.effective_resistances(graph, pairs=[(0, 0), (0, 3), (3, 4)])
        assert values[0] == 0.0
        assert np.isinf(values[1])
        np.testing.assert_allclose(values[2], 0.5)

    def test_effective_resistances_validates_pairs(self):
        graph = generators.grid_graph(3, 3)
        with pytest.raises(ValueError):
            core.effective_resistances(graph, pairs=[(0, 99)])
        assert core.effective_resistances(graph, pairs=[]).shape == (0,)
