"""Tests for the public facade API."""

import inspect

import numpy as np
import pytest

import reference_dense
from repro import core
from repro.flow import mincostflow
from repro.flow.mincostflow import min_cost_max_flow
from repro.graphs import generators, is_spectral_sparsifier
from repro.graphs.graph import WeightedGraph
from repro.linalg.jl import resistance_sketch_dimension
from repro.linalg.resistance import SketchedResistanceOracle
from repro.lp import BarrierIPM, LPProblem
from repro.serve import LaplacianService
from repro.solvers import BCCLaplacianSolver
from repro.spanners.probabilistic import probabilistic_spanner
from repro.sparsify.spectral import spectral_sparsify


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
        report2 = solver.solve(b, eps=1e-6)
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
        report = solver.solve(b, eps=1e-6)
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
        reference = BCCLaplacianSolver(graph, seed=1, t_override=2)
        reports = core.solve_many(graph, rhs, eps=1e-8, solver=reference)
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


class TestFacadesForwardEveryParameter:
    """Each facade passes on every parameter it names: called with non-default
    values, it equals the callable it wraps bit for bit, so a dropped keyword
    (which ``**kwargs`` used to swallow) shows as a difference."""

    def test_no_facade_takes_arbitrary_keywords(self):
        facades = [
            value
            for name, value in vars(core.api).items()
            if inspect.isfunction(value) and value.__module__ == core.api.__name__
        ]
        assert len(facades) == 7
        for facade in facades:
            kinds = {p.kind for p in inspect.signature(facade).parameters.values()}
            assert inspect.Parameter.VAR_KEYWORD not in kinds, facade.__name__

    def test_spanner(self):
        g = generators.random_weighted_graph(30, seed=1)
        probabilities = {e.key: 0.5 for e in g.edges()}
        facade = core.spanner(g, k=3, probabilities=probabilities, seed=2)
        direct = probabilistic_spanner(g, probabilities=probabilities, k=3, seed=2)
        assert facade.f_plus == direct.f_plus and facade.f_minus == direct.f_minus
        assert facade.rounds == direct.rounds

    @pytest.mark.parametrize(
        "knobs", [{"t_override": 2}, {"bundle_scale": 0.05}], ids=["t_override", "bundle_scale"]
    )
    def test_spectral_sparsifier(self, knobs):
        g = generators.random_weighted_graph(40, average_degree=8, seed=3)
        facade = core.spectral_sparsifier(g, eps=0.4, seed=4, **knobs)
        direct = spectral_sparsify(g, eps=0.4, seed=4, **knobs)
        assert facade.sparsifier == direct.sparsifier
        assert facade.orientation == direct.orientation
        assert facade.rounds == direct.rounds

    def test_solve_laplacian(self):
        g = generators.random_weighted_graph(30, average_degree=5, seed=5)
        b = np.random.default_rng(6).normal(size=g.n)
        facade = core.solve_laplacian(g, b, eps=1e-7, seed=7, t_override=2)
        direct = BCCLaplacianSolver(g, seed=7, t_override=2).solve(b, eps=1e-7)
        np.testing.assert_array_equal(facade.solution, direct.solution)
        assert facade.rounds == direct.rounds
        assert facade.chebyshev.iterations == direct.chebyshev.iterations

    def test_solve_many(self):
        g = generators.random_weighted_graph(30, average_degree=5, seed=8)
        rng = np.random.default_rng(9)
        rhs = [rng.normal(size=g.n) for _ in range(3)]
        solver = BCCLaplacianSolver(g, seed=10, t_override=2)
        facade = core.solve_many(g, rhs, eps=1e-7, solver=solver)
        direct = BCCLaplacianSolver(g, seed=10, t_override=2).solve_many(rhs, eps=1e-7)
        for mine, theirs in zip(facade, direct):
            np.testing.assert_array_equal(mine.solution, theirs.solution)
            assert mine.rounds == theirs.rounds

    def test_solve_lp(self):
        rng = np.random.default_rng(11)
        m, n = 14, 3
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.4, 0.6, size=m)
        problem = LPProblem(
            A=A, b=A.T @ x0, c=rng.normal(size=m), lower=np.zeros(m), upper=np.ones(m)
        )
        facade = core.solve_lp(problem, x0, eps=1e-3)
        direct = BarrierIPM(problem).solve(x0, eps=1e-3)
        np.testing.assert_array_equal(facade.x, direct.x)
        assert facade.iterations == direct.iterations

    def test_effective_resistances_forwards_eta_and_seed(self):
        g = generators.random_weighted_graph(200, average_degree=6, seed=12)
        rng = np.random.default_rng(13)
        pairs = rng.integers(0, g.n, (400, 2))
        assert len(pairs) > resistance_sketch_dimension(g.m, 0.5)  # the sketch rung
        facade = core.effective_resistances(g, pairs=pairs, eta=0.5, seed=14)
        oracle = SketchedResistanceOracle(g, eta=0.5, seed=14)
        assert not oracle.exact
        np.testing.assert_array_equal(facade, oracle.pair_resistances(pairs[:, 0], pairs[:, 1]))
        other_seed = core.effective_resistances(g, pairs=pairs, eta=0.5, seed=15)
        assert not np.array_equal(facade, other_seed)

    def test_min_cost_max_flow_direct(self):
        net = generators.random_flow_network(12, seed=16)
        facade = core.min_cost_max_flow(net, seed=17)
        direct = min_cost_max_flow(net, seed=17)
        assert facade.flow == direct.flow and facade.cost == direct.cost
        assert facade.rounds == direct.rounds
        assert facade.lp_iterations == direct.lp_iterations

    def test_min_cost_max_flow_forwards_the_cross_check(self, monkeypatch):
        net = generators.random_flow_network(12, seed=18)
        exact = mincostflow.successive_shortest_paths(net)
        # a baseline that disagrees by one unit of flow: only a forwarded
        # verify_against_baseline consults it
        monkeypatch.setattr(
            mincostflow,
            "successive_shortest_paths",
            lambda network: (exact[0] + 1.0, exact[1], exact[2]),
        )
        core.min_cost_max_flow(net, seed=19)
        with pytest.raises(AssertionError, match="mismatch"):
            core.min_cost_max_flow(net, seed=19, verify_against_baseline=True)

    def test_min_cost_max_flow_forwards_the_service(self):
        net = generators.random_flow_network(12, seed=20)
        direct = min_cost_max_flow(net, seed=21)
        with LaplacianService(auto_flush=False) as service:
            served = core.min_cost_max_flow(net, seed=21, service=service)
            assert len(service.registry) == 1
            assert served.gram_stats is not None  # the served bridge ran
        assert served.flow == direct.flow and served.cost == direct.cost
        assert served.rounds == direct.rounds

    def test_min_cost_max_flow_refuses_the_cross_check_when_served(self):
        net = generators.random_flow_network(8, seed=22)
        with LaplacianService(auto_flush=False) as service:
            with pytest.raises(ValueError, match="direct path"):
                core.min_cost_max_flow(net, service=service, verify_against_baseline=True)
            assert len(service.registry) == 0
