"""Tests for the Broadcast Congested Clique Laplacian solver (Theorem 1.3)."""

import numpy as np
import pytest

import reference_dense
from repro.graphs import generators
from repro.linalg.sparse_backend import (
    PENCIL_EIG_TOL_RELAXED,
    GroundedLaplacianSolver,
)
from repro.solvers import BCCLaplacianSolver
from repro.solvers.chebyshev import chebyshev_iteration_count
from repro.solvers.laplacian import KAPPA_MARGIN


@pytest.fixture(scope="module")
def solver_graph():
    return generators.random_weighted_graph(24, average_degree=6, max_weight=8, seed=5)


@pytest.fixture(scope="module")
def solver(solver_graph):
    # t_override keeps preprocessing fast; the solver then measures the actual
    # preconditioner quality and still meets the accuracy contract.
    return BCCLaplacianSolver(solver_graph, seed=1, t_override=2)


@pytest.fixture(scope="module")
def heavier_solver():
    graph = generators.random_weighted_graph(48, average_degree=8, max_weight=16, seed=5)
    return BCCLaplacianSolver(graph, seed=6, t_override=2)


class TestAccuracy:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-5, 1e-8])
    def test_error_bound_in_laplacian_norm(self, solver, heavier_solver, eps):
        for each, rhs_seed in ((solver, 3), (heavier_solver, 7)):
            b = np.random.default_rng(rhs_seed).normal(size=each.graph.n)
            report = each.solve(b, eps=eps, check=True)
            assert report.error_bound_holds
            assert report.measured_relative_error <= eps

    def test_paper_parameters_also_meet_bound(self):
        g = generators.random_weighted_graph(16, average_degree=5, seed=7)
        solver = BCCLaplacianSolver(g, seed=2)
        rng = np.random.default_rng(4)
        b = rng.normal(size=g.n)
        report = solver.solve(b, eps=1e-6, check=True)
        assert report.error_bound_holds

    def test_exact_preconditioner_mode(self, solver_graph):
        solver = BCCLaplacianSolver(solver_graph, exact_preconditioner=True)
        rng = np.random.default_rng(5)
        b = rng.normal(size=solver_graph.n)
        report = solver.solve(b, eps=1e-10, check=True)
        assert report.error_bound_holds
        assert solver.preprocessing.kappa == 1.0

    def test_solution_orthogonal_to_ones(self, solver, solver_graph):
        rng = np.random.default_rng(6)
        b = rng.normal(size=solver_graph.n)
        report = solver.solve(b, eps=1e-6)
        # the Chebyshev iterates stay in the range of L (b was projected)
        assert abs(np.mean(report.solution)) < 1e-6 * (1 + np.linalg.norm(report.solution))

    def test_exact_solution_reference(self, solver, solver_graph):
        rng = np.random.default_rng(7)
        b = rng.normal(size=solver_graph.n)
        x = solver.exact_solution(b)
        L = reference_dense.laplacian_matrix(solver_graph)
        b_projected = b - np.mean(b)
        np.testing.assert_allclose(L @ x, b_projected, atol=1e-8)


class TestRounds:
    def test_rounds_grow_with_precision(self, solver, solver_graph):
        rng = np.random.default_rng(8)
        b = rng.normal(size=solver_graph.n)
        cheap = solver.solve(b, eps=1e-2)
        precise = solver.solve(b, eps=1e-8)
        assert precise.rounds >= cheap.rounds
        assert precise.chebyshev.iterations >= cheap.chebyshev.iterations

    def test_preprocessing_recorded_once(self, solver):
        assert solver.preprocessing.rounds > 0
        assert solver.preprocessing.sparsifier_edges > 0

    def test_theorem_bounds_are_finite(self, solver):
        assert np.isfinite(solver.preprocessing_round_bound())
        assert solver.per_instance_round_bound(1e-6) > solver.per_instance_round_bound(1e-2) * 0.5

    def test_ledger_tracks_matvecs(self, solver_graph):
        solver = BCCLaplacianSolver(solver_graph, seed=3, t_override=2)
        rng = np.random.default_rng(9)
        solver.solve(rng.normal(size=solver_graph.n), eps=1e-4)
        grouped = solver.ledger.rounds_by_operation()
        assert "matvec" in grouped
        assert grouped["matvec"] > 0


class TestValidation:
    def test_disconnected_graph_rejected(self):
        from repro.graphs.graph import WeightedGraph

        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="connected"):
            BCCLaplacianSolver(g)

    def test_bad_eps_rejected(self, solver, solver_graph):
        with pytest.raises(ValueError):
            solver.solve(np.zeros(solver_graph.n), eps=0.9)

    def test_bad_rhs_shape_rejected(self, solver):
        with pytest.raises(ValueError):
            solver.solve(np.zeros(3), eps=1e-3)

    def test_solve_many(self, solver, solver_graph):
        rng = np.random.default_rng(10)
        rhs = [rng.normal(size=solver_graph.n) for _ in range(3)]
        reports = solver.solve_many(rhs, eps=1e-4)
        assert len(reports) == 3


class TestSparseBackend:
    def test_sparse_backend_matches_dense(self, solver_graph):
        rng = np.random.default_rng(17)
        b = rng.normal(size=solver_graph.n)
        expected = reference_dense.solve(solver_graph, b - b.mean())
        solver = BCCLaplacianSolver(solver_graph, seed=1, t_override=2)
        report = solver.solve(b, eps=1e-8, check=True)
        assert report.error_bound_holds
        np.testing.assert_allclose(report.solution, expected, atol=1e-7)
        np.testing.assert_allclose(solver.exact_solution(b), expected, atol=1e-8)
        block = rng.normal(size=(solver_graph.n, 3))
        np.testing.assert_allclose(
            solver.exact_solution_many(block),
            reference_dense.solve(solver_graph, block - block.mean(axis=0)),
            atol=1e-8,
        )

    def test_sparse_exact_preconditioner(self, solver_graph):
        rng = np.random.default_rng(18)
        b = rng.normal(size=solver_graph.n)
        solver = BCCLaplacianSolver(solver_graph, exact_preconditioner=True)
        report = solver.solve(b, eps=1e-8, check=True)
        assert report.error_bound_holds
        L = reference_dense.laplacian_matrix(solver_graph)
        residual = L @ report.solution - (b - b.mean())
        assert np.linalg.norm(residual) <= 1e-6 * max(1.0, np.linalg.norm(b))

    @pytest.mark.parametrize("n", [2000, pytest.param(5000, marks=pytest.mark.slow)])
    def test_large_exact_preconditioner_meets_the_bound(self, n):
        """Sizes a dense pseudoinverse cannot touch (``m`` above 10^4)."""
        graph = generators.random_weighted_graph(n, average_degree=11.0, max_weight=16, seed=5)
        b = np.random.default_rng(7).normal(size=graph.n)
        report = BCCLaplacianSolver(graph, exact_preconditioner=True).solve(b, eps=1e-8, check=True)
        assert report.error_bound_holds


class TestReusablePreprocessing:
    def test_prepare_then_construct_matches_from_scratch(self, solver_graph):
        rng = np.random.default_rng(23)
        b = rng.normal(size=solver_graph.n)
        scratch = BCCLaplacianSolver(solver_graph, seed=1, t_override=2)
        prepared = BCCLaplacianSolver.prepare(solver_graph, seed=1, t_override=2)
        reused = BCCLaplacianSolver(solver_graph, preprocessing=prepared)
        np.testing.assert_allclose(
            reused.solve(b, eps=1e-8).solution,
            scratch.solve(b, eps=1e-8).solution,
            atol=1e-10,
        )
        assert reused.preprocessing.kappa == scratch.preprocessing.kappa
        assert reused.preprocessing.sparsifier == scratch.preprocessing.sparsifier

    def test_reused_preprocessing_charges_no_rounds(self, solver_graph):
        prepared = BCCLaplacianSolver.prepare(solver_graph, seed=1, t_override=2)
        scratch = BCCLaplacianSolver(solver_graph, seed=1, t_override=2)
        reused = BCCLaplacianSolver(solver_graph, preprocessing=prepared)
        assert scratch.ledger.total_rounds > 0
        assert reused.ledger.total_rounds == 0
        # the report still documents what preprocessing originally cost
        assert reused.preprocessing.rounds == scratch.preprocessing.rounds > 0

    def test_the_solver_ledger_starts_with_the_preprocessing_entries(self, solver_graph):
        """One ledger from spanner to solver: the sparsifier's entries, then the solves'."""
        solver = BCCLaplacianSolver(solver_graph, seed=1, t_override=2)
        entries = solver.prepared.ledger.entries
        assert solver.ledger.entries == entries
        assert solver.ledger.total_rounds == solver.prepared.rounds == solver.preprocessing.rounds
        solver.solve(np.random.default_rng(3).normal(size=solver_graph.n), eps=1e-4)
        assert solver.ledger.entries[: len(entries)] == entries
        assert {entry.operation for entry in solver.ledger.entries[len(entries):]} >= {"matvec"}

    def test_preprocessing_shared_across_constructions(self, solver_graph):
        prepared = BCCLaplacianSolver.prepare(solver_graph, seed=1, t_override=2)
        a = BCCLaplacianSolver(solver_graph, preprocessing=prepared)
        c = BCCLaplacianSolver(solver_graph, preprocessing=prepared)
        assert a.prepared is c.prepared is prepared
        assert isinstance(prepared.grounded, GroundedLaplacianSolver)  # one, shared

    def test_wrong_size_preprocessing_rejected(self, solver_graph):
        prepared = BCCLaplacianSolver.prepare(solver_graph, seed=1, t_override=2)
        other = generators.random_weighted_graph(solver_graph.n + 3, seed=4)
        with pytest.raises(ValueError):
            BCCLaplacianSolver(other, preprocessing=prepared)

    def test_prepare_requires_connected_graph(self):
        from repro.graphs.graph import WeightedGraph

        g = WeightedGraph(4)
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            BCCLaplacianSolver.prepare(g)

    def test_nbytes_accounting(self, solver_graph):
        prepared = BCCLaplacianSolver.prepare(solver_graph, seed=1, t_override=2)
        solver = BCCLaplacianSolver(solver_graph, preprocessing=prepared)
        assert solver.nbytes() >= prepared.nbytes() > 0

    def test_conflicting_knobs_with_preprocessing_rejected(self, solver_graph):
        prepared = BCCLaplacianSolver.prepare(solver_graph, seed=1, t_override=2)
        for kwargs in (
            {"seed": 1},
            {"t_override": 2},
            {"bundle_scale": 2.0},
            {"exact_preconditioner": True},
        ):
            with pytest.raises(ValueError):
                BCCLaplacianSolver(solver_graph, preprocessing=prepared, **kwargs)


class TestSharpBudget:
    """The minimal Chebyshev degree still meets ``eps`` end to end."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize(
        "knobs", [{}, {"t_override": 2}, {"t_override": 3}], ids=["paper", "t2", "t3"]
    )
    def test_error_bound_holds_with_the_minimal_budget(self, seed, knobs):
        g = generators.random_weighted_graph(
            18 + seed % 7, average_degree=5, max_weight=8, seed=100 + seed
        )
        solver = BCCLaplacianSolver(g, seed=seed, **knobs)
        rng = np.random.default_rng(seed)
        single = solver.solve(rng.normal(size=g.n), eps=1e-6, check=True)
        assert single.error_bound_holds, single.measured_relative_error
        assert single.chebyshev.iterations == chebyshev_iteration_count(
            solver.preprocessing.kappa, 1e-6
        )
        many = solver.solve_many(
            [rng.normal(size=g.n) for _ in range(3)], eps=1e-8, check=True
        )
        assert all(r.error_bound_holds for r in many), [
            r.measured_relative_error for r in many
        ]
        assert many[0].chebyshev.iterations == chebyshev_iteration_count(
            solver.preprocessing.kappa, 1e-8
        )

    def test_measured_kappa_carries_the_stated_margin(self):
        g = generators.random_weighted_graph(120, average_degree=7, max_weight=8, seed=9)
        # twice the loosest eigsh tolerance is the most hi / lo can be short by
        assert KAPPA_MARGIN > 2 * PENCIL_EIG_TOL_RELAXED
        prepared = BCCLaplacianSolver.prepare(g, seed=3, t_override=2)
        lo, hi = prepared.spectral_window
        assert prepared.scale == hi
        assert prepared.kappa == (hi / lo) * (1.0 + KAPPA_MARGIN)
        true_lo, true_hi = reference_dense.spectral_approximation_factor(
            g, prepared.sparsifier
        )
        assert prepared.kappa > true_hi / true_lo

    def test_paper_parameters_record_no_measured_window(self):
        g = generators.random_weighted_graph(16, average_degree=5, seed=7)
        prepared = BCCLaplacianSolver.prepare(g, seed=2)
        assert prepared.kappa == 3.0 and prepared.spectral_window is None


class TestOneFactorisationPerMatrix:
    @pytest.fixture(scope="class")
    def graph(self):
        # above DENSE_EIG_FALLBACK unknowns, so the measurement runs eigsh
        return generators.random_weighted_graph(150, average_degree=7, max_weight=8, seed=21)

    def test_construct_and_checked_solves_factorise_each_matrix_once(
        self, graph, linalg_counts
    ):
        solver = BCCLaplacianSolver(graph, seed=1, t_override=2)
        assert linalg_counts["splu"] == 2  # L_H and L_G, none inside eigsh
        assert linalg_counts["eigsh"] == 2
        rng = np.random.default_rng(0)
        assert solver.solve(rng.normal(size=graph.n), eps=1e-6, check=True).error_bound_holds
        reports = solver.solve_many(
            [rng.normal(size=graph.n) for _ in range(4)], eps=1e-8, check=True
        )
        assert all(r.error_bound_holds for r in reports)
        assert linalg_counts["splu"] == 2
        assert solver._exact_solver is not solver.prepared.grounded

    def test_prepare_takes_the_graph_factorisation_it_is_handed(
        self, graph, linalg_counts
    ):
        graph_solver = GroundedLaplacianSolver(graph)
        linalg_counts.clear()
        handed = BCCLaplacianSolver.prepare(
            graph, seed=1, t_override=2, grounded=lambda: graph_solver
        )
        assert linalg_counts["splu"] == 1  # the sparsifier's only
        own = BCCLaplacianSolver.prepare(graph, seed=1, t_override=2)
        assert linalg_counts["splu"] == 3
        assert handed.spectral_window == own.spectral_window
        assert handed.kappa == own.kappa

    def test_paper_parameters_never_ask_for_the_graph_factorisation(self, linalg_counts):
        g = generators.random_weighted_graph(16, average_degree=5, seed=7)

        def unexpected():
            raise AssertionError("kappa is not measured under the paper's parameters")

        BCCLaplacianSolver.prepare(g, seed=2, grounded=unexpected)
        assert linalg_counts["splu"] == 1 and linalg_counts["eigsh"] == 0

    def test_insertion_repair_drops_the_window(self, graph):
        prepared = BCCLaplacianSolver.prepare(graph, seed=1, t_override=2)
        assert prepared.spectral_window is not None
        assert prepared.apply_insertion(0, 1, 0.5)
        assert prepared.spectral_window is None and prepared.sparsifier_result is None
