"""Tests for the LP problem container and the robust barrier IPM."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.congest.ledger import CommunicationPrimitives
from repro.lp import BarrierIPM, LPProblem
from repro.lp.barrier_ipm import (
    theoretical_iteration_bound_sqrt_m,
    theoretical_iteration_bound_sqrt_n,
)


def random_box_lp(m, n, seed=0):
    """A random LP with box [0,1] and a known interior point."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    x_interior = rng.uniform(0.3, 0.7, size=m)
    b = A.T @ x_interior
    c = rng.normal(size=m)
    problem = LPProblem(A=A, b=b, c=c, lower=np.zeros(m), upper=np.ones(m))
    return problem, x_interior


def scipy_optimum(problem):
    result = linprog(
        problem.c,
        A_eq=problem.A.T,
        b_eq=problem.b,
        bounds=list(zip(problem.lower, problem.upper)),
        method="highs",
    )
    assert result.success
    return result.fun


class TestLPProblem:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LPProblem(np.ones((4, 2)), np.ones(3), np.ones(4), np.zeros(4), np.ones(4))
        with pytest.raises(ValueError):
            LPProblem(np.ones((4, 2)), np.ones(2), np.ones(3), np.zeros(4), np.ones(4))

    def test_feasibility_checks(self):
        problem, x0 = random_box_lp(10, 3, seed=1)
        assert problem.is_strictly_feasible(x0)
        assert problem.is_feasible(x0)
        assert not problem.is_feasible(np.full(10, 2.0))

    def test_objective_and_residual(self):
        problem, x0 = random_box_lp(8, 2, seed=2)
        assert problem.objective(x0) == pytest.approx(float(problem.c @ x0))
        np.testing.assert_allclose(problem.equality_residual(x0), 0.0, atol=1e-10)

    def test_bound_parameter_positive(self):
        problem, x0 = random_box_lp(8, 2, seed=3)
        assert problem.bound_parameter(x0) >= 1.0

    def test_gram_solver_default_and_custom(self):
        problem, _ = random_box_lp(8, 3, seed=4)
        d = np.ones(8)
        rhs = np.ones(3)
        default = problem.solve_gram(d, rhs)
        np.testing.assert_allclose(problem.A.T @ (d[:, None] * problem.A) @ default, rhs, atol=1e-6)

        calls = []

        def custom(dd, r):
            calls.append(1)
            return np.zeros_like(r)

        problem.gram_solver = custom
        problem.solve_gram(d, rhs)
        assert calls


class TestBarrierIPM:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_optimum(self, seed):
        problem, x0 = random_box_lp(25, 5, seed=seed)
        reference = scipy_optimum(problem)
        solution = BarrierIPM(problem).solve(x0, eps=1e-7)
        assert solution.converged
        assert solution.objective == pytest.approx(reference, abs=1e-3)
        assert problem.is_feasible(solution.x, tol=1e-5)

    def test_tighter_eps_gets_closer(self):
        problem, x0 = random_box_lp(20, 4, seed=5)
        reference = scipy_optimum(problem)
        loose = BarrierIPM(problem).solve(x0, eps=1e-2)
        tight = BarrierIPM(problem).solve(x0, eps=1e-8)
        assert abs(tight.objective - reference) <= abs(loose.objective - reference) + 1e-9

    def test_duality_gap_bound_reported(self):
        problem, x0 = random_box_lp(15, 3, seed=6)
        solution = BarrierIPM(problem).solve(x0, eps=1e-4)
        assert solution.duality_gap is not None
        assert solution.duality_gap <= 1e-4 * 1.01

    def test_requires_strictly_feasible_start(self):
        problem, _ = random_box_lp(10, 3, seed=7)
        with pytest.raises(ValueError, match="strictly feasible"):
            BarrierIPM(problem).solve(np.zeros(10))

    def test_rounds_charged_with_comm(self):
        problem, x0 = random_box_lp(12, 3, seed=8)
        comm = CommunicationPrimitives(6)
        solution = BarrierIPM(problem, comm=comm).solve(x0, eps=1e-4)
        assert solution.rounds > 0
        assert comm.ledger.rounds_by_operation()["laplacian_solve"] > 0

    def test_both_solves_of_every_iteration_are_charged(self):
        problem, x0 = random_box_lp(12, 3, seed=8)
        comm = CommunicationPrimitives(6)
        solution = BarrierIPM(problem, comm=comm).solve(x0, eps=1e-6)
        assert comm.ledger.rounds_by_operation()["laplacian_solve"] == 2 * solution.iterations

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duals_match_highs(self, seed):
        problem, x0 = random_box_lp(25, 5, seed=seed)
        reference = linprog(
            problem.c,
            A_eq=problem.A.T,
            b_eq=problem.b,
            bounds=list(zip(problem.lower, problem.upper)),
            method="highs",
        )
        solution = BarrierIPM(problem).solve(x0, eps=1e-9)
        np.testing.assert_allclose(solution.y, reference.eqlin.marginals, atol=1e-5)

    @pytest.mark.parametrize("eps", [1e-14, 1e-30])
    def test_unreachable_gap_stops_without_raising(self, eps):
        """Past float64's reach the run stalls, returns its best iterate and
        says it did not converge."""
        problem, x0 = random_box_lp(25, 5, seed=3)
        solution = BarrierIPM(problem).solve(x0, eps=eps)
        assert problem.is_feasible(solution.x, tol=1e-6)
        assert solution.objective == pytest.approx(scipy_optimum(problem), abs=1e-6)
        assert not solution.converged or solution.duality_gap <= eps

    def test_iteration_bounds_helpers(self):
        assert theoretical_iteration_bound_sqrt_m(100, 1e-3) > theoretical_iteration_bound_sqrt_n(
            10, 2.0, 1e-3
        )
