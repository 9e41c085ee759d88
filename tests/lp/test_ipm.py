"""Tests for the LP problem container and the robust barrier IPM."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.congest.ledger import CommunicationPrimitives
from repro.lp import BarrierIPM, LPProblem


def equality_residual(problem, x):
    """``A^T x - b``."""
    return problem.AT @ np.asarray(x, dtype=float) - problem.b


def is_feasible(problem, x, tol=1e-6):
    """Feasibility w.r.t. both the equality and the box constraints."""
    x = np.asarray(x, dtype=float)
    if np.any(x < problem.lower - tol) or np.any(x > problem.upper + tol):
        return False
    return bool(np.linalg.norm(equality_residual(problem, x), ord=np.inf) <= tol)


def is_strictly_feasible(problem, x, tol=1e-9):
    """Strictly inside the box and on the equality constraints."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= problem.lower) or np.any(x >= problem.upper):
        return False
    return bool(np.linalg.norm(equality_residual(problem, x), ord=np.inf) <= tol)


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
        assert is_strictly_feasible(problem, x0)
        assert is_feasible(problem, x0)
        assert not is_feasible(problem, np.full(10, 2.0))

    def test_objective_and_residual(self):
        problem, x0 = random_box_lp(8, 2, seed=2)
        assert problem.objective(x0) == pytest.approx(float(problem.c @ x0))
        np.testing.assert_allclose(equality_residual(problem, x0), 0.0, atol=1e-10)

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
        assert is_feasible(problem, solution.x, tol=1e-5)

    @pytest.mark.parametrize("m, n, seed", [(6, 1, 10), (12, 6, 11), (40, 8, 12), (60, 20, 13)])
    def test_primal_and_dual_optimality_across_shapes(self, m, n, seed):
        """Feasible, at HiGHS's optimum, and with a nonnegative gap that closes."""
        problem, x0 = random_box_lp(m, n, seed=seed)
        reference = scipy_optimum(problem)
        solution = BarrierIPM(problem).solve(x0, eps=1e-7)
        assert solution.converged
        assert is_feasible(problem, solution.x, tol=1e-5)
        assert solution.objective == pytest.approx(reference, abs=1e-4)
        assert 0.0 <= solution.duality_gap <= 1e-7 * 1.01
        # a feasible point cannot beat the optimum
        assert solution.objective >= reference - 1e-6

    def test_sparse_constraint_matrix_matches_dense(self):
        import scipy.sparse as sp

        dense, x0 = random_box_lp(30, 6, seed=14)
        sparse = LPProblem(
            A=sp.csr_matrix(dense.A), b=dense.b, c=dense.c, lower=dense.lower, upper=dense.upper
        )
        a = BarrierIPM(dense).solve(x0, eps=1e-8)
        b = BarrierIPM(sparse).solve(x0, eps=1e-8)
        assert b.objective == pytest.approx(a.objective, abs=1e-6)
        np.testing.assert_allclose(b.x, a.x, atol=1e-4)

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

    def test_requires_start_strictly_inside_the_box(self):
        problem, _ = random_box_lp(10, 3, seed=7)
        with pytest.raises(ValueError, match="strictly inside the box"):
            BarrierIPM(problem).solve(np.zeros(10))

    @pytest.mark.parametrize("seed", range(4))
    def test_infeasible_start_inside_the_box_reaches_the_optimum(self, seed):
        """The box midpoint misses ``A^T x = b``; the primal residual rides
        along every Newton step, as on the flow LP."""
        problem, _ = random_box_lp(25, 5, seed=seed)
        midpoint = (problem.lower + problem.upper) / 2.0
        assert np.linalg.norm(equality_residual(problem, midpoint), ord=np.inf) > 1e-3
        solution = BarrierIPM(problem).solve(midpoint, eps=1e-7)
        assert solution.converged
        assert is_feasible(problem, solution.x, tol=1e-6)
        assert solution.objective == pytest.approx(scipy_optimum(problem), abs=1e-5)

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
        assert is_feasible(problem, solution.x, tol=1e-6)
        assert solution.objective == pytest.approx(scipy_optimum(problem), abs=1e-6)
        assert not solution.converged or solution.duality_gap <= eps

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_iterations_within_sqrt_m_bound(self, n):
        """Mehrotra's steps stay far inside the Mizuno-Todd-Ye ``O(sqrt(m))``
        bound, and every step is charged."""
        problem, x0 = random_box_lp(6 * n, n, seed=n)
        comm = CommunicationPrimitives(n + 1)
        solution = BarrierIPM(problem, comm=comm).solve(x0, eps=1e-6)
        assert solution.converged
        # Mizuno-Todd-Ye path following needs O(sqrt(m) log(m/eps)) Newton steps
        assert 0 < solution.iterations <= math.sqrt(problem.m) * math.log(problem.m / 1e-6)
        assert solution.rounds == comm.ledger.total_rounds > 0


class TestAcceptHook:
    def test_first_accepted_iterate_is_returned(self):
        """The hook sees the start and every iterate after it; the run stops
        at the first it accepts and returns that iterate, marked."""
        problem, x0 = random_box_lp(25, 5, seed=4)
        seen = []

        def accept(x, y):
            seen.append((x.copy(), y.copy()))
            return len(seen) == 4

        solution = BarrierIPM(problem).solve(x0, eps=1e-9, accept=accept)
        assert len(seen) == 4
        np.testing.assert_array_equal(seen[0][0], x0)
        np.testing.assert_array_equal(seen[0][1], np.zeros(problem.n))
        np.testing.assert_array_equal(solution.x, seen[3][0])
        np.testing.assert_array_equal(solution.y, seen[3][1])
        assert solution.accepted_iteration == solution.iterations == 3
        assert not solution.converged

    def test_a_hook_that_never_accepts_changes_nothing(self):
        """The cap is the run without a hook, iterate for iterate."""
        problem, x0 = random_box_lp(25, 5, seed=5)
        calls = []

        def refuse(x, y):
            calls.append(x)
            return False

        plain = BarrierIPM(problem).solve(x0, eps=1e-7)
        hooked = BarrierIPM(problem).solve(x0, eps=1e-7, accept=refuse)
        np.testing.assert_array_equal(hooked.x, plain.x)
        np.testing.assert_array_equal(hooked.y, plain.y)
        assert (hooked.iterations, hooked.converged) == (plain.iterations, True)
        assert hooked.accepted_iteration is plain.accepted_iteration is None
        assert len(calls) == plain.iterations + 1
