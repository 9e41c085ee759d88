"""A robust primal log-barrier interior point method.

This is the engineering fallback engine of ``docs/substitutions.md`` (section
3): it solves the same LPs as the Lee-Sidford solver
(``min c^T x, A^T x = b, l <= x <= u``), uses the *same* linear-system
primitive per Newton step -- one solve with
``A^T D A`` for a positive diagonal ``D`` -- and is charged with the same
Broadcast Congested Clique communication primitives, but follows the classical
(unweighted) central path with damped Newton steps and a long-step barrier
update.  At float64 on laptop-scale instances it reaches duality gaps around
``1e-9``, which is what the exact min-cost-flow rounding of Section 5 needs.

The number of Newton iterations of this engine is ``O(sqrt(m) log(1/eps))`` in
theory (standard path following); the Lee-Sidford solver improves the ``m`` to
``n = rank(A)``, which is the point of the paper.  Experiment E4 compares the
two iteration counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.congest.ledger import CommunicationPrimitives, RoundLedger
from repro.lp.barriers import BarrierFunction
from repro.lp.problem import LPProblem, LPSolution


@dataclass
class IPMReport:
    """Per-run diagnostics of the barrier IPM."""

    newton_iterations: int = 0
    outer_iterations: int = 0
    gram_solves: int = 0
    final_t: float = 0.0
    final_decrement: float = 0.0
    objective_history: List[float] = field(default_factory=list)


class BarrierIPM:
    """Primal log-barrier path following with ``A^T D A`` Newton systems.

    Parameters
    ----------
    problem:
        The LP in Lee-Sidford form.
    comm:
        Optional communication tracker; every Newton step charges two
        matrix-vector products and one Gram solve (``T(n, m)`` rounds).
    t_increase:
        Multiplicative barrier-parameter update (long steps by default).
    """

    def __init__(
        self,
        problem: LPProblem,
        comm: Optional[CommunicationPrimitives] = None,
        t_increase: float = 8.0,
        centering_tolerance: float = 0.25,
        max_newton_per_stage: int = 200,
    ):
        self.problem = problem
        self.comm = comm
        self.t_increase = float(t_increase)
        self.centering_tolerance = float(centering_tolerance)
        self.max_newton_per_stage = int(max_newton_per_stage)
        self.report = IPMReport()

    # -- internals -----------------------------------------------------------------

    def _newton_direction(
        self, barrier: BarrierFunction, x: np.ndarray, t: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Projected Newton direction for ``t c^T x + phi(x)`` on ``A^T x = b``.

        Returns ``(dx, h)`` with ``h`` the barrier Hessian at ``x``.
        """
        problem = self.problem
        g = t * problem.c + barrier.gradient(x)
        h = barrier.hessian(x)
        h_inv = 1.0 / h
        # infeasible-start Newton: aim for A^T (x + dx) = b so that numerical
        # drift in the equality constraints is corrected at every step
        residual = problem.equality_residual(x)
        rhs = residual - problem.AT @ (h_inv * g)
        y = problem.solve_gram(h_inv, rhs)
        dx = -h_inv * (g + problem.A @ y)
        self.report.gram_solves += 1
        if self.comm is not None:
            self.comm.matvec("A^T (H^{-1} g)")
            self.comm.matvec("A y")
            self.comm.laplacian_solve(1.0, "Newton system A^T H^{-1} A")
            self.comm.vector_op("Newton update")
        return dx, h

    @staticmethod
    def _max_step_inside(
        barrier: BarrierFunction, x: np.ndarray, dx: np.ndarray
    ) -> float:
        """Largest step alpha with ``x + alpha dx`` still strictly inside the box."""
        alpha = 1.0
        lower, upper = barrier.lower, barrier.upper
        with np.errstate(divide="ignore", invalid="ignore"):
            down = np.where(dx < 0, (x - lower) / (-dx), np.inf)
            up = np.where(dx > 0, (upper - x) / dx, np.inf)
        limit = float(min(np.min(down), np.min(up)))
        return min(alpha, 0.99 * limit)

    def _least_norm_correction(self, residual: np.ndarray) -> np.ndarray:
        """Minimum-norm ``delta`` with ``A^T delta = residual``.

        ``delta = A (A^T A)^{-1} residual`` -- one unweighted Gram solve, so it
        reuses whatever backend (sparse grounded Laplacian, serving bridge)
        ``solve_gram`` is wired to, and works for sparse ``A`` where
        ``np.linalg.lstsq`` would not.
        """
        problem = self.problem
        ones = np.ones(problem.m)
        return problem.A @ problem.solve_gram(ones, residual)

    def _restore_equality(self, x: np.ndarray) -> np.ndarray:
        """Project ``x`` back onto ``A^T x = b`` (least-squares correction).

        Newton directions live in the null space of ``A^T`` up to the accuracy
        of the Gram solve; this correction removes the accumulated drift so the
        certified duality gap refers to a genuinely feasible point.
        """
        residual = self.problem.equality_residual(x)
        if float(np.linalg.norm(residual, ord=np.inf)) < 1e-13:
            return x
        corrected = x - self._least_norm_correction(residual)
        barrier = self.problem.barrier()
        return corrected if barrier.contains(corrected) else x

    def _polish_feasibility(self, x: np.ndarray, iterations: int = 50) -> np.ndarray:
        """Alternating projections onto ``{A^T x = b}`` and the box.

        The extreme barrier parameter of the final centering stage leaves a
        small equality residual (the Gram systems are nearly singular there);
        a few alternating projections push it below 1e-9 while staying inside
        the box, without noticeably moving the objective.
        """
        problem = self.problem
        best = x
        for _ in range(iterations):
            residual = problem.equality_residual(best)
            if float(np.linalg.norm(residual, ord=np.inf)) < 1e-10:
                break
            best = np.clip(
                best - self._least_norm_correction(residual), problem.lower, problem.upper
            )
        return best

    def _center(
        self,
        barrier: BarrierFunction,
        x: np.ndarray,
        t: float,
        tolerance: float,
    ) -> np.ndarray:
        """Damped Newton until the Newton decrement drops below ``tolerance``."""
        x = self._restore_equality(x)
        for _ in range(self.max_newton_per_stage):
            dx, h = self._newton_direction(barrier, x, t)
            decrement = math.sqrt(max(0.0, float(dx @ (h * dx))))
            self.report.newton_iterations += 1
            self.report.final_decrement = decrement
            if decrement <= tolerance:
                break
            step = 1.0 / (1.0 + decrement) if decrement > 0.25 else 1.0
            step = min(step, self._max_step_inside(barrier, x, dx))
            if step <= 1e-16:
                break
            x = x + step * dx
        return x

    # -- public API ------------------------------------------------------------------

    def solve(
        self,
        x0: np.ndarray,
        eps: float = 1e-8,
        t0: Optional[float] = None,
        max_outer: int = 200,
    ) -> LPSolution:
        """Follow the central path from ``x0`` until the duality-gap bound is ``<= eps``.

        ``x0`` must be strictly feasible (``A^T x0 = b`` and strictly inside the
        box); the flow formulation of Section 5 provides one explicitly.
        """
        problem = self.problem
        barrier = problem.barrier()
        x = np.array(x0, dtype=float)
        if not problem.is_strictly_feasible(x, tol=1e-6):
            raise ValueError("the barrier IPM needs a strictly feasible starting point")

        m = problem.m
        # nu = m: every coordinate carries a 1-self-concordant barrier.
        cost_scale = max(1.0, float(np.max(np.abs(problem.c))))
        t = t0 if t0 is not None else 1.0 / cost_scale
        t_final = (m + 1) / max(eps, 1e-300)

        self.report = IPMReport()
        history: List[float] = []
        outer = 0
        while t < t_final and outer < max_outer:
            outer += 1
            x = self._center(barrier, x, t, self.centering_tolerance)
            history.append(problem.objective(x))
            t *= self.t_increase
        # final centering at t >= t_final for a certified gap
        t = max(t, t_final)
        x = self._center(barrier, x, t, self.centering_tolerance / 2.0)
        x = self._polish_feasibility(x)
        history.append(problem.objective(x))

        self.report.outer_iterations = outer
        self.report.final_t = t
        self.report.objective_history = history
        gap_bound = (m + math.sqrt(m)) / t

        rounds = self.comm.ledger.total_rounds if self.comm is not None else 0.0
        return LPSolution(
            x=x,
            objective=problem.objective(x),
            iterations=self.report.newton_iterations,
            rounds=rounds,
            converged=bool(problem.is_feasible(x, tol=1e-6)),
            duality_gap=gap_bound,
            history=history,
        )


def theoretical_iteration_bound_sqrt_m(m: int, eps: float) -> float:
    """Classical path following needs ``O(sqrt(m) log(m/eps))`` Newton steps."""
    m = max(2, int(m))
    eps = max(1e-300, float(eps))
    return math.sqrt(m) * math.log(m / eps)


def theoretical_iteration_bound_sqrt_n(n: int, U: float, eps: float) -> float:
    """Lee-Sidford path following needs ``O(sqrt(n) log(U/eps))`` steps (Theorem 1.4)."""
    n = max(2, int(n))
    eps = max(1e-300, float(eps))
    return math.sqrt(n) * math.log(max(2.0, U) / eps)
