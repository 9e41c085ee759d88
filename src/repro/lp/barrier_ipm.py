"""A primal-dual interior point method: Mehrotra's predictor-corrector.

This is the LP engine of ``docs/substitutions.md`` (sections 3-4): it solves
the LPs of Theorem 1.4 (``min c^T x, A^T x = b, l <= x <= u``), its Newton
systems are the paper's primitive -- one solve with ``A^T D A`` for a
positive diagonal ``D`` -- and it is charged with the Broadcast Congested
Clique communication primitives.  It runs the infeasible-start
predictor-corrector of Mehrotra (*SIAM J. Optim.* 1992; Wright, *Primal-Dual
Interior-Point Methods*, 1997) on the box: primal slacks ``p = x - l`` and
``q = u - x``, dual slacks ``z1, z2 > 0`` and free duals ``y``.  The
predictor and the corrector share one Newton matrix ``A^T diag(theta) A``
with ``theta = 1 / (z1/p + z2/q)``.  The start need only lie strictly
inside the box: every Newton step carries the primal residual
``b - A^T x`` and the dual one, so the flow LP starts at the middle of its
box with no feasible flow in hand.

The run stops on the *measured* duality gap ``p^T z1 + q^T z2 <= eps`` with
both residuals at most ``1e-9`` relative, and returns the duals ``y`` with
``x`` so a caller can certify what it makes of the answer; on a stall it
returns its best iterate, unconverged.  A caller that can certify an iterate
passes that check as ``accept``: the run then returns the first iterate the
check accepts, and the gap and the stall rule are only the cap (the flow
pipeline stops at its first certified rounding this way).  The
``O(sqrt(m) log(m/eps))`` iteration bound is the Mizuno-Todd-Ye
predictor-corrector's (``tests/lp/test_ipm.py`` holds a run to it);
Mehrotra's heuristic carries no bound but needs tens of iterations in
practice.  Lee-Sidford's weighted path following improves the ``m`` to
``n = rank(A)``, which is the point of the paper; the measurement that keeps
it out of this repo is in ``docs/substitutions.md`` section 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.congest.ledger import CommunicationPrimitives
from repro.linalg.sparse_backend import NumericalHealthError
from repro.lp.problem import LPProblem, LPSolution

#: iteration cap; Mehrotra's method needs tens on the flow LPs
MAX_ITERATIONS = 200
#: relative tolerance on both residuals
RESIDUAL_TOLERANCE = 1e-9
#: fraction of the largest feasible step actually taken
STEP_FRACTION = 0.995
#: iterations without a better iterate before the run counts as stalled
STALL_ITERATIONS = 10


@dataclass
class IPMReport:
    """Per-run diagnostics of the barrier IPM."""

    #: predictor-corrector iterations; each is two Gram solves
    newton_iterations: int = 0


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest ``alpha <= 1`` with ``v + alpha dv >= 0`` (``v > 0``)."""
    falling = dv < 0
    return min(1.0, float(np.min(-v[falling] / dv[falling]))) if falling.any() else 1.0


class BarrierIPM:
    """Mehrotra's primal-dual predictor-corrector with ``A^T D A`` Newton systems.

    Parameters
    ----------
    problem:
        The LP in Lee-Sidford form; its box must be finite.
    comm:
        Optional communication tracker; every iteration charges two Gram
        solves (predictor and corrector) and four matrix-vector products.
    """

    def __init__(self, problem: LPProblem, comm: Optional[CommunicationPrimitives] = None):
        self.problem = problem
        self.comm = comm
        self.report = IPMReport()

    def _direction(self, theta, r_p, r_d, r1, r2, p, q, z1, z2):
        """Newton step for ``A^T dx = r_p``, ``A dy + dz1 - dz2 = r_d`` and the
        linearised complementarity ``z1 dx + p dz1 = r1``, ``q dz2 - z2 dx = r2``.
        """
        problem = self.problem
        g = r_d - r1 / p + r2 / q
        dy = problem.solve_gram(theta, r_p + problem.AT @ (theta * g))
        dx = theta * (problem.A @ dy - g)
        if self.comm is not None:
            self.comm.matvec("A^T (theta g)")
            self.comm.laplacian_solve(1.0, "Newton system A^T theta A")
            self.comm.matvec("A dy")
        return dx, dy, (r1 - z1 * dx) / p, (r2 + z2 * dx) / q

    def solve(
        self,
        x0: np.ndarray,
        eps: float = 1e-8,
        accept: Optional[Callable[[np.ndarray, np.ndarray], bool]] = None,
    ) -> LPSolution:
        """Run from ``x0`` until the measured duality gap is ``<= eps``.

        ``x0`` must lie strictly inside the box; it need not satisfy
        ``A^T x0 = b``, because every Newton step carries the primal residual
        (the flow pipeline starts at the middle of the box).  On a stall, or
        when a slack underflows, the best iterate is returned with
        ``converged=False`` instead of raising.

        ``accept(x, y)``, when given, is asked about every iterate (the start
        included) before anything else: the first iterate it accepts is
        returned at once, with its index in
        :attr:`~repro.lp.problem.LPSolution.accepted_iteration`.  The gap,
        the stall rule and :data:`MAX_ITERATIONS` stay the cap; a run that
        reaches it returns the best iterate unaccepted.
        """
        problem = self.problem
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not (np.all(np.isfinite(problem.lower)) and np.all(np.isfinite(problem.upper))):
            raise ValueError("the barrier IPM needs a finite box")
        x = np.array(x0, dtype=float)
        if np.any(x <= problem.lower) or np.any(x >= problem.upper):
            raise ValueError("the barrier IPM needs a start strictly inside the box")

        c, lower, upper = problem.c, problem.lower, problem.upper
        m = problem.m
        # y = 0 with z1 - z2 = c starts dual feasible; the shift keeps both
        # dual slacks as large as the costs, so the start is roughly centred
        shift = max(1.0, float(np.max(np.abs(c))))
        y = np.zeros(problem.n)
        z1 = np.maximum(c, 0.0) + shift
        z2 = np.maximum(-c, 0.0) + shift
        tol_p = RESIDUAL_TOLERANCE * (1.0 + float(np.max(np.abs(problem.b), initial=0.0)))
        tol_d = RESIDUAL_TOLERANCE * (1.0 + shift)

        self.report = IPMReport()
        best = (math.inf, x, y, math.inf)  # (merit, x, y, gap); merit <= 1 is converged
        accepted_iteration = None
        since_best = 0
        while self.report.newton_iterations < MAX_ITERATIONS:
            p, q = x - lower, upper - x
            r_p = problem.b - problem.AT @ x
            r_d = c - problem.A @ y - z1 + z2
            gap = float(p @ z1 + q @ z2)
            merit = max(
                gap / eps,
                float(np.max(np.abs(r_p), initial=0.0)) / tol_p,
                float(np.max(np.abs(r_d))) / tol_d,
            )
            if accept is not None and accept(x, y):
                best, accepted_iteration = (merit, x, y, gap), self.report.newton_iterations
                break
            with np.errstate(divide="ignore", over="ignore"):
                theta = 1.0 / (z1 / p + z2 / q)
            if not (np.all(p > 0) and np.all(q > 0) and np.all(np.isfinite(theta) & (theta > 0))):
                break  # a slack underflowed: the Newton matrix is no longer defined
            if merit < best[0]:
                best, since_best = (merit, x, y, gap), 0
            else:
                since_best += 1
            if merit <= 1.0 or since_best >= STALL_ITERATIONS:
                break
            self.report.newton_iterations += 1

            def direction(r1, r2):
                return self._direction(theta, r_p, r_d, r1, r2, p, q, z1, z2)

            def step_lengths(dx, dz1, dz2):
                return (
                    min(_max_step(p, dx), _max_step(q, -dx)),
                    min(_max_step(z1, dz1), _max_step(z2, dz2)),
                )

            try:
                # predictor: the affine-scaling direction, aiming at zero gap
                dx, dy, dz1, dz2 = direction(-p * z1, -q * z2)
                alpha_p, alpha_d = step_lengths(dx, dz1, dz2)
                gap_aff = float(
                    (p + alpha_p * dx) @ (z1 + alpha_d * dz1)
                    + (q - alpha_p * dx) @ (z2 + alpha_d * dz2)
                )
                sigma_mu = (gap_aff / gap) ** 3 * gap / (2 * m)
                # corrector: centring plus the second-order term, same Newton matrix
                dx, dy, dz1, dz2 = direction(
                    sigma_mu - p * z1 - dx * dz1, sigma_mu - q * z2 + dx * dz2
                )
            except (RuntimeError, NumericalHealthError):
                break  # the Newton matrix is numerically singular: a stall
            alpha_p, alpha_d = (STEP_FRACTION * alpha for alpha in step_lengths(dx, dz1, dz2))
            x = x + alpha_p * dx
            y, z1, z2 = y + alpha_d * dy, z1 + alpha_d * dz1, z2 + alpha_d * dz2

        merit, x, y, gap = best
        rounds = self.comm.ledger.total_rounds if self.comm is not None else 0.0
        return LPSolution(
            x=x,
            y=y,
            objective=problem.objective(x),
            iterations=self.report.newton_iterations,
            rounds=rounds,
            converged=merit <= 1.0,
            duality_gap=gap,
            accepted_iteration=accepted_iteration,
        )
