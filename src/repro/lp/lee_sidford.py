"""The Lee-Sidford weighted path-following LP solver (Section 4.2, Algorithms 9-11).

Structure-faithful implementation of ``LPSolve`` / ``PathFollowing`` /
``CenteringInexact``: the iterate is a pair ``(x, w)`` of a primal point and a
vector of (approximate, regularised) Lewis weights, each centering step takes a
projected Newton step on ``x`` (one ``A^T D A`` solve), recomputes approximate
Lewis weights at the new point and moves ``log w`` towards them by a step
projected onto a mixed norm ball (Section 4.3).

Two kinds of parameters exist:

* the *structural* ones of the paper (``c_k = 2 log 4m``, ``C_norm``,
  ``R``, the ``eta``-accuracies), reproduced verbatim in
  :func:`lee_sidford_constants`; and
* the *step-size aggressiveness*.  The paper's literal ``alpha =
  R/(1600 sqrt(n) log^2 m)`` is astronomically small (it exists to make the
  proof go through) and would need ~10^10 iterations even for toy instances.
  The implementation therefore exposes ``alpha`` with a practical default of
  ``1/(8 sqrt(n))`` -- the same ``Theta(1/sqrt(n))`` dependence that gives the
  ``O(sqrt(n) log(1/eps))`` iteration count of Theorem 1.4 -- and re-centers
  with as many ``CenteringInexact`` steps as needed (measured and reported).
  This substitution is recorded in ``docs/substitutions.md``, 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.congest.ledger import CommunicationPrimitives
from repro.graphs.graph import WeightedGraph
from repro.linalg.lewis import compute_apx_weights, lewis_p_parameter, lewis_regularisation
from repro.linalg.mixed_ball import project_mixed_ball
from repro.lp.barriers import BarrierFunction
from repro.lp.gram import detect_incidence_structure, scale_rows
from repro.lp.problem import LPProblem, LPSolution


@dataclass
class LeeSidfordConstants:
    """The weight-function constants of Definition 4.2 / Section 4.2."""

    c_1: float
    c_s: float
    c_k: float
    C_norm: float
    R: float
    p: float
    c_0: float


def lee_sidford_constants(m: int, n: int) -> LeeSidfordConstants:
    """Constants for a problem with ``m`` variables and ``n`` constraints."""
    m = max(2, int(m))
    n = max(1, int(n))
    c_1 = 1.5 * n
    c_s = 4.0
    c_k = 2.0 * math.log(4 * m)
    C_norm = 24.0 * math.sqrt(c_s * c_k)
    R = 1.0 / (768.0 * c_k ** 2 * math.log(36.0 * c_1 * c_s * c_k * m))
    return LeeSidfordConstants(
        c_1=c_1,
        c_s=c_s,
        c_k=c_k,
        C_norm=C_norm,
        R=R,
        p=lewis_p_parameter(m),
        c_0=lewis_regularisation(m, n),
    )


@dataclass
class LeeSidfordReport:
    """Diagnostics of one LPSolve run."""

    path_following_steps: int = 0
    centering_steps: int = 0
    gram_solves: int = 0
    weight_recomputations: int = 0
    final_centrality: float = 0.0
    objective_history: List[float] = field(default_factory=list)


class LeeSidfordSolver:
    """Weighted path finding in the Broadcast Congested Clique (Theorem 1.4).

    Parameters
    ----------
    problem:
        LP in the form ``min c^T x, A^T x = b, l <= x <= u`` with ``rank(A) = n``.
    alpha:
        Relative step of the path parameter ``t`` per iteration.  ``None``
        selects the practical ``1/(8 sqrt(n))`` default; the paper's proof value
        is ``R / (1600 sqrt(n) log^2 m)``.
    reweight:
        If True (default), maintain approximate Lewis weights as in the paper;
        if False, keep ``w === 1`` (classical path following, used in ablations).
    use_sketching:
        Forwarded to the Lewis-weight computation (JL-sketched leverage scores
        versus exact ones).
    resistance_oracle:
        Serving hook forwarded to graph-mode Lewis-weight computations (see
        :func:`repro.linalg.lewis.compute_apx_weights`): a resident
        sketched-resistance oracle for the auxiliary graph that lets uniform
        iterates read leverage scores off shared serving artifacts.  Only
        consulted when ``A`` is incidence-structured with a bijective
        row/pair map.
    """

    def __init__(
        self,
        problem: LPProblem,
        alpha: Optional[float] = None,
        reweight: bool = True,
        use_sketching: bool = False,
        comm: Optional[CommunicationPrimitives] = None,
        centering_repeats: int = 3,
        seed: Optional[int] = None,
        resistance_oracle=None,
    ):
        self.problem = problem
        self.constants = lee_sidford_constants(problem.m, problem.n)
        self.alpha = alpha if alpha is not None else 1.0 / (8.0 * math.sqrt(max(1, problem.n)))
        self.reweight = reweight
        self.use_sketching = use_sketching
        self.comm = comm
        self.centering_repeats = int(centering_repeats)
        self.rng = np.random.default_rng(seed)
        self.report = LeeSidfordReport()
        self.resistance_oracle = resistance_oracle
        # Lemma 5.1 fast path: if A is incidence-structured, every
        # Lewis-weight recomputation can run in graph mode (leverage scores =
        # weighted effective resistances on the auxiliary graph, one sparse
        # grounded factorisation per iteration) instead of sketching or
        # pinv-ing the reweighted matrix.  Rows that collapse onto repeated
        # pairs (anti-parallel flow edges) share one resistance per pair.
        self.structure = detect_incidence_structure(problem.A)

    # -- inner machinery -------------------------------------------------------------

    def _projected_step(
        self,
        barrier: BarrierFunction,
        x: np.ndarray,
        w: np.ndarray,
        t: float,
        cost: np.ndarray,
    ) -> np.ndarray:
        """The Newton-like step of CenteringInexact (line 3 of Algorithm 11).

        Computes ``P_{x,w} v`` with ``v = (t c + w phi'(x)) / (w sqrt(phi''(x)))``
        through one solve with ``A_x^T W^{-1} A_x`` and returns the movement
        ``- (1/sqrt(phi''(x))) P_{x,w} v`` (before the inside-the-box safeguard).
        """
        problem = self.problem
        phi1 = barrier.gradient(x)
        phi2 = barrier.hessian(x)
        sqrt_phi2 = np.sqrt(phi2)
        v = (t * cost + w * phi1) / (w * sqrt_phi2)
        # A_x = (Phi'')^{-1/2} A is never formed (the row scaling is applied
        # to the vectors instead); the projection matrix is
        # P = I - W^{-1} A_x (A_x^T W^{-1} A_x)^{-1} A_x^T
        d = 1.0 / (w * phi2)  # diagonal of (Phi'')^{-1/2} W^{-1} (Phi'')^{-1/2}
        rhs = problem.AT @ (v / sqrt_phi2)
        y = problem.solve_gram(d, rhs)
        self.report.gram_solves += 1
        projected = v - (problem.A @ y) / (w * sqrt_phi2)
        if self.comm is not None:
            self.comm.matvec("A_x^T v")
            self.comm.matvec("A_x y")
            self.comm.laplacian_solve(1.0, "solve in A_x^T W^{-1} A_x")
            self.comm.vector_op("centering vector operations")
        return -projected / sqrt_phi2

    def _mixed_norm(self, w: np.ndarray, z: np.ndarray) -> float:
        """The ``|| . ||_{w + inf}`` norm of Section 4.1."""
        weighted = math.sqrt(float(np.sum(w * z * z)))
        return float(np.max(np.abs(z))) + self.constants.C_norm * weighted

    def _lewis_weights(
        self,
        phi2: np.ndarray,
        w0: Optional[np.ndarray],
        eta: float,
        max_iterations: int,
    ):
        """Approximate Lewis weights of ``(Phi'')^{-1/2} A``, per row.

        On incidence-structured problems the reweighted matrix *is* the
        weighted incidence matrix of the auxiliary graph (row ``r`` has
        squared norm ``scale_r^2 / phi2_r``), so the computation runs in
        graph-``rows`` mode -- each fixed-point iteration costs one sparse
        grounded factorisation instead of a dense pseudoinverse or a JL
        regression loop, with parallel rows of one pair sharing a single
        resistance.  Generic problems take the matrix path unchanged.
        """
        structure = self.structure
        if structure is None:
            A_x = scale_rows(self.problem.A, 1.0 / np.sqrt(phi2))
            return compute_apx_weights(
                A_x,
                self.constants.p,
                w0=w0,
                eta=eta,
                rng=self.rng,
                comm=self.comm,
                use_sketching=self.use_sketching,
                max_iterations=max_iterations,
            )
        row_norm2 = 1.0 / phi2
        if structure.row_scale2 is not None:
            row_norm2 = row_norm2 * structure.row_scale2
        graph = WeightedGraph(structure.n + 1)
        # pairs are stored in the canonical order WeightedGraph.edge_array
        # uses, so pair index == auxiliary-graph edge index
        graph.add_edges(structure.pair_u, structure.pair_v, structure.aggregate(1.0 / phi2))
        return compute_apx_weights(
            p=self.constants.p,
            w0=w0,
            eta=eta,
            rng=self.rng,
            comm=self.comm,
            use_sketching=self.use_sketching,
            max_iterations=max_iterations,
            graph=graph,
            resistance_oracle=self.resistance_oracle,
            rows=(structure.row_pair, row_norm2),
        )

    def _recompute_weights(
        self, barrier: BarrierFunction, x_new: np.ndarray, w: np.ndarray, delta: float
    ) -> np.ndarray:
        """Lines 4-6 of CenteringInexact: move ``log w`` towards the new Lewis weights."""
        constants = self.constants
        phi2 = barrier.hessian(x_new)
        target_eta = min(0.5, math.expm1(constants.R))
        weights_report = self._lewis_weights(
            phi2,
            np.maximum(w - constants.c_0, constants.c_0),
            max(target_eta, 1e-3),
            4,
        )
        self.report.weight_recomputations += 1
        z = np.log(np.maximum(weights_report.weights + constants.c_0, 1e-300))
        log_w = np.log(w)
        direction = (1.0 / (12.0 * constants.R)) * (z - log_w)
        if not np.any(direction):
            return w
        ball = project_mixed_ball(direction, constants.C_norm * np.sqrt(w), comm=self.comm)
        step_scale = (1.0 - 6.0 / (7.0 * constants.c_k)) * min(1.0, delta)
        u = step_scale * ball.x
        # keep the weights in a sane range around the regularisation floor
        new_log_w = np.clip(log_w + u, math.log(constants.c_0 / 2.0), math.log(2.0 * constants.c_1))
        return np.exp(new_log_w)

    def centering_inexact(
        self,
        barrier: BarrierFunction,
        x: np.ndarray,
        w: np.ndarray,
        t: float,
        cost: np.ndarray,
    ):
        """One step of ``CenteringInexact`` (Algorithm 11)."""
        step = self._projected_step(barrier, x, w, t, cost)
        phi2 = barrier.hessian(x)
        delta = self._mixed_norm(w, -step * np.sqrt(phi2))
        # Safeguard (deviation from the idealised analysis): shrink the step so
        # the iterate stays strictly inside the box.
        alpha_max = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            down = np.where(step < 0, (x - barrier.lower) / (-step), np.inf)
            up = np.where(step > 0, (barrier.upper - x) / step, np.inf)
        limit = float(min(np.min(down), np.min(up)))
        alpha_max = min(alpha_max, 0.9 * limit)
        x_new = x + alpha_max * step

        if self.reweight:
            w_new = self._recompute_weights(barrier, x_new, w, delta)
        else:
            w_new = w
        self.report.centering_steps += 1
        self.report.final_centrality = delta
        return x_new, w_new, delta

    def path_following(
        self,
        x: np.ndarray,
        w: np.ndarray,
        t_start: float,
        t_end: float,
        eta: float,
        cost: np.ndarray,
        max_steps: int = 10_000,
    ):
        """``PathFollowing`` (Algorithm 10) from ``t_start`` to ``t_end``."""
        barrier = self.problem.barrier()
        t = float(t_start)
        steps = 0
        while not math.isclose(t, t_end, rel_tol=1e-12) and steps < max_steps:
            steps += 1
            for _ in range(self.centering_repeats):
                x, w, delta = self.centering_inexact(barrier, x, w, t, cost)
                if delta < 0.1:
                    break
            if t_end > t:
                t = min((1.0 + self.alpha) * t, t_end)
            else:
                t = max((1.0 - self.alpha) * t, t_end)
            self.report.path_following_steps += 1
            self.report.objective_history.append(self.problem.objective(x))
        # final centering at t_end (the paper does 4 c_k log(1/eta) steps)
        final_steps = min(60, max(4, math.ceil(4.0 * math.log(1.0 / max(eta, 1e-12)))))
        for _ in range(final_steps):
            x, w, delta = self.centering_inexact(barrier, x, w, t_end, cost)
            if delta < eta:
                break
        return x, w

    # -- public API ---------------------------------------------------------------------

    def solve(
        self,
        x0: np.ndarray,
        eps: float = 1e-3,
        max_steps: int = 10_000,
    ) -> LPSolution:
        """``LPSolve`` (Algorithm 9): returns ``x`` with ``c^T x <= OPT + eps``.

        ``x0`` must be strictly feasible.  The two PathFollowing phases follow
        the paper: the first re-centers the start with respect to the synthetic
        cost ``d = w phi'(x0)``, the second follows the real cost up to
        ``t_2 ~ m / eps``.
        """
        problem = self.problem
        if not problem.is_strictly_feasible(x0, tol=1e-6):
            raise ValueError("LPSolve needs a strictly feasible starting point")
        barrier = problem.barrier()
        m, n = problem.m, problem.n
        U = problem.bound_parameter(x0)

        self.report = LeeSidfordReport()
        # initial regularised Lewis weights at x0
        if self.reweight:
            phi2 = barrier.hessian(np.asarray(x0, dtype=float))
            init = self._lewis_weights(phi2, None, 0.25, 6)
            w = init.weights + self.constants.c_0
        else:
            w = np.ones(m)

        x = np.array(x0, dtype=float)
        d = w * barrier.gradient(x)

        t1 = 1.0 / (2.0 ** 10 * (m ** 1.5) * (U ** 2) * max(1.0, math.log(m) ** 4))
        t2 = 2.0 * m / max(eps, 1e-300)
        eta1 = 1.0 / (2.0 ** 18 * max(1.0, math.log(m) ** 3))
        eta2 = eps / (8.0 * U ** 2)

        x, w = self.path_following(x, w, 1.0, t1, eta1, d, max_steps=max_steps)
        x, w = self.path_following(x, w, t1, t2, eta2, problem.c, max_steps=max_steps)

        rounds = self.comm.ledger.total_rounds if self.comm is not None else 0.0
        return LPSolution(
            x=x,
            objective=problem.objective(x),
            iterations=self.report.path_following_steps,
            rounds=rounds,
            converged=problem.is_feasible(x, tol=1e-5),
            duality_gap=(m + 1) / t2,
            history=self.report.objective_history,
        )

    def iteration_bound(self, eps: float, U: Optional[float] = None) -> float:
        """The ``O(sqrt(n) log(U/eps))`` bound of Theorem 1.4."""
        n = max(2, self.problem.n)
        U = U if U is not None else 2.0
        return math.sqrt(n) * math.log(max(2.0, U) / max(eps, 1e-300))
