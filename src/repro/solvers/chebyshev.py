"""Preconditioned Chebyshev iteration (Theorem 2.3 / Corollary 2.4).

Given symmetric positive semi-definite ``A`` and ``B`` with ``A <= B <= kappa A``
(in the Loewner order), the iteration solves ``A x = b`` up to relative error
``eps`` in the ``A``-norm using ``O(sqrt(kappa) log(1/eps))`` iterations, each
consisting of one multiplication by ``A``, one linear solve in ``B`` and a
constant number of vector operations -- exactly the operation profile the
paper's round analysis charges for.  The theorem fixes the length only up to
a constant; :func:`chebyshev_iteration_count` is the sharp one, the least
degree at which the Chebyshev polynomial meets ``eps`` (see
``docs/substitutions.md``, "Chebyshev iteration constant").

The implementation is the classical Chebyshev acceleration (Saad, *Iterative
Methods for Sparse Linear Systems*, Alg. 12.1) applied to the preconditioned
operator ``B^+ A`` whose nonzero spectrum lies in ``[1/kappa, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.linalg.sparse_backend import as_apply_fn

ApplyFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class ChebyshevReport:
    """Convergence record of one preconditioned Chebyshev run."""

    iterations: int
    kappa: float
    eps: float
    residual_norms: List[float] = field(default_factory=list)
    matvec_count: int = 0
    preconditioner_solves: int = 0


def _contraction(kappa: float) -> float:
    """``q = (sqrt(kappa) - 1) / (sqrt(kappa) + 1)``, so ``sigma_1 = (1 + q^2) / 2q``."""
    root = math.sqrt(kappa)
    return (root - 1.0) / (root + 1.0)


def chebyshev_error_bound(kappa: float, iterations: int) -> float:
    """Exact ``A``-norm error factor ``1 / T_k(sigma_1)`` after ``k`` iterations.

    The error polynomial of the iteration is the shifted Chebyshev polynomial
    ``T_k((theta - lambda) / delta) / T_k(sigma_1)`` with
    ``sigma_1 = (kappa + 1) / (kappa - 1)``: it is at most ``1 / T_k(sigma_1)``
    in modulus on the whole spectrum ``[1/kappa, 1]`` of ``B^+ A`` and attains
    that value at ``1/kappa``.  In closed form ``1 / T_k(sigma_1) =
    2 q^k / (1 + q^{2k})`` with ``q = (sqrt(kappa) - 1) / (sqrt(kappa) + 1)``
    (the textbook ``2 q^k`` drops the denominator).
    """
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    qk = _contraction(kappa) ** iterations
    return 2.0 * qk / (1.0 + qk * qk)


def chebyshev_iteration_count(kappa: float, eps: float) -> int:
    """The minimal degree meeting Theorem 2.3: least ``k`` with ``1/T_k(sigma_1) <= eps``.

    ``ceil(arccosh(1/eps) / arccosh((kappa + 1) / (kappa - 1)))``, at least 1
    (``kappa = 1`` is one exact preconditioner solve).  This is the sharp
    constant inside the theorem's ``O(sqrt(kappa) log(1/eps))``: one iteration
    fewer leaves the eigenvector at ``1/kappa`` with relative ``A``-norm error
    above ``eps`` (see :func:`chebyshev_error_bound`).
    """
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if not (0 < eps <= 0.5):
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    q = _contraction(kappa)
    if q == 0.0:  # kappa == 1 to rounding: one preconditioner solve is exact
        return 1
    # arccosh(sigma_1) = -log(q), written so that huge kappa loses no digits
    k = math.ceil(math.acosh(1.0 / eps) / -math.log(q))
    # the quotient can land within rounding of an integer: settle it against
    # the bound itself so count and bound can never disagree
    while chebyshev_error_bound(kappa, k) > eps:
        k += 1
    while k > 1 and chebyshev_error_bound(kappa, k - 1) <= eps:
        k -= 1
    return k


def preconditioned_chebyshev(
    apply_A: ApplyFn,
    solve_B: ApplyFn,
    b: np.ndarray,
    kappa: float,
    eps: float,
    x0: Optional[np.ndarray] = None,
    max_iterations: Optional[int] = None,
) -> Tuple[np.ndarray, ChebyshevReport]:
    """Solve ``A x = b`` with preconditioner ``B`` satisfying ``A <= B <= kappa A``.

    Parameters
    ----------
    apply_A:
        Function computing ``A @ v``; a dense or scipy sparse matrix is also
        accepted and wrapped into a matvec.
    solve_B:
        Function computing ``B^+ @ v`` (an exact or high-precision solve in B);
        a dense or sparse matrix is likewise accepted.
    b:
        Right-hand side (must lie in the range of ``A`` for singular systems).
        May also be an ``(n, k)`` block of right-hand sides: the recurrence
        coefficients are independent of ``b``, so all columns advance in
        lockstep through block matvecs/solves and the reported residual norms
        are Frobenius norms of the block residual.
    kappa:
        Relative condition number bound of the pair ``(A, B)``.
    eps:
        Target relative error in the ``A``-norm (Theorem 2.3 guarantee).
    x0:
        Optional initial iterate (defaults to zero).
    max_iterations:
        Override of the iteration budget (defaults to
        :func:`chebyshev_iteration_count`, the minimal sufficient degree).

    Returns
    -------
    (x, report):
        The approximate solution and the convergence report.
    """
    apply_A = as_apply_fn(apply_A)
    solve_B = as_apply_fn(solve_B)
    b = np.asarray(b, dtype=float)
    iterations = max_iterations if max_iterations is not None else chebyshev_iteration_count(kappa, eps)

    # Spectrum of the preconditioned operator B^+ A lies in [1/kappa, 1].
    lam_min = 1.0 / float(kappa)
    lam_max = 1.0
    theta = 0.5 * (lam_max + lam_min)
    delta = 0.5 * (lam_max - lam_min)

    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - apply_A(x)
    report = ChebyshevReport(iterations=0, kappa=float(kappa), eps=float(eps))
    report.matvec_count += 1
    b_norm = float(np.linalg.norm(b))
    report.residual_norms.append(float(np.linalg.norm(r)) / max(b_norm, 1e-300))

    if delta <= 0:
        # kappa == 1: a single preconditioner solve is exact.
        x = x + solve_B(r)
        report.preconditioner_solves += 1
        report.iterations = 1
        r = b - apply_A(x)
        report.matvec_count += 1
        report.residual_norms.append(float(np.linalg.norm(r)) / max(b_norm, 1e-300))
        return x, report

    z = solve_B(r)
    report.preconditioner_solves += 1
    d = z / theta
    sigma1 = theta / delta
    rho = 1.0 / sigma1

    for k in range(iterations):
        x = x + d
        r = r - apply_A(d)
        report.matvec_count += 1
        report.iterations = k + 1
        report.residual_norms.append(float(np.linalg.norm(r)) / max(b_norm, 1e-300))
        if k == iterations - 1:
            break
        z = solve_B(r)
        report.preconditioner_solves += 1
        rho_next = 1.0 / (2.0 * sigma1 - rho)
        d = rho_next * rho * d + (2.0 * rho_next / delta) * z
        rho = rho_next
    return x, report
