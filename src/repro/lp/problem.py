"""LP problem container in the form of Theorem 1.4.

    min c^T x   subject to   A^T x = b,   l <= x <= u,

with ``A in R^{m x n}`` of full column rank ``n``.  In the flow formulation
``m`` is the number of edges plus one (the flow value) and ``n`` the number
of constrained vertices (at most the number of vertices minus one), which is
why the paper writes the constraint as ``A^T x = b`` rather than ``A x = b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp


@dataclass
class LPProblem:
    """``min c^T x  s.t.  A^T x = b, lower <= x <= upper``."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    #: optional solver for (A^T D A) y = rhs given the diagonal D (m-vector);
    #: defaults to :func:`~repro.lp.gram.default_gram_solver`.  The serving
    #: path plugs a :class:`~repro.lp.gram.GramSolverBridge` on its cached
    #: structure here.
    gram_solver: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "lp"
    #: ``A^T``, transposed once (CSR when ``A`` is sparse): every Newton step
    #: multiplies by it
    AT: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sp.issparse(self.A):
            self.A = self.A.tocsr().astype(float)
            self.AT = self.A.T.tocsr()
        else:
            self.A = np.asarray(self.A, dtype=float)
            self.AT = self.A.T
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        m, n = self.A.shape
        if self.b.shape != (n,):
            raise ValueError(f"b must have shape ({n},), got {self.b.shape}")
        for name, vec in (("c", self.c), ("lower", self.lower), ("upper", self.upper)):
            if vec.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},), got {vec.shape}")

    @property
    def m(self) -> int:
        """Number of variables (rows of A)."""
        return self.A.shape[0]

    @property
    def n(self) -> int:
        """Number of equality constraints (columns of A)."""
        return self.A.shape[1]

    def objective(self, x: np.ndarray) -> float:
        """``c^T x``."""
        return float(self.c @ np.asarray(x, dtype=float))

    def solve_gram(self, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(A^T D A) y = rhs`` with the diagonal ``D = diag(d)``.

        Without a plugged ``gram_solver`` the default is chosen once per
        problem from the structure of ``A``: an incidence-structured matrix
        (Lemma 5.1), dense or sparse, gets a cache-less
        :class:`~repro.lp.gram.GramSolverBridge` (one sparse grounded-Laplacian
        factorisation per distinct ``d``); a generic one gets a dense solve
        with a tiny in-place ridge (the LP formulations used here always have
        full column rank).
        """
        if self.gram_solver is not None:
            return self.gram_solver(d, rhs)
        fallback = self.__dict__.get("_gram_fallback")
        if fallback is None:
            from repro.lp.gram import default_gram_solver

            fallback = default_gram_solver(self.A)
            self.__dict__["_gram_fallback"] = fallback
        return fallback(d, rhs)


@dataclass
class LPSolution:
    """Solution record returned by :class:`~repro.lp.barrier_ipm.BarrierIPM`."""

    x: np.ndarray
    objective: float
    iterations: int
    rounds: float = 0.0
    converged: bool = True
    duality_gap: Optional[float] = None
    #: dual variables of ``A^T x = b``; a record without them cannot be
    #: certified optimal
    y: Optional[np.ndarray] = None
    #: index of the iterate the caller's ``accept`` hook accepted (the start
    #: is 0); None when no hook was given or none was accepted
    accepted_iteration: Optional[int] = None
