"""Gremban reduction from SDD systems to Laplacian systems (used in Lemma 5.1).

A symmetric diagonally dominant (SDD) matrix ``M`` with non-negative diagonal
can be written ``M = D - N + P`` where ``N`` (resp. ``P``) collects the
magnitudes of the negative (resp. positive) off-diagonal entries and ``D`` is
the diagonal.  The Gremban expansion is the ``2n x 2n`` Laplacian

    L = [[ D',        -P - S/2 ],     D' = diag(N 1) + diag(P 1) + S/2,
         [ -P - S/2,   D'      ]]     S  = D - diag((N + P) 1)  (the slack),
        + [[-N, 0], [0, -N]] off-diagonal within each copy,

and a solution of ``L [x1; x2] = [b; -b]`` yields ``x = (x1 - x2)/2`` with
``M x = b``.  The construction keeps each row locally computable: vertex ``i``
of the original system owns rows ``i`` and ``i + n`` of ``L``, which is exactly
how Lemma 5.1 simulates the virtual ``2(|V| - 1)``-vertex graph on the real
network (two simulated rounds per real round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.laplacian import graph_from_laplacian, is_symmetric_diagonally_dominant
from repro.linalg.sparse_backend import GroundedLaplacianSolver
from repro.solvers.laplacian import BCCLaplacianSolver


def is_sdd_matrix(M: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether ``M`` is symmetric diagonally dominant with non-negative diagonal."""
    M = np.asarray(M, dtype=float)
    return is_symmetric_diagonally_dominant(M, tol) and bool(np.all(np.diag(M) >= -tol))


def gremban_expand(M: np.ndarray) -> np.ndarray:
    """The ``2n x 2n`` Laplacian of the Gremban expansion of the SDD matrix ``M``."""
    M = np.asarray(M, dtype=float)
    if not is_sdd_matrix(M):
        raise ValueError("Gremban expansion requires a symmetric diagonally dominant matrix")
    n = M.shape[0]
    D = np.diag(np.diag(M))
    off = M - D
    N = np.where(off < 0, -off, 0.0)  # magnitudes of negative off-diagonal entries
    P = np.where(off > 0, off, 0.0)  # positive off-diagonal entries
    row_sums = (N + P) @ np.ones(n)
    S = np.diag(np.diag(D) - row_sums)  # diagonal slack (non-negative by SDD)
    D_prime = np.diag(N @ np.ones(n) + P @ np.ones(n)) + 0.5 * S

    top = np.hstack([D_prime - N, -P - 0.5 * S])
    bottom = np.hstack([-P - 0.5 * S, D_prime - N])
    return np.vstack([top, bottom])


@dataclass
class GrembanReduction:
    """The expansion Laplacian together with the lift/restrict maps."""

    laplacian: np.ndarray
    n: int

    @classmethod
    def from_sdd(cls, M: np.ndarray) -> "GrembanReduction":
        M = np.asarray(M, dtype=float)
        return cls(laplacian=gremban_expand(M), n=M.shape[0])

    def lift_rhs(self, b: np.ndarray) -> np.ndarray:
        """``b -> [b; -b]``."""
        b = np.asarray(b, dtype=float)
        return np.concatenate([b, -b])

    def restrict_solution(self, xy: np.ndarray) -> np.ndarray:
        """``[x1; x2] -> (x1 - x2) / 2``."""
        xy = np.asarray(xy, dtype=float)
        return 0.5 * (xy[: self.n] - xy[self.n :])

    def expansion_graph(self) -> WeightedGraph:
        """The weighted graph whose Laplacian is the expansion (may be disconnected
        only if the original matrix was reducible)."""
        return graph_from_laplacian(self.laplacian)


class SDDSolver:
    """Solve SDD systems by reducing to a Laplacian system (Lemma 5.1).

    The Laplacian system is solved either with the BCC Laplacian solver of
    Theorem 1.3 (``method='bcc'``) or with the expansion Laplacian directly
    (``method='direct'``, the numerical reference).  Rounds reported for the
    BCC method are doubled because each virtual vertex pair is simulated by one
    real vertex (Lemma 5.1).

    The direct path grounds the expansion Laplacian per component and
    factorises it once with ``splu`` (right-hand sides must be consistent for
    singular ``M``, which the theorems promise anyway).
    """

    def __init__(
        self,
        M: np.ndarray,
        method: str = "direct",
        seed: Optional[int] = None,
        t_override: Optional[int] = None,
    ):
        if method not in ("direct", "bcc"):
            raise ValueError(f"unknown method {method!r}; use 'direct' or 'bcc'")
        self.M = np.asarray(M, dtype=float)
        if not is_sdd_matrix(self.M):
            raise ValueError("SDDSolver requires a symmetric diagonally dominant matrix")
        self.method = method
        self.reduction = GrembanReduction.from_sdd(self.M)
        self.rounds = 0.0
        self._bcc_solver: Optional[BCCLaplacianSolver] = None
        self._direct_solver: Optional[GroundedLaplacianSolver] = None
        if method == "bcc":
            graph = self.reduction.expansion_graph()
            if graph.is_connected():
                self._bcc_solver = BCCLaplacianSolver(graph, seed=seed, t_override=t_override)
                self.rounds += 2.0 * self._bcc_solver.preprocessing.rounds
            else:
                # Disconnected expansion (e.g. a pure Laplacian input): fall back
                # to the direct path, the reduction is not needed there.
                self.method = "direct"

    def solve(self, b: np.ndarray, eps: float = 1e-9) -> np.ndarray:
        """Solve ``M x = b`` (``b`` must be consistent for singular ``M``)."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.reduction.n,):
            raise ValueError(
                f"right-hand side must have shape ({self.reduction.n},), got {b.shape}"
            )
        if self.method == "bcc" and self._bcc_solver is not None:
            lifted = self.reduction.lift_rhs(b)
            report = self._bcc_solver.solve(lifted, eps=eps)
            self.rounds += 2.0 * report.rounds
            return self.reduction.restrict_solution(report.solution)
        # direct reference path (factorisation cached across solves)
        if self._direct_solver is None:
            self._direct_solver = GroundedLaplacianSolver(self.reduction.expansion_graph())
        xy = self._direct_solver.solve(self.reduction.lift_rhs(b))
        return self.reduction.restrict_solution(xy)
