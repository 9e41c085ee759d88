"""Laplacian solvers (Sections 2.3 and 3.3).

* :mod:`repro.solvers.chebyshev` -- preconditioned Chebyshev iteration
  (Theorem 2.3) and its specialisation to sparsifier preconditioners
  (Corollary 2.4).
* :mod:`repro.solvers.laplacian` -- the Broadcast Congested Clique Laplacian
  solver of Theorem 1.3: preprocessing computes a (1 +/- 1/2)-spectral
  sparsifier which every vertex learns, each solve then runs Chebyshev
  iterations whose only communication is a matrix-vector product with the true
  Laplacian per iteration.

The ``A^T D A`` systems of the flow LP (Lemma 5.1) are solved by
:mod:`repro.lp.gram`, not here.
"""

from repro.solvers.chebyshev import ChebyshevReport, preconditioned_chebyshev
from repro.solvers.laplacian import (
    BCCLaplacianSolver,
    LaplacianSolveReport,
    SolverPreprocessing,
)

__all__ = [
    "preconditioned_chebyshev",
    "ChebyshevReport",
    "BCCLaplacianSolver",
    "LaplacianSolveReport",
    "SolverPreprocessing",
]
