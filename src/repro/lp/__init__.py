"""Linear program solvers in the Broadcast Congested Clique (Section 4).

The LPs have the form of Theorem 1.4

    min c^T x   subject to   A^T x = b,  l_i <= x_i <= u_i,

with the constraint matrix distributed so that matrix-vector products and
solves in ``A^T D A`` are cheap (graph-structured).

* :mod:`repro.lp.problem` -- the :class:`LPProblem` and :class:`LPSolution`
  containers.
* :mod:`repro.lp.barrier_ipm` -- Mehrotra's primal-dual predictor-corrector,
  whose Newton systems are ``A^T D A`` solves and which returns the duals;
  the one LP engine, standing in for Lee-Sidford's weighted path following
  (see ``docs/substitutions.md``, 3).
* :mod:`repro.lp.gram` -- the SDD Gram-solve machinery of Lemma 5.1:
  incidence-structure detection, grounded-Laplacian factorisations, and the
  :class:`GramSolverBridge` that solves every incidence-structured Newton
  system, served or direct.
"""

from repro.lp.problem import LPProblem, LPSolution
from repro.lp.barrier_ipm import BarrierIPM, IPMReport
from repro.lp.gram import (
    GramBridgeStats,
    GramFactorisation,
    GramSolverBridge,
    IncidenceStructure,
    detect_incidence_structure,
    flow_gram_structure,
)

__all__ = [
    "LPProblem",
    "LPSolution",
    "BarrierIPM",
    "IPMReport",
    "GramBridgeStats",
    "GramFactorisation",
    "GramSolverBridge",
    "IncidenceStructure",
    "detect_incidence_structure",
    "flow_gram_structure",
]
