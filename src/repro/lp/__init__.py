"""Linear program solvers in the Broadcast Congested Clique (Section 4).

The LPs have the Lee-Sidford form

    min c^T x   subject to   A^T x = b,  l_i <= x_i <= u_i,

with the constraint matrix distributed so that matrix-vector products and
solves in ``A^T D A`` are cheap (graph-structured).

* :mod:`repro.lp.barriers` -- the 1-self-concordant barrier functions of
  Definition 4.1 (log barriers for one-sided domains, the trigonometric
  barrier for two-sided ones).
* :mod:`repro.lp.problem` -- the :class:`LPProblem` container and feasibility
  helpers.
* :mod:`repro.lp.barrier_ipm` -- Mehrotra's primal-dual predictor-corrector,
  whose Newton systems are ``A^T D A`` solves and which returns the duals;
  the default engine for the flow pipeline (see ``docs/substitutions.md``, 3).
* :mod:`repro.lp.lee_sidford` -- the faithful structure of Lee-Sidford
  weighted path finding: ``LPSolve``, ``PathFollowing`` and
  ``CenteringInexact`` (Algorithms 9-11) built on regularised Lewis weights and
  the mixed-norm-ball projection.
* :mod:`repro.lp.gram` -- the SDD Gram-solve machinery of Lemma 5.1:
  incidence-structure detection, grounded-Laplacian factorisations, and the
  :class:`GramSolverBridge` that solves every incidence-structured Newton
  system -- through the serving tier's artifact cache when one is wired.
"""

from repro.lp.barriers import BarrierFunction, make_barrier
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
from repro.lp.lee_sidford import LeeSidfordSolver, LeeSidfordReport

__all__ = [
    "BarrierFunction",
    "make_barrier",
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
    "LeeSidfordSolver",
    "LeeSidfordReport",
]
