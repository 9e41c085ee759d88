"""Numerical linear-algebra toolkit of the LP solver (Section 4.1 and 4.3).

* :mod:`repro.linalg.jl` -- Johnson-Lindenstrauss transforms: the classical
  Achlioptas sign-matrix construction (needs m independent coins, infeasible in
  a broadcast model) and the Kane-Nelson construction (Theorem 4.4) driven by a
  polylogarithmic shared random seed.
* :mod:`repro.linalg.leverage` -- leverage scores: exact computation and the
  JL-sketched approximation ``ComputeLeverageScores`` (Algorithm 6, Lemma 4.5).
* :mod:`repro.linalg.lewis` -- regularised ell_p Lewis weights: the exact
  fixed-point reference and ``ComputeApxWeights`` / ``ComputeInitialWeights``
  (Algorithms 7 and 8, Lemma 4.6).
* :mod:`repro.linalg.mixed_ball` -- projection onto the mixed norm ball
  ``||x||_2 + ||l^{-1} x||_inf <= 1`` (Section 4.3, Lemma 4.10): the BCC
  binary-search algorithm and a dense reference maximiser.
* :mod:`repro.linalg.sparse_backend` -- the scipy.sparse CSR Laplacian
  kernels every layer computes with, at every graph size: vectorised matrix
  construction from cached edge arrays, grounded ``splu`` factorisations
  (repairable by rank-1 updates), batched effective-resistance solves and the
  ``eigsh`` spectral certifier.
* :mod:`repro.linalg.resistance` -- the JL-sketched effective-resistance
  oracle (Spielman-Srivastava over Theorem 4.4): ``O(n log m / eta^2)``
  memory, O(k) pair queries, built by blocked grounded solves against the
  sketched incidence; serves large-n resistance queries past the dense
  oracle's ``n^2`` gate.
"""

from repro.linalg.jl import (
    achlioptas_matrix,
    kane_nelson_matrix,
    kane_nelson_random_bits,
    kane_nelson_sketch,
    resistance_sketch_dimension,
    sketch_preserves_norm,
)
from repro.linalg.leverage import (
    approximate_edge_leverage_scores,
    approximate_leverage_scores,
    exact_leverage_scores,
    LeverageScoreReport,
)
from repro.linalg.resistance import SketchedResistanceOracle
from repro.linalg.lewis import (
    compute_apx_weights,
    compute_initial_weights,
    exact_lewis_weights,
    regularized_lewis_weights,
)
from repro.linalg.mixed_ball import (
    MixedBallResult,
    project_mixed_ball,
    project_mixed_ball_reference,
)
from repro.linalg.sparse_backend import (
    GroundedLaplacianSolver,
    effective_resistances_sparse,
    incidence_csr,
    laplacian_csr,
    laplacian_solver,
)

__all__ = [
    "achlioptas_matrix",
    "kane_nelson_matrix",
    "kane_nelson_random_bits",
    "kane_nelson_sketch",
    "resistance_sketch_dimension",
    "sketch_preserves_norm",
    "exact_leverage_scores",
    "approximate_leverage_scores",
    "approximate_edge_leverage_scores",
    "LeverageScoreReport",
    "SketchedResistanceOracle",
    "exact_lewis_weights",
    "regularized_lewis_weights",
    "compute_apx_weights",
    "compute_initial_weights",
    "MixedBallResult",
    "project_mixed_ball",
    "project_mixed_ball_reference",
    "GroundedLaplacianSolver",
    "effective_resistances_sparse",
    "incidence_csr",
    "laplacian_csr",
    "laplacian_solver",
]
