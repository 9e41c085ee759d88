"""Numerical linear algebra: Laplacian kernels and resistance oracles (Section 4.1).

* :mod:`repro.linalg.jl` -- the Kane-Nelson Johnson-Lindenstrauss transform
  (Theorem 4.4) driven by a polylogarithmic shared random seed, in sparse
  format, plus the sketch dimension its squared norms need.
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
    kane_nelson_random_bits,
    kane_nelson_sketch,
    resistance_sketch_dimension,
)
from repro.linalg.resistance import SketchedResistanceOracle
from repro.linalg.sparse_backend import (
    GroundedLaplacianSolver,
    effective_resistances_sparse,
    incidence_csr,
    laplacian_csr,
)

__all__ = [
    "kane_nelson_random_bits",
    "kane_nelson_sketch",
    "resistance_sketch_dimension",
    "SketchedResistanceOracle",
    "GroundedLaplacianSolver",
    "effective_resistances_sparse",
    "incidence_csr",
    "laplacian_csr",
]
