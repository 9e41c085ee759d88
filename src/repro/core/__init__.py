"""High-level public API: the paper's pipeline behind one-call facades.

    spanner               -> Section 3.1   (Broadcast CONGEST)
    spectral_sparsifier   -> Theorem 1.2   (Broadcast CONGEST)
    solve_laplacian       -> Theorem 1.3   (Broadcast Congested Clique)
    solve_many            -> Theorem 1.3, one preprocessing for many right-hand sides
    effective_resistances -> resistances through the same factorisation
    solve_lp              -> Theorem 1.4   (Broadcast Congested Clique)
    min_cost_max_flow     -> Theorem 1.1   (Broadcast Congested Clique)

Each function returns the result object of the underlying subsystem, which
carries the round accounting used by the experiments in ``docs/benchmarks.md``.
"""

from repro.core.api import (
    effective_resistances,
    min_cost_max_flow,
    solve_laplacian,
    solve_lp,
    solve_many,
    spanner,
    spectral_sparsifier,
)

__all__ = [
    "spanner",
    "spectral_sparsifier",
    "solve_laplacian",
    "solve_many",
    "effective_resistances",
    "solve_lp",
    "min_cost_max_flow",
]
