"""Spectral sparsification in broadcast models (Section 3.2).

The sparsifier follows the Koutis-Xu framework with the fixed bundle size of
Kyng et al.: repeatedly compute a ``t``-bundle spanner, keep every non-bundle
edge with probability 1/4 (quadrupling its weight), and after ``ceil(log m)``
iterations return the last bundle plus the surviving sampled edges.

:func:`~repro.sparsify.spectral.spectral_sparsify` is Algorithm 5, the
broadcast-feasible variant with ad-hoc sampling through the probabilistic
spanner of Section 3.1.  This is the algorithm of Theorem 1.2.  Algorithm 4,
the unicast-only variant with up-front sampling, is kept as a test reference
for the coupling of Lemma 3.3 (``tests/sparsify/reference_sparsify.py``).
"""

from repro.sparsify.spectral import (
    SparsifierResult,
    bundle_size,
    spectral_sparsify,
)

__all__ = [
    "SparsifierResult",
    "bundle_size",
    "spectral_sparsify",
]
