"""Spanner algorithms (Section 3.1).

* :mod:`repro.spanners.probabilistic` -- the paper's spanner on graphs with
  probabilistic edges (Section 3.1), with ``Connect`` (Algorithm 2) resolved
  for all vertices of a step at once, implicit communication of the sampling
  outcomes and Broadcast-CONGEST round accounting.  With ``p === 1`` it is
  the deterministic ``(2k-1)``-spanner of Appendix A.
* :mod:`repro.spanners.bundle` -- ``BundleSpanner`` (Algorithm 3), t-bundles of
  ``(2k-1)``-spanners.
"""

from repro.spanners.probabilistic import ProbabilisticSpanner, SpannerResult, probabilistic_spanner
from repro.spanners.bundle import BundleResult, bundle_spanner

__all__ = [
    "probabilistic_spanner",
    "ProbabilisticSpanner",
    "SpannerResult",
    "bundle_spanner",
    "BundleResult",
]
