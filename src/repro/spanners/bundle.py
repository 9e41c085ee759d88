"""t-bundle spanners (Algorithm 3, ``BundleSpanner``).

A ``t``-bundle spanner of stretch ``alpha`` is a union ``T = T_1 | ... | T_t``
where each ``T_i`` is an ``alpha``-spanner of ``G`` minus the previous spanners
(Definition 2.2).  ``BundleSpanner`` computes one by calling the probabilistic
spanner ``t`` times, each time removing the edges that were *decided* (``F+``
or ``F-``) by the previous call, exactly as in Algorithm 3:

    E_i  <-  E_{i-1} \\ (F+_i | F-_i)
    B    <-  union of the F+_i        (the bundle)
    C    <-  union of the F-_i        (the edges sampled out)

Data model
----------
The residual edge sets ``E_i`` are boolean masks over the base edge columns of
an :class:`repro.graphs.graph.EdgeView`: each layer runs on a fresh subview,
and removing what it decided is two index assignments with the arrays the
spanner returns (``f_plus_idx`` / ``f_minus_idx``).  The result carries ``B``
and ``C`` the same way, as base index arrays in layer order -- the layers are
edge-disjoint, so no index repeats -- and derives the key sets and the
orientation only when somebody asks.  No set of edge keys is built on the way
from the spanner to the sparsification loop.

The layers share one generator and run one after the other, so the random
stream is the concatenation of the per-spanner streams; what each spanner
draws, and in which order, is the contract documented in
:mod:`repro.spanners.probabilistic`.  Their round charges are concatenated the
same way: the result's ``ledger`` merges every layer's ledger in layer order.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.graphs.graph import EdgeView, WeightedGraph
from repro.spanners.probabilistic import (
    ProbabilisticSpanner,
    SpannerResult,
    resolve_edge_probabilities,
)

EdgeKey = Tuple[int, int]


class BundleResult:
    """Output of ``BundleSpanner``: the bundle ``B`` and the rejected set ``C``.

    ``bundle_idx`` / ``rejected_idx`` hold the edges as base indices of the
    view the bundle ran on (for bulk mask updates in the sparsification loop);
    ``bundle`` / ``rejected`` are the same edges as canonical keys, built on
    first access.  ``ledger`` holds every layer's charges, layer after layer.
    """

    def __init__(self, view: EdgeView, per_spanner: List[SpannerResult]):
        self.per_spanner = per_spanner
        self.ledger = RoundLedger()
        for spanner in per_spanner:
            self.ledger.merge(spanner.ledger)
        none = np.zeros(0, dtype=np.int64)  # concatenate refuses an empty list
        self.bundle_idx = np.concatenate([none] + [s.f_plus_idx for s in per_spanner])
        self.rejected_idx = np.concatenate([none] + [s.f_minus_idx for s in per_spanner])
        self._view = view

    @cached_property
    def bundle(self) -> Set[EdgeKey]:
        return set(self._view.edge_keys(self.bundle_idx))

    @cached_property
    def rejected(self) -> Set[EdgeKey]:
        return set(self._view.edge_keys(self.rejected_idx))

    def orientation(self) -> Dict[EdgeKey, Tuple[int, int]]:
        """Union of the per-spanner orientations (the layers are edge-disjoint)."""
        combined: Dict[EdgeKey, Tuple[int, int]] = {}
        for result in self.per_spanner:
            combined.update(result.orientation)
        return combined


def bundle_spanner(
    graph: Union[WeightedGraph, EdgeView],
    probabilities: Optional[Union[Dict[EdgeKey, float], np.ndarray]] = None,
    k: int = 2,
    t: int = 1,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> BundleResult:
    """Compute a ``t``-bundle of ``(2k-1)``-spanners (Algorithm 3).

    Parameters
    ----------
    graph:
        Weighted input graph, or an :class:`EdgeView` of one (the
        sparsification loop passes views to avoid materialising residual
        graphs).
    probabilities:
        Maintained existence probability per edge: a dict keyed by canonical
        edge, or an array aligned with the view's base edge columns (defaults
        to 1 everywhere).
    k:
        Stretch parameter of the individual spanners.
    t:
        Number of spanners in the bundle.
    """
    if t < 1:
        raise ValueError(f"bundle size t must be >= 1, got {t}")
    rng = rng if rng is not None else np.random.default_rng(seed)
    view = graph if isinstance(graph, EdgeView) else EdgeView.from_graph(graph)
    # Resolve dict/None probabilities once; every layer shares the array.
    prob = resolve_edge_probabilities(view, probabilities)

    per_spanner: List[SpannerResult] = []
    alive = view.alive
    for _ in range(t):
        if not alive.any():
            break
        spanner = ProbabilisticSpanner(
            view.subview(alive),
            probabilities=prob,
            k=k,
            rng=rng,
        ).run()
        per_spanner.append(spanner)
        alive = alive.copy()
        alive[spanner.f_plus_idx] = False
        alive[spanner.f_minus_idx] = False
    return BundleResult(view, per_spanner)
