"""Spectral sparsification via repeated spanners (Algorithms 1, 4 and 5).

Both variants follow the same outline (Algorithm 1): for ``ceil(log m)``
iterations compute a ``t``-bundle spanner of the current graph, keep each
non-bundle edge with probability 1/4 while quadrupling its weight, and return
the final bundle together with the surviving sampled edges.

* :func:`spectral_sparsify_apriori` (Algorithm 4) performs the 1/4-sampling
  up-front in every iteration.  This requires the sampling vertex to tell its
  neighbour the outcome, which is only possible in the unicast CONGEST model.
* :func:`spectral_sparsify` (Algorithm 5) defers the sampling: it maintains the
  existence probability ``p(e)`` of every edge and lets the probabilistic
  spanner of Section 3.1 evaluate the coin flips lazily, communicating the
  outcomes implicitly.  This is the Broadcast-CONGEST algorithm of Theorem 1.2.

Lemma 3.3 states that the two algorithms produce identically distributed
outputs; ``tests/sparsify`` checks this empirically on small graphs.

Implementation note: the outer loops are array-native.  The residual edge set,
the maintained probabilities and the growing weights all live in numpy arrays
aligned with the input graph's canonical edge columns
(:class:`repro.graphs.graph.EdgeView`); one iteration's ``p/4`` / ``w*4``
reweighting is a pair of masked array operations, and the final 1/4-sampling
draws its coins in one batched ``rng.random(count)`` call -- which consumes
the *same* underlying random stream as the historical per-edge scalar calls,
so seeded outputs are bit-identical to the per-edge implementation
(``tests/sparsify/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import EdgeView, WeightedGraph
from repro.spanners.bundle import bundle_spanner

EdgeKey = Tuple[int, int]


def bundle_size(n: int, eps: float, scale: float = 1.0) -> int:
    """The paper's bundle size ``t = 400 log^2(n) / eps^2`` (line 1 of Algorithm 5).

    ``scale`` scales the leading constant only; it exists because at
    laptop-scale ``n`` the literal constant makes the bundle swallow the whole
    graph (see ``docs/substitutions.md``, 1).  ``scale=1.0`` is the paper's value.
    """
    if eps <= 0:
        raise ValueError(f"error parameter eps must be positive, got {eps}")
    n = max(2, int(n))
    t = scale * 400.0 * (math.log2(n) ** 2) / (eps * eps)
    return max(1, math.ceil(t))


def stretch_parameter(n: int) -> int:
    """The paper's stretch parameter ``k = ceil(log n)``."""
    return max(1, math.ceil(math.log2(max(2, n))))


@dataclass
class IterationRecord:
    """Bookkeeping of one outer iteration of the sparsification loop."""

    iteration: int
    bundle_edges: int
    rejected_edges: int
    remaining_edges: int
    rounds: int


@dataclass
class SparsifierResult:
    """Output of the sparsification algorithms.

    ``sparsifier`` is the reweighted subgraph ``H``; ``rounds`` is the
    Broadcast-CONGEST round count (only meaningful for the ad-hoc variant);
    ``orientation`` maps each sparsifier edge to a ``(tail, head)`` pair such
    that out-degrees are small (Theorem 1.2).
    """

    sparsifier: WeightedGraph
    rounds: int = 0
    iterations: List[IterationRecord] = field(default_factory=list)
    orientation: Dict[EdgeKey, Tuple[int, int]] = field(default_factory=dict)
    final_probabilities: Dict[EdgeKey, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of edges of the sparsifier."""
        return self.sparsifier.m

    def certify(self, graph: WeightedGraph, eps: float, slack: float = 1e-7) -> bool:
        """Empirically verify Definition 2.1 against ``graph``.

        Degenerate sparsifiers (empty or disconnected relative to a connected
        input) are reported as failures, never certified vacuously (see
        :func:`repro.graphs.laplacian.spectral_approximation_factor`).
        """
        from repro.graphs.laplacian import is_spectral_sparsifier

        return is_spectral_sparsifier(graph, self.sparsifier, eps, slack=slack)

    def max_out_degree(self) -> int:
        if not self.orientation:
            return 0
        tails = Counter(tail for tail, _head in self.orientation.values())
        return max(tails.values())


def _iteration_count(m: int) -> int:
    return max(1, math.ceil(math.log2(max(2, m))))


def spectral_sparsify(
    graph: WeightedGraph,
    eps: float,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    t_override: Optional[int] = None,
    bundle_scale: float = 1.0,
    k_override: Optional[int] = None,
) -> SparsifierResult:
    """Algorithm 5: Broadcast-CONGEST spectral sparsification with ad-hoc sampling.

    Returns a ``(1 +/- eps)``-spectral sparsifier of ``graph`` with high
    probability (Theorem 1.2) together with the round count and an orientation
    of its edges with small out-degree.

    Parameters
    ----------
    graph:
        Weighted input graph (positive weights).
    eps:
        Target quality of the sparsifier.
    t_override / bundle_scale / k_override:
        Experiment knobs; the defaults follow the paper exactly.
    """
    if graph.m == 0:
        return SparsifierResult(sparsifier=graph.copy())
    rng = rng if rng is not None else np.random.default_rng(seed)
    n = graph.n
    k = k_override if k_override is not None else stretch_parameter(n)
    t = t_override if t_override is not None else bundle_size(n, eps, bundle_scale)

    view = EdgeView.from_graph(graph)  # private mutable weight column
    base_m = view.base_m
    edge_u, edge_v, weights = view.u, view.v, view.w
    alive = np.ones(base_m, dtype=bool)
    probability = np.ones(base_m)
    result = SparsifierResult(sparsifier=WeightedGraph(n))

    # runs at least once: `bundle` and `bundle_mask` of the last iteration are
    # what the final step below keeps
    for iteration in range(1, _iteration_count(graph.m) + 1):
        # the bundle keeps the mask it was handed (EdgeView contract), so give
        # it a copy: this loop mutates `alive` in place right below
        bundle = bundle_spanner(
            view.subview(alive.copy()),
            probabilities=probability,
            k=k,
            t=t,
            rng=rng,
            record_broadcasts=False,
        )
        bundle_idx, rejected_idx = bundle.bundle_idx, bundle.rejected_idx
        result.rounds += bundle.rounds

        # E_i <- E_{i-1} \ C_i ; p <- 1 on the bundle, p/4 and w*4 elsewhere.
        bundle_mask = np.zeros(base_m, dtype=bool)
        bundle_mask[bundle_idx] = True
        alive[rejected_idx] = False
        survivors = alive & ~bundle_mask
        probability[survivors] /= 4.0
        weights[survivors] *= 4.0
        probability[bundle_idx] = 1.0
        result.iterations.append(
            IterationRecord(
                iteration=iteration,
                bundle_edges=int(bundle_idx.size),
                rejected_edges=int(rejected_idx.size),
                remaining_edges=int(np.count_nonzero(alive)),
                rounds=bundle.rounds,
            )
        )

    # Final step: keep the last bundle, sample the remaining edges with their
    # maintained probability (lines 11-15 of Algorithm 5).  The coins are
    # drawn in one batch over the non-bundle edges in canonical order, which
    # consumes the rng stream exactly like per-edge draws would.
    alive_idx = np.flatnonzero(alive)
    in_bundle = bundle_mask[alive_idx]
    kept_bundle = alive_idx[in_bundle]
    candidates = alive_idx[~in_bundle]
    coins = rng.random(candidates.size)
    kept_sampled = candidates[coins < probability[candidates]]

    keep_idx = np.sort(np.concatenate([kept_bundle, kept_sampled]))
    sparsifier = WeightedGraph(n)
    sparsifier.add_edges(edge_u[keep_idx], edge_v[keep_idx], weights[keep_idx])

    # only the last bundle's orientation is ever read: build it here, once
    last_orientation = bundle.orientation()
    orientation: Dict[EdgeKey, Tuple[int, int]] = {}
    for a, b in zip(edge_u[kept_bundle].tolist(), edge_v[kept_bundle].tolist()):
        orientation[(a, b)] = last_orientation.get((a, b), (a, b))
    # the endpoint with the smaller identifier performs the sampling
    for a, b in zip(edge_u[kept_sampled].tolist(), edge_v[kept_sampled].tolist()):
        orientation[(a, b)] = (a, b)
    if kept_sampled.size:
        result.rounds += int(np.bincount(edge_u[kept_sampled]).max())
    else:
        result.rounds += 1

    result.sparsifier = sparsifier
    result.orientation = orientation
    result.final_probabilities = dict(
        zip(
            zip(edge_u[alive_idx].tolist(), edge_v[alive_idx].tolist()),
            probability[alive_idx].tolist(),
        )
    )
    return result


def spectral_sparsify_apriori(
    graph: WeightedGraph,
    eps: float,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    t_override: Optional[int] = None,
    bundle_scale: float = 1.0,
    k_override: Optional[int] = None,
) -> SparsifierResult:
    """Algorithm 4: the a-priori sampling variant (CONGEST-only reference).

    Identical output distribution to :func:`spectral_sparsify` (Lemma 3.3) but
    samples the non-bundle edges eagerly in every iteration, which requires
    unicast communication of the sampling outcome.
    """
    if graph.m == 0:
        return SparsifierResult(sparsifier=graph.copy())
    rng = rng if rng is not None else np.random.default_rng(seed)
    n = graph.n
    k = k_override if k_override is not None else stretch_parameter(n)
    t = t_override if t_override is not None else bundle_size(n, eps, bundle_scale)

    view = EdgeView.from_graph(graph)
    base_m = view.base_m
    edge_u, edge_v, weights = view.u, view.v, view.w
    alive = np.ones(base_m, dtype=bool)
    result = SparsifierResult(sparsifier=WeightedGraph(n))
    orientation: Dict[EdgeKey, Tuple[int, int]] = {}

    for iteration in range(1, _iteration_count(graph.m) + 1):
        bundle = bundle_spanner(
            view.subview(alive),
            probabilities=None,
            k=k,
            t=t,
            rng=rng,
            record_broadcasts=False,
        )
        result.rounds += bundle.rounds
        bundle_orientation = bundle.orientation()
        for key in sorted(bundle.bundle):
            orientation[key] = bundle_orientation.get(key, key)

        bundle_idx = bundle.bundle_idx
        bundle_mask = np.zeros(base_m, dtype=bool)
        bundle_mask[bundle_idx] = True
        alive_idx = np.flatnonzero(alive)
        candidates = alive_idx[~bundle_mask[alive_idx]]
        coins = rng.random(candidates.size)
        kept_sampled = candidates[coins < 0.25]
        weights[kept_sampled] *= 4.0
        for a, b in zip(edge_u[kept_sampled].tolist(), edge_v[kept_sampled].tolist()):
            orientation[(a, b)] = (a, b)

        alive = np.zeros(base_m, dtype=bool)
        alive[bundle_idx] = True
        alive[kept_sampled] = True
        result.iterations.append(
            IterationRecord(
                iteration=iteration,
                bundle_edges=int(bundle_idx.size),
                rejected_edges=0,
                remaining_edges=int(np.count_nonzero(alive)),
                rounds=bundle.rounds,
            )
        )

    result.sparsifier = view.subview(alive).to_graph()
    alive_idx = np.flatnonzero(alive)
    result.orientation = {
        (a, b): orientation.get((a, b), (a, b))
        for a, b in zip(edge_u[alive_idx].tolist(), edge_v[alive_idx].tolist())
    }
    return result
