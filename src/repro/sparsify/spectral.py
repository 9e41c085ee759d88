"""Spectral sparsification via repeated spanners (Algorithms 1 and 5).

The outline is Algorithm 1: for ``ceil(log m)`` iterations compute a
``t``-bundle spanner of the current graph, keep each non-bundle edge with
probability 1/4 while quadrupling its weight, and return the final bundle
together with the surviving sampled edges.

:func:`spectral_sparsify` is Algorithm 5.  It defers the sampling: it
maintains the existence probability ``p(e)`` of every edge and lets the
probabilistic spanner of Section 3.1 evaluate the coin flips lazily,
communicating the outcomes implicitly.  This is the Broadcast-CONGEST
algorithm of Theorem 1.2.  Algorithm 4, which samples up front and so needs
unicast CONGEST to tell a neighbour the outcome, is not implemented here; the
test reference ``tests/sparsify/reference_sparsify.py`` keeps it, and
``tests/sparsify/test_spectral.py`` checks Lemma 3.3's claim that the two
produce identically distributed outputs.

Implementation note: the outer loops are array-native.  The residual edge set,
the maintained probabilities and the growing weights all live in numpy arrays
aligned with the input graph's canonical edge columns
(:class:`repro.graphs.graph.EdgeView`); one iteration's ``p/4`` / ``w*4``
reweighting is a pair of masked array operations, and the final 1/4-sampling
draws its coins in one batched ``rng.random(count)`` call -- which consumes
the *same* underlying random stream as the historical per-edge scalar calls,
so seeded outputs are bit-identical to the per-edge implementation
(``tests/sparsify/test_vectorized_equivalence.py``).

Rounds: every iteration merges its bundle's ledger -- one entry per spanner
step -- into the result's :class:`~repro.congest.ledger.RoundLedger`, and the
final sampling is one more entry, ``"sampling"``: the most sampled edges one
vertex announces.  ``SparsifierResult.rounds`` is that ledger's total.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.graphs.graph import EdgeView, WeightedGraph
from repro.spanners.bundle import bundle_spanner

EdgeKey = Tuple[int, int]


def bundle_size(n: int, eps: float) -> int:
    """The paper's bundle size ``t = 400 log^2(n) / eps^2`` (line 1 of Algorithm 5).

    At laptop-scale ``n`` the literal constant makes the bundle swallow the
    whole graph; ``spectral_sparsify(t_override=...)`` pins a smaller bundle
    (see ``docs/substitutions.md``, 1).
    """
    if eps <= 0:
        raise ValueError(f"error parameter eps must be positive, got {eps}")
    n = max(2, int(n))
    t = 400.0 * (math.log2(n) ** 2) / (eps * eps)
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


@dataclass
class SparsifierResult:
    """Output of the sparsification algorithms.

    ``sparsifier`` is the reweighted subgraph ``H``; ``ledger`` holds the
    Broadcast-CONGEST charges of every spanner step and of the final
    sampling, and ``rounds`` is their total; ``orientation`` maps each
    sparsifier edge to a ``(tail, head)`` pair such that out-degrees are small
    (Theorem 1.2).
    """

    sparsifier: WeightedGraph
    ledger: RoundLedger = field(default_factory=RoundLedger)
    iterations: List[IterationRecord] = field(default_factory=list)
    orientation: Dict[EdgeKey, Tuple[int, int]] = field(default_factory=dict)
    final_probabilities: Dict[EdgeKey, float] = field(default_factory=dict)

    @property
    def rounds(self) -> float:
        """Broadcast-CONGEST rounds charged by the run: the ledger's total."""
        return self.ledger.total_rounds

    @property
    def size(self) -> int:
        """Number of edges of the sparsifier."""
        return self.sparsifier.m

    def certify(self, graph: WeightedGraph, eps: float) -> bool:
        """Empirically verify Definition 2.1 against ``graph``.

        Degenerate sparsifiers (empty or disconnected relative to a connected
        input) are reported as failures, never certified vacuously (see
        :func:`repro.graphs.laplacian.spectral_approximation_factor`).
        """
        from repro.graphs.laplacian import is_spectral_sparsifier

        return is_spectral_sparsifier(graph, self.sparsifier, eps)

    def max_out_degree(self) -> int:
        """Largest number of sparsifier edges one vertex is the tail of (0 when empty)."""
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
    t_override: Optional[int] = None,
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
    t_override:
        Experiment knob: the bundle size ``t`` instead of :func:`bundle_size`'s;
        the default follows the paper exactly.
    """
    if graph.m == 0:
        return SparsifierResult(sparsifier=graph.copy())
    rng = np.random.default_rng(seed)
    n = graph.n
    k = stretch_parameter(n)
    t = t_override if t_override is not None else bundle_size(n, eps)

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
        )
        bundle_idx, rejected_idx = bundle.bundle_idx, bundle.rejected_idx
        result.ledger.merge(bundle.ledger)

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
    # the busiest sampler announces one kept edge per round; nobody: one round
    rounds = int(np.bincount(edge_u[kept_sampled]).max()) if kept_sampled.size else 1
    result.ledger.charge("sampling", rounds, "Algorithm 5, lines 11-15")

    result.sparsifier = sparsifier
    result.orientation = orientation
    result.final_probabilities = dict(
        zip(
            zip(edge_u[alive_idx].tolist(), edge_v[alive_idx].tolist()),
            probability[alive_idx].tolist(),
        )
    )
    return result
