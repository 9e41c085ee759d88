"""Spanners on graphs with probabilistic edges (Section 3.1).

``probabilistic_spanner(G, p, k)`` computes a subset ``F = F+ | F-`` of the
edges such that every edge of ``F`` ends up in ``F+`` independently with its
maintained probability ``p_e``, and ``S = (V, F+)`` is a ``(2k-1)``-spanner of
``(V, F+ | E'')`` for every ``E'' subseteq E \\ F`` (Lemma 3.1).  Setting
``p === 1`` recovers the Baswana-Sen algorithm of Appendix A.

The algorithm has ``k - 1`` phases of three ``Connect`` steps (2: vertices of
unmarked clusters to the marked clusters; 3.1 / 3.2: between unmarked
clusters, towards smaller / larger cluster identifiers) and a final round of
three more (4.1: unclustered vertices to the surviving clusters; 4.2 / 4.3:
between surviving clusters).  Rounds are charged following Lemma 3.2: one
round per word per broadcast, broadcasts of different vertices in one step
run in parallel, and the per-phase dissemination of the marking costs
``k - 1`` rounds.  Each step is one entry of the
:class:`~repro.congest.ledger.RoundLedger` the result carries
(``SpannerResult.ledger``), named by the step with ``detail`` ``"phase <p>"``;
the bundle, the sparsifier and the solver merge these entries into theirs.
The run records no transcript.  The per-vertex reference executor in
``tests/spanners/reference_executor.py`` records the broadcasts the paper
prescribes and charges the same entries;
``tests/spanners/test_broadcast_reconstruction.py`` replays its transcript,
rebuilds ``F+`` / ``F-`` from it by the receiver rules of Section 3.1, and
sends it again under Broadcast CONGEST to hold every charge against the rounds
it takes (``docs/substitutions.md``, 7).  So the "implicit communication" of
the sampling outcome and the round count are checked properties, not remarks.

Data model
----------
The executor runs each step for *all* vertices at once.  Per run it builds
the ``2 m'`` half-edges ``(src, dst, w, edge)`` of the alive edges of the
:class:`repro.graphs.graph.EdgeView` it is given and sorts them once by
``(src, w, dst)`` -- Algorithm 2's ``(weight, identifier)`` scan order inside
every vertex.  The state is five arrays: ``cluster[v]`` (``-1`` =
unclustered), ``dead[e]`` (``F-``), ``in_plus[e]`` (``F+``), ``tail[e]`` (who
added the edge: the orientation) and, per phase, the step-2 threshold
``(W_v, u)``.  A step is a boolean mask over the half-edges (acting vertex,
alive edge, target-cluster predicate, threshold, smaller / larger cluster
identifier), a stable sort of the selected ones by ``(src, cluster[dst])``
into ``Connect`` groups, one resolution of all groups, and a bulk update of
the state arrays.  Results are carried as base edge index arrays
(``f_plus_idx`` / ``f_minus_idx``); the key sets and the orientation dict
are derived from the arrays on first access.

Why step-level batching is exact
--------------------------------
The candidates of a step depend only on the state at its start: within one
step the edges scanned by one vertex are never scanned by another.  In step 2
only vertices of unmarked clusters scan, and only into marked clusters; in
3.1 / 4.2 an edge between two clusters is scanned from the larger identifier
only, in 3.2 / 4.3 from the smaller; in 4.1 only unclustered vertices scan,
and only into clusters.  One vertex's groups lead into different clusters, so
they are disjoint too.  This is the reason Section 3.1 splits the steps by
cluster identifier in the first place: no two endpoints ever decide the same
edge in the same step.

The rng-order contract
----------------------
Seeded outputs are pinned (``tests/spanners/test_executor_equivalence.py``)
to the per-vertex executor this module used to contain, which now lives in
``tests/spanners/reference_executor.py``: equal decisions, orientation,
per-step charges *and* generator state after the run.  The contract is

* marking: one uniform per cluster centre and phase, centres ascending;
* ``Connect``: one uniform per *inspected* candidate -- also when its
  probability is 1, and an edge already in ``F+`` counts as 1 -- groups in
  ``(vertex, cluster)`` order, candidates in ``(weight, identifier)`` order,
  a group stopping at its first acceptance.

So where a group's draws start depends on how much every earlier group
consumed.  :func:`_resolve_connect` keeps that exactly: a group whose first
candidate is certain consumes one draw whatever its value; only the other
groups are walked one after the other, with a running offset into one batch
of uniforms, and the generator is then put where scalar draws would have
left it by restoring its state and drawing the consumed count.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.graphs.graph import EdgeView, WeightedGraph

EdgeKey = Tuple[int, int]

_NO_INDEX = np.zeros(0, dtype=np.int64)


def resolve_edge_probabilities(
    view: EdgeView,
    probabilities: Optional[Union[Dict[EdgeKey, float], np.ndarray]],
) -> np.ndarray:
    """Normalise ``probabilities`` to an array aligned with ``view``'s base edges.

    ``None`` means ``p === 1``.  A dict maps canonical edge keys to
    probabilities (missing keys default to 1.0, matching the historical API);
    an ndarray is taken as already aligned with the base edge columns.  Values
    are validated to lie in ``[0, 1]`` for the alive edges only -- dead edges
    are never sampled, so their entries are irrelevant.
    """
    base_m = view.base_m
    if probabilities is None:
        return np.ones(base_m)
    if isinstance(probabilities, np.ndarray):
        prob = np.asarray(probabilities, dtype=float)
        if prob.shape != (base_m,):
            raise ValueError(
                f"probability array must have shape ({base_m},), got {prob.shape}"
            )
        alive_p = prob[view.alive]
        if alive_p.size and (float(alive_p.min()) < 0.0 or float(alive_p.max()) > 1.0):
            bad = np.flatnonzero(view.alive)[
                int(np.argmax((alive_p < 0.0) | (alive_p > 1.0)))
            ]
            raise ValueError(
                f"edge probability for {view.edge_key(int(bad))} must lie in "
                f"[0, 1], got {float(prob[bad])}"
            )
        return prob
    prob = np.ones(base_m)
    idx = view.alive_indices()
    for ei, a, b in zip(idx.tolist(), view.u[idx].tolist(), view.v[idx].tolist()):
        p = float(probabilities.get((a, b), 1.0))
        if not (0.0 <= p <= 1.0):
            raise ValueError(
                f"edge probability for {(a, b)} must lie in [0, 1], got {p}"
            )
        prob[ei] = p
    return prob


class SpannerResult:
    """Output of the probabilistic spanner algorithm.

    The run hands over arrays: ``f_plus_idx`` / ``f_minus_idx`` are the
    decided edges as ascending base edge indices of the view the spanner ran
    on, which is what the bundle / sparsify layers consume for bulk mask
    updates.  ``f_plus`` / ``f_minus`` (the same edges as canonical keys) and
    ``orientation`` (each ``F+`` edge to ``(tail, head)``, the tail being the
    vertex that added it) are derived from them on first access.  ``ledger``
    holds one entry per step in execution order -- ``"marking"``, ``"step2"``
    ... ``"step4.3"``, with ``detail`` ``"phase <p>"`` -- and ``rounds`` is its
    total.
    """

    def __init__(
        self,
        view: EdgeView,
        k: int,
        f_plus_idx: np.ndarray,
        f_minus_idx: np.ndarray,
        tails: np.ndarray,
        ledger: RoundLedger,
    ):
        self.n = view.n
        self.k = k
        self.f_plus_idx = f_plus_idx
        self.f_minus_idx = f_minus_idx
        self.ledger = ledger
        self._view = view
        self._tails = tails

    @property
    def rounds(self) -> float:
        """Broadcast-CONGEST rounds charged by the run: the ledger's total."""
        return self.ledger.total_rounds

    @cached_property
    def f_plus(self) -> Set[EdgeKey]:
        return set(self._view.edge_keys(self.f_plus_idx))

    @cached_property
    def f_minus(self) -> Set[EdgeKey]:
        return set(self._view.edge_keys(self.f_minus_idx))

    @cached_property
    def orientation(self) -> Dict[EdgeKey, Tuple[int, int]]:
        idx = self.f_plus_idx
        heads = self._view.u[idx] + self._view.v[idx] - self._tails
        return dict(zip(self._view.edge_keys(idx), zip(self._tails.tolist(), heads.tolist())))

    @property
    def f(self) -> Set[EdgeKey]:
        """The full decided set ``F = F+ | F-``."""
        return self.f_plus | self.f_minus

    def spanner_graph(self, graph: WeightedGraph) -> WeightedGraph:
        """The spanner ``(V, F+)`` as a subgraph of ``graph``."""
        return graph.subgraph_with_edges(self.f_plus)

    def max_out_degree(self) -> int:
        """Largest out-degree under the computed orientation (0 when ``F+`` is empty)."""
        return int(np.bincount(self._tails).max()) if self._tails.size else 0


def _ragged_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over the ``(s, l)`` pairs."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def _resolve_connect(
    p: np.ndarray, starts: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``Connect`` (Algorithm 2) on every group, consuming ``rng`` like scalar calls.

    ``p`` holds the probabilities of all candidates, groups one after the
    other in broadcast order and each group in scan order; ``starts`` the
    position of every group's first candidate.  Returns the position of the
    accepted candidate per group (``-1`` for bottom) and the positions of all
    rejected candidates (the sets ``N^-``).

    A uniform ``r`` lies in ``[0, 1)``, so ``r < p`` alone decides a
    candidate, and one with ``p >= 1`` is accepted whatever it draws.  Groups
    led by such a candidate therefore take exactly one draw each and need no
    look at it; the others are walked in order, each starting where the
    groups before it stopped.
    """
    groups = starts.size
    open_groups = np.flatnonzero(p[starts] < 1.0)
    if open_groups.size == 0:
        rng.random(groups)
        return starts, _NO_INDEX
    first = starts[open_groups]
    # an open group can be inspected up to its first certain candidate at most
    certain = np.flatnonzero(p >= 1.0)
    stop = np.append(certain + 1, p.size)[np.searchsorted(certain, first)]
    lengths = np.minimum(np.append(starts[1:], p.size)[open_groups], stop) - first
    closed_before = open_groups - np.arange(open_groups.size)

    state = rng.bit_generator.state
    drawn = groups - open_groups.size + int(lengths.sum())
    draws = rng.random(drawn).tolist()
    odds = p[_ragged_ranges(first, lengths)].tolist()
    inspected = []  # per open group: candidates looked at
    accepted_open = []  # per open group: did the last one looked at succeed
    consumed = 0  # draws taken by the open groups so far
    base = 0  # position of the current group in `odds`
    for length, before in zip(lengths.tolist(), closed_before.tolist()):
        offset = before + consumed
        looked = 0
        hit = False
        while looked < length and not hit:
            hit = draws[offset + looked] < odds[base + looked]
            looked += 1
        inspected.append(looked)
        accepted_open.append(hit)
        consumed += looked
        base += length
    consumed += groups - open_groups.size
    if consumed != drawn:
        rng.bit_generator.state = state
        rng.random(consumed)

    inspected = np.array(inspected, dtype=np.int64)
    hit = np.array(accepted_open, dtype=bool)
    accepted = starts.copy()
    accepted[open_groups] = np.where(hit, first + inspected - 1, -1)
    rejected = _ragged_ranges(first, inspected - hit)
    return accepted, rejected


class ProbabilisticSpanner:
    """Step-parallel executor of the Section 3.1 spanner algorithm."""

    def __init__(
        self,
        graph: Union[WeightedGraph, EdgeView],
        probabilities: Optional[Union[Dict[EdgeKey, float], np.ndarray]] = None,
        k: int = 2,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        marking_bits: Optional[List[Dict[int, bool]]] = None,
    ):
        if k < 1:
            raise ValueError(f"stretch parameter k must be >= 1, got {k}")
        self.view = graph if isinstance(graph, EdgeView) else EdgeView.from_graph(graph)
        self.k = int(k)
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.marking_bits = marking_bits
        self._prob = resolve_edge_probabilities(self.view, probabilities)
        n = self.view.n
        self.word_bits = max(1, math.ceil(math.log2(max(2, n))))
        max_weight = max(2.0, self.view.max_weight())
        self.words_per_message = 1 + math.ceil(math.log2(max_weight) / self.word_bits)

    # -- public API -----------------------------------------------------------

    def run(self) -> SpannerResult:
        """Execute all ``k - 1`` phases plus the final step and return the result."""
        view = self.view
        n = view.n
        base_idx = view.alive_indices()
        m = base_idx.size
        local = np.arange(m)
        src = np.concatenate((view.u[base_idx], view.v[base_idx]))
        dst = np.concatenate((view.v[base_idx], view.u[base_idx]))
        distinct, rank = np.unique(view.w[base_idx], return_inverse=True)
        weight = np.tile(view.w[base_idx], 2)
        # half-edges by (src, weight, dst) as one argsort of a composite key
        # with the weight rank-encoded; keys are unique (no parallel edges)
        # and below n^2 * #weights <= n^2 m, far inside int64 for any graph
        # held in memory
        if n * n * max(1, distinct.size) >= 2**63:
            raise OverflowError(f"half-edge sort key overflows int64 at n={n}, m={m}")
        order = np.argsort((src * distinct.size + np.tile(rank, 2)) * n + dst)
        self._src, self._dst, self._w = src[order], dst[order], weight[order]
        self._edge = np.tile(local, 2)[order]
        self._p = self._prob[base_idx]
        self._cluster = np.arange(n)
        self._dead = np.zeros(m, dtype=bool)
        self._in_plus = np.zeros(m, dtype=bool)
        self._tail = np.zeros(m, dtype=np.int64)
        self._ledger = RoundLedger()

        mark_probability = n ** (-1.0 / self.k)
        for phase in range(self.k - 1):
            self._run_phase(phase, self._mark_clusters(phase, mark_probability))
            # Step 1 dissemination of the marking through the cluster trees.
            self._charge(phase, "marking", max(1, self.k - 1))
        self._final_step()

        plus = np.flatnonzero(self._in_plus)
        return SpannerResult(
            view,
            self.k,
            f_plus_idx=base_idx[plus],
            f_minus_idx=base_idx[self._dead],
            tails=self._tail[plus],
            ledger=self._ledger,
        )

    def _charge(self, phase: int, step: str, rounds: int) -> None:
        self._ledger.charge(step, rounds, f"phase {phase}")

    # -- phase steps ------------------------------------------------------------

    def _mark_clusters(self, phase: int, mark_probability: float) -> np.ndarray:
        """Step 1: every cluster centre marks itself with probability ``n^{-1/k}``.

        Returns a boolean array over cluster identifiers with one spare slot at
        the end that stays ``False``, so that indexing it with ``-1`` (an
        unclustered vertex) reads "not marked".
        """
        n = self.view.n
        cluster = self._cluster
        centres = np.flatnonzero(np.bincount(cluster[cluster >= 0], minlength=n))
        if self.marking_bits is not None and phase < len(self.marking_bits):
            bits = self.marking_bits[phase]
            chosen = np.array([bits.get(c, False) for c in centres.tolist()], dtype=bool)
        else:
            chosen = self.rng.random(centres.size) < mark_probability
        marked = np.zeros(n + 1, dtype=bool)
        marked[centres[chosen]] = True
        return marked

    def _run_phase(self, phase: int, marked: np.ndarray) -> None:
        """Steps 2, 3.1 and 3.2 of one phase, then the move to the next clustering."""
        n = self.view.n
        cluster = self._cluster
        src, dst, weight = self._src, self._dst, self._w
        own, other = cluster[src], cluster[dst]
        # half-edges an acting vertex (one in an unmarked cluster) may scan
        scan = np.flatnonzero(~marked[own] & (own >= 0) & (other >= 0) & ~self._dead[self._edge])
        to_marked = marked[other[scan]]

        # Step 2: one Connect per acting vertex over all its neighbours in
        # marked clusters.  The accepted connection (W_v, u) -- (inf, inf) after
        # bottom -- is the threshold of step 3, which only considers strictly
        # lighter edges (ties broken by identifier, as in Appendix A).
        candidates = scan[to_marked]
        _, accepted = self._connect(candidates, src[candidates])
        joined = accepted[accepted >= 0]
        threshold_w = np.full(n, np.inf)
        threshold_id = np.full(n, np.inf)
        threshold_w[src[joined]] = weight[joined]
        threshold_id[src[joined]] = dst[joined]
        next_cluster = np.where(marked[cluster], cluster, -1)
        next_cluster[src[joined]] = cluster[dst[joined]]
        acting = (~marked[cluster] & (cluster >= 0)).any()
        self._charge(phase, "step2", self.words_per_message if acting else 1)

        # Steps 3.1 / 3.2: one Connect per (acting vertex, adjacent unmarked
        # cluster other than its own), towards smaller identifiers first.
        rest = scan[~to_marked]
        s, d, w = src[rest], dst[rest], weight[rest]
        below = (w < threshold_w[s]) | ((w == threshold_w[s]) & (d < threshold_id[s]))
        rest = rest[below & (other[rest] != own[rest])]
        self._connect_by_cluster(phase, ("step3.1", "step3.2"), rest, own, other)
        self._cluster = next_cluster

    def _final_step(self) -> None:
        """Step 4: connect every vertex to all adjacent surviving clusters ``R_k``."""
        cluster = self._cluster
        own, other = cluster[self._src], cluster[self._dst]
        scan = np.flatnonzero((other >= 0) & (other != own) & ~self._dead[self._edge])
        outside = own[scan] < 0
        phase = self.k - 1
        # 4.1 -- vertices outside any surviving cluster.
        self._connect_by_cluster(phase, ("step4.1",), scan[outside], own, other)
        # 4.2 / 4.3 -- vertices inside surviving clusters, split by cluster ID.
        self._connect_by_cluster(phase, ("step4.2", "step4.3"), scan[~outside], own, other)

    def _connect_by_cluster(
        self,
        phase: int,
        steps: Tuple[str, ...],
        scan: np.ndarray,
        own: np.ndarray,
        other: np.ndarray,
    ) -> None:
        """One ``Connect`` per (vertex, adjacent cluster) over the half-edges ``scan``.

        Two names in ``steps`` split the work by cluster identifier: the first
        step takes the groups towards smaller identifiers, the second
        afterwards those towards larger ones, seeing what the first decided.
        The stable sort keeps the ``(weight, identifier)`` order of the
        half-edges inside every group.
        """
        key = self._src[scan] * self.view.n + other[scan]
        order = np.argsort(key, kind="stable")
        scan, key = scan[order], key[order]
        if len(steps) == 1:
            sides = [np.ones(scan.size, dtype=bool)]
        else:
            smaller = other[scan] < own[scan]
            sides = [smaller, ~smaller]
        for name, side in zip(steps, sides):
            chosen = side & ~self._dead[self._edge[scan]]
            candidates, groups = scan[chosen], key[chosen]
            starts, _ = self._connect(candidates, groups)
            senders = self._src[candidates[starts]]
            rounds = int(np.bincount(senders).max()) * self.words_per_message if starts.size else 1
            self._charge(phase, name, rounds)

    def _connect(self, candidates: np.ndarray, key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve one step's ``Connect`` groups and apply their outcome to the state.

        ``candidates`` are half-edge positions, grouped by ``key`` (equal keys
        adjacent, groups in broadcast order, scan order inside a group).
        Returns the offset of every group's first candidate and, per group,
        the accepted half-edge (``-1`` for bottom).  Accepted edges enter
        ``F+`` -- the first vertex to add an edge is its tail -- and the
        rejected prefixes ``N^-`` enter ``F-``.
        """
        if candidates.size == 0:
            return _NO_INDEX, _NO_INDEX
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        edges = self._edge[candidates]
        p = np.where(self._in_plus[edges], 1.0, self._p[edges])
        accepted_at, rejected_at = _resolve_connect(p, starts, self.rng)
        accepted = np.where(accepted_at >= 0, candidates[accepted_at], -1)
        won = accepted[accepted >= 0]
        fresh = won[~self._in_plus[self._edge[won]]]
        self._tail[self._edge[fresh]] = self._src[fresh]
        self._in_plus[self._edge[fresh]] = True
        if rejected_at.size:
            lost = edges[rejected_at]
            if self._in_plus[lost].any():
                bad = self.view.alive_indices()[lost[self._in_plus[lost]][0]]
                raise RuntimeError(
                    f"edge {self.view.edge_key(int(bad))} was sampled out after having "
                    "been accepted; this indicates a bookkeeping bug"
                )
            self._dead[lost] = True
        return starts, accepted


def probabilistic_spanner(
    graph: Union[WeightedGraph, EdgeView],
    probabilities: Optional[Union[Dict[EdgeKey, float], np.ndarray]] = None,
    k: int = 2,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    marking_bits: Optional[List[Dict[int, bool]]] = None,
) -> SpannerResult:
    """Convenience wrapper around :class:`ProbabilisticSpanner`.

    With ``probabilities=None`` (i.e. ``p === 1``) this computes a plain
    ``(2k-1)``-spanner of ``graph`` and ``F-`` is empty.
    """
    algorithm = ProbabilisticSpanner(
        graph,
        probabilities=probabilities,
        k=k,
        rng=rng,
        seed=seed,
        marking_bits=marking_bits,
    )
    return algorithm.run()
