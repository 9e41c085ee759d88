"""The per-vertex executor of the Section 3.1 spanner, frozen as a test reference.

This is the implementation ``repro.spanners.probabilistic`` shipped before the
step-parallel array executor replaced it, moved here verbatim (classes
renamed ``Reference*``; ``BroadcastRecord`` and ``resolve_edge_probabilities``
are imported from the package because they are shared data, not executor
logic).  It walks every step one vertex at a time, calls ``Connect`` once per
(vertex, adjacent cluster) and flips one scalar coin per inspected candidate,
so it *defines* the rng-order contract: marking draws per centre in ascending
order, ``Connect`` draws in ``(vertex, cluster, weight, identifier)`` order,
each group stopping at its first acceptance.

``tests/spanners/test_executor_equivalence.py`` pins the array executor to it
field by field, generator state included; the historical bundle / sparsify
loops in ``tests/sparsify/test_vectorized_equivalence.py`` are built on it as
well.  Do not optimise this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.graphs.graph import EdgeView, WeightedGraph, canonical_edge
from repro.spanners.probabilistic import BroadcastRecord, resolve_edge_probabilities

EdgeKey = Tuple[int, int]

#: (neighbour, edge weight, base edge index) as stored in the adjacency lists.
AdjEntry = Tuple[int, float, int]

#: Connect's scan order, line 1 of Algorithm 2: ascending (weight, identifier).
_by_weight_then_id = itemgetter(1, 0)


@dataclass
class ReferenceSpannerResult:
    """Output of the probabilistic spanner algorithm.

    ``f_plus`` / ``f_minus`` are the global edge sets; ``f_plus_of`` /
    ``f_minus_of`` are the per-vertex views (``u in f_plus_of[v]`` iff the edge
    ``(u, v)`` is in ``F+``), which is the local form in which a distributed
    execution would hold the output.  ``f_plus_idx`` / ``f_minus_idx`` hold the
    same decisions as base edge indices of the view the spanner ran on, which
    is what the bundle/sparsify layers consume for bulk mask updates.
    """

    n: int
    k: int
    f_plus: Set[EdgeKey] = field(default_factory=set)
    f_minus: Set[EdgeKey] = field(default_factory=set)
    f_plus_idx: Set[int] = field(default_factory=set)
    f_minus_idx: Set[int] = field(default_factory=set)
    f_plus_of: Dict[int, Set[int]] = field(default_factory=dict)
    f_minus_of: Dict[int, Set[int]] = field(default_factory=dict)
    orientation: Dict[EdgeKey, Tuple[int, int]] = field(default_factory=dict)
    broadcasts: List[BroadcastRecord] = field(default_factory=list)
    rounds: int = 0
    clusters_per_phase: List[Dict[int, int]] = field(default_factory=list)

    @property
    def f(self) -> Set[EdgeKey]:
        """The full decided set ``F = F+ | F-``."""
        return self.f_plus | self.f_minus

    def spanner_graph(self, graph: WeightedGraph) -> WeightedGraph:
        """The spanner ``(V, F+)`` as a subgraph of ``graph``."""
        return graph.subgraph_with_edges(self.f_plus)

    def out_degrees(self) -> Dict[int, int]:
        """Out-degree of every vertex under the computed orientation."""
        degrees = {v: 0 for v in range(self.n)}
        for tail, _head in self.orientation.values():
            degrees[tail] += 1
        return degrees

    def max_out_degree(self) -> int:
        degrees = self.out_degrees()
        return max(degrees.values()) if degrees else 0


class ReferenceProbabilisticSpanner:
    """Stateful executor of the Section 3.1 spanner algorithm."""

    def __init__(
        self,
        graph: Union[WeightedGraph, EdgeView],
        probabilities: Optional[Union[Dict[EdgeKey, float], np.ndarray]] = None,
        k: int = 2,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        marking_bits: Optional[List[Dict[int, bool]]] = None,
        record_broadcasts: bool = True,
    ):
        if k < 1:
            raise ValueError(f"stretch parameter k must be >= 1, got {k}")
        self.view = graph if isinstance(graph, EdgeView) else EdgeView.from_graph(graph)
        self.k = int(k)
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.marking_bits = marking_bits
        # The broadcast transcript documents the distributed execution but is
        # dead weight for the sparsification loops, which only consume edge
        # sets and round counts; they opt out (rng draws are unaffected).
        self.record_broadcasts = bool(record_broadcasts)
        self._prob = resolve_edge_probabilities(self.view, probabilities)
        # hot per-candidate reads go through plain Python floats, not numpy scalars
        self._prob_list = self._prob.tolist()
        self._adj = self.view.adjacency_lists()

        n = self.view.n
        self.result = ReferenceSpannerResult(
            n=n,
            k=self.k,
            f_plus_of={v: set() for v in range(n)},
            f_minus_of={v: set() for v in range(n)},
        )
        # cluster_of[v] = identifier (centre) of the R_i cluster containing v.
        self.cluster_of: Dict[int, int] = {v: v for v in range(n)}
        # list mirror of cluster_of for O(1) hot-loop lookups (-1 = unclustered)
        # and the sorted vertex scan order, both rebuilt whenever cluster_of is
        # replaced (it is constant within a phase).
        self._cluster_list: List[int] = list(range(n))
        self._sorted_clustered: List[int] = list(range(n))
        self.word_bits = max(1, math.ceil(math.log2(max(2, n))))
        max_weight = max(2.0, self.view.max_weight())
        self.words_per_message = 1 + math.ceil(math.log2(max_weight) / self.word_bits)

    # -- public API -----------------------------------------------------------

    def run(self) -> ReferenceSpannerResult:
        """Execute all ``k - 1`` phases plus the final step and return the result."""
        mark_probability = self.view.n ** (-1.0 / self.k)
        for phase in range(self.k - 1):
            self.result.clusters_per_phase.append(dict(self.cluster_of))
            marked = self._mark_clusters(phase, mark_probability)
            new_cluster_of = {
                v: c for v, c in self.cluster_of.items() if c in marked
            }
            self._step_connect_to_marked(phase, marked, new_cluster_of)
            self._step_unmarked_to_unmarked(phase, marked, smaller_ids=True)
            self._step_unmarked_to_unmarked(phase, marked, smaller_ids=False)
            self.cluster_of = new_cluster_of
            self._rebuild_cluster_list()
            # Step 1 dissemination of the marking through the cluster trees.
            self.result.rounds += max(1, self.k - 1)
        self.result.clusters_per_phase.append(dict(self.cluster_of))
        self._final_step()
        return self.result

    def _rebuild_cluster_list(self) -> None:
        lst = [-1] * self.view.n
        for v, c in self.cluster_of.items():
            lst[v] = c
        self._cluster_list = lst
        self._sorted_clustered = sorted(self.cluster_of)

    # -- phase steps ------------------------------------------------------------

    def _mark_clusters(self, phase: int, mark_probability: float) -> Set[int]:
        """Step 1: every cluster centre marks itself with probability ``n^{-1/k}``."""
        centres = sorted(set(self.cluster_of.values()))
        if self.marking_bits is not None and phase < len(self.marking_bits):
            return {c for c in centres if self.marking_bits[phase].get(c, False)}
        return {c for c in centres if self.rng.random() < mark_probability}

    def _step_connect_to_marked(
        self, phase: int, marked: Set[int], new_cluster_of: Dict[int, int]
    ) -> None:
        """Step 2: vertices of unmarked clusters try to join a marked cluster.

        ``self.w_threshold[v]`` records the (weight, identifier) pair of the
        accepted connection ``(W_v, u)``, or ``(inf, inf)`` when ``Connect``
        returned bottom; step 3 only considers strictly lighter edges (ties
        broken by identifier, as in the Baswana-Sen algorithm of Appendix A).
        """
        self.w_threshold: Dict[int, Tuple[float, float]] = {}
        messages_per_vertex: Dict[int, int] = {}
        cluster_of = self.cluster_of
        cluster_list = self._cluster_list
        for v in self._sorted_clustered:
            if cluster_of[v] in marked:
                continue
            candidates = [
                entry
                for entry in self._alive_neighbours(v)
                if cluster_list[entry[0]] in marked
            ]
            accepted, rejected = (
                self._run_connect(candidates) if candidates else (None, ())
            )
            messages_per_vertex[v] = 1
            if accepted is None:
                self.w_threshold[v] = (math.inf, math.inf)
                self._record_broadcast(phase, "step2", v, None, None, None)
            else:
                u, w_uv, ei = accepted
                self.w_threshold[v] = (w_uv, u)
                new_cluster_of[v] = cluster_list[u]
                self._add_spanner_edge(v, u, ei)
                self._record_broadcast(phase, "step2", v, cluster_list[u], u, w_uv)
            if rejected:
                self._reject_edges(v, rejected)
        self._charge_step(messages_per_vertex)

    def _clustered_neighbours(
        self, v: int, threshold: Optional[Tuple[float, float]] = None
    ) -> Dict[int, List[AdjEntry]]:
        """Alive neighbours of ``v`` grouped by their cluster, one pass.

        Entry order within each group follows the adjacency lists (ascending
        identifier), matching what a per-cluster scan would produce.  With a
        ``threshold``, only entries with ``(w, u) < threshold`` are kept (the
        step-3 restriction).  Grouping once per vertex replaces the historical
        scan-all-neighbours-per-adjacent-cluster loop, which was quadratic in
        the degree; it is safe because the edges a vertex rejects while
        processing one cluster all lead *into* that cluster and therefore
        never alter the candidate lists of the clusters still to come.
        """
        cluster_list = self._cluster_list
        groups: Dict[int, List[AdjEntry]] = {}
        if threshold is None:
            for entry in self._alive_neighbours(v):
                cluster = cluster_list[entry[0]]
                if cluster < 0:
                    continue
                group = groups.get(cluster)
                if group is None:
                    groups[cluster] = [entry]
                else:
                    group.append(entry)
        else:
            for entry in self._alive_neighbours(v):
                cluster = cluster_list[entry[0]]
                if cluster < 0 or (entry[1], entry[0]) >= threshold:
                    continue
                group = groups.get(cluster)
                if group is None:
                    groups[cluster] = [entry]
                else:
                    group.append(entry)
        return groups

    def _step_unmarked_to_unmarked(
        self, phase: int, marked: Set[int], smaller_ids: bool
    ) -> None:
        """Steps 3.1 / 3.2: connections between unmarked clusters, split by ID."""
        step_name = "step3.1" if smaller_ids else "step3.2"
        messages_per_vertex: Dict[int, int] = {}
        cluster_of = self.cluster_of
        for v in self._sorted_clustered:
            own_cluster = cluster_of[v]
            if own_cluster in marked:
                continue
            threshold = self.w_threshold.get(v, (math.inf, math.inf))
            groups = self._clustered_neighbours(v, threshold=threshold)
            for cluster in sorted(groups):
                if cluster in marked or cluster == own_cluster:
                    continue
                if smaller_ids and cluster > own_cluster:
                    continue
                if (not smaller_ids) and cluster <= own_cluster:
                    continue
                accepted, rejected = self._run_connect(groups[cluster])
                messages_per_vertex[v] = messages_per_vertex.get(v, 0) + 1
                if accepted is None:
                    self._record_broadcast(phase, step_name, v, cluster, None, None)
                else:
                    u, w_uv, ei = accepted
                    self._add_spanner_edge(v, u, ei)
                    self._record_broadcast(phase, step_name, v, cluster, u, w_uv)
                self._reject_edges(v, rejected)
        self._charge_step(messages_per_vertex)

    def _final_step(self) -> None:
        """Step 4: connect every vertex to all adjacent surviving clusters ``R_k``."""
        surviving = set(self.cluster_of.values())
        phase = self.k - 1

        # 4.1 -- vertices outside any surviving cluster.
        messages_per_vertex: Dict[int, int] = {}
        for v in range(self.view.n):
            if v in self.cluster_of:
                continue
            groups = self._clustered_neighbours(v)
            self._connect_to_each_cluster(
                v, groups, surviving, phase, "step4.1", messages_per_vertex
            )
        self._charge_step(messages_per_vertex)

        # 4.2 / 4.3 -- vertices inside surviving clusters, split by cluster ID.
        for smaller_ids, step_name in ((True, "step4.2"), (False, "step4.3")):
            messages_per_vertex = {}
            for v in self._sorted_clustered:
                own_cluster = self.cluster_of[v]
                groups = self._clustered_neighbours(v)
                targets = {
                    c
                    for c in groups
                    if c != own_cluster
                    and c in surviving
                    and ((c <= own_cluster) if smaller_ids else (c > own_cluster))
                }
                self._connect_to_each_cluster(
                    v, groups, targets, phase, step_name, messages_per_vertex
                )
            self._charge_step(messages_per_vertex)

    def _connect_to_each_cluster(
        self,
        v: int,
        groups: Dict[int, List[AdjEntry]],
        clusters: Set[int],
        phase: int,
        step_name: str,
        messages_per_vertex: Dict[int, int],
    ) -> None:
        for cluster in sorted(clusters):
            candidates = groups.get(cluster)
            if not candidates:
                continue
            accepted, rejected = self._run_connect(candidates)
            messages_per_vertex[v] = messages_per_vertex.get(v, 0) + 1
            if accepted is None:
                self._record_broadcast(phase, step_name, v, cluster, None, None)
            else:
                u, w_uv, ei = accepted
                self._add_spanner_edge(v, u, ei)
                self._record_broadcast(phase, step_name, v, cluster, u, w_uv)
            self._reject_edges(v, rejected)

    # -- local state helpers -------------------------------------------------------

    def _alive_neighbours(self, v: int) -> List[AdjEntry]:
        """``N_v`` as ``(u, w, edge_index)`` entries, sorted by identifier.

        The adjacency lists already exclude edges dead in the view; only the
        edges declared non-existent *during this run* are filtered here.
        """
        deleted = self.result.f_minus_of[v]
        entries = self._adj[v]
        if not deleted:
            return entries
        return [entry for entry in entries if entry[0] not in deleted]

    def _run_connect(
        self, candidates: Sequence[AdjEntry]
    ) -> Tuple[Optional[AdjEntry], List[Tuple[int, int]]]:
        """Inline ``Connect`` (Algorithm 2) over ``(u, w, edge_index)`` entries.

        Scans the candidates in ascending ``(weight, identifier)`` order,
        flipping one coin per inspected candidate with its maintained
        probability (edges already in ``F+`` count as probability 1), and
        returns the accepted entry -- or ``None``, the paper's bottom symbol
        -- plus the rejected prefix ``N^-`` as ``(u, edge_index)`` pairs.

        One uniform is drawn per inspected candidate, *before* the ``p >= 1``
        short-circuit is evaluated: the rng contract
        :func:`repro.spanners.probabilistic._resolve_connect` keeps for whole
        steps at once.
        """
        ordered = sorted(candidates, key=_by_weight_then_id)
        rejected: List[Tuple[int, int]] = []
        rng_random = self.rng.random
        f_plus_idx = self.result.f_plus_idx
        prob = self._prob_list
        for entry in ordered:
            ei = entry[2]
            p = 1.0 if ei in f_plus_idx else prob[ei]
            if rng_random() < p or p >= 1.0:
                return entry, rejected
            rejected.append((entry[0], ei))
        return None, rejected

    def _add_spanner_edge(self, adder: int, other: int, edge_index: int) -> None:
        if edge_index not in self.result.f_plus_idx:
            key = canonical_edge(adder, other)
            self.result.orientation[key] = (adder, other)
            self.result.f_plus_idx.add(edge_index)
            self.result.f_plus.add(key)
        self.result.f_plus_of[adder].add(other)
        self.result.f_plus_of[other].add(adder)

    def _reject_edges(self, v: int, rejected: Sequence[Tuple[int, int]]) -> None:
        result = self.result
        for u, ei in rejected:
            if ei in result.f_plus_idx:
                raise RuntimeError(
                    f"edge {canonical_edge(u, v)} was sampled out after having "
                    "been accepted; this indicates a bookkeeping bug"
                )
            result.f_minus_idx.add(ei)
            result.f_minus.add(canonical_edge(u, v))
            result.f_minus_of[v].add(u)
            result.f_minus_of[u].add(v)

    def _record_broadcast(
        self,
        phase: int,
        step: str,
        sender: int,
        target_cluster: Optional[int],
        accepted: Optional[int],
        weight: Optional[float],
    ) -> None:
        if not self.record_broadcasts:
            return
        self.result.broadcasts.append(
            BroadcastRecord(
                phase=phase,
                step=step,
                sender=sender,
                target_cluster=target_cluster,
                accepted=accepted,
                weight=weight,
            )
        )

    def _charge_step(self, messages_per_vertex: Dict[int, int]) -> None:
        """Charge rounds for one step: broadcasts of different vertices run in
        parallel, so the cost is the maximum number of messages any vertex sends,
        times the number of words per message (Lemma 3.2)."""
        if not messages_per_vertex:
            self.result.rounds += 1
            return
        self.result.rounds += max(messages_per_vertex.values()) * self.words_per_message


def reference_probabilistic_spanner(
    graph: Union[WeightedGraph, EdgeView],
    probabilities: Optional[Union[Dict[EdgeKey, float], np.ndarray]] = None,
    k: int = 2,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    marking_bits: Optional[List[Dict[int, bool]]] = None,
) -> ReferenceSpannerResult:
    """Convenience wrapper around :class:`ReferenceProbabilisticSpanner`.

    With ``probabilities=None`` (i.e. ``p === 1``) this computes a plain
    ``(2k-1)``-spanner of ``graph`` and ``F-`` is empty.
    """
    algorithm = ReferenceProbabilisticSpanner(
        graph,
        probabilities=probabilities,
        k=k,
        rng=rng,
        seed=seed,
        marking_bits=marking_bits,
    )
    return algorithm.run()
