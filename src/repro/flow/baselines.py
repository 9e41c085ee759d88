"""Exact combinatorial flow baselines.

These centralised algorithms serve two purposes: they are the ground truth the
LP-based pipeline of Theorem 1.1 is verified against, and they are the
comparators of benchmark E5.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graphs.digraph import FlowNetwork

EdgeKey = Tuple[int, int]


def _split_antiparallel(network: FlowNetwork) -> Tuple[FlowNetwork, Dict[EdgeKey, Tuple[EdgeKey, Optional[EdgeKey]]]]:
    """Remove anti-parallel edge pairs by routing one of them through a new vertex.

    Residual-graph algorithms index arcs by ordered vertex pairs, so a pair
    ``(u, v)`` / ``(v, u)`` of opposite edges would collide.  For every such
    pair the lexicographically larger edge ``(v, u)`` is replaced by
    ``(v, w), (w, u)`` through a fresh vertex ``w``.  Returns the transformed
    network and, for every original edge, the arc(s) that carry its flow.
    """
    keys = set(network.edge_keys())
    conflicts = {(u, v) for (u, v) in keys if (v, u) in keys and u < v}
    if not conflicts:
        mapping = {key: (key, None) for key in keys}
        return network, mapping

    extra = len(conflicts)
    split = FlowNetwork(network.n + extra, network.source, network.sink)
    mapping: Dict[EdgeKey, Tuple[EdgeKey, Optional[EdgeKey]]] = {}
    next_vertex = network.n
    to_split = {(v, u) for (u, v) in conflicts}
    for edge in network.edges():
        key = (edge.u, edge.v)
        if key in to_split:
            w = next_vertex
            next_vertex += 1
            split.add_edge(edge.u, w, edge.capacity, edge.cost)
            split.add_edge(w, edge.v, edge.capacity, 0.0)
            mapping[key] = ((edge.u, w), (w, edge.v))
        else:
            split.add_edge(edge.u, edge.v, edge.capacity, edge.cost)
            mapping[key] = (key, None)
    return split, mapping


def _map_back(
    network: FlowNetwork,
    mapping: Dict[EdgeKey, Tuple[EdgeKey, Optional[EdgeKey]]],
    split_flow: Dict[EdgeKey, float],
) -> Dict[EdgeKey, float]:
    """Translate a flow on the split network back to the original edges."""
    return {
        key: float(split_flow.get(primary, 0.0))
        for key, (primary, _secondary) in mapping.items()
        if network.has_edge(*key)
    }


def edmonds_karp_max_flow(network: FlowNetwork) -> Tuple[float, Dict[EdgeKey, float]]:
    """Maximum ``s``-``t`` flow via BFS augmenting paths (Edmonds-Karp).

    Returns ``(value, flow)`` with ``flow`` keyed by the network's edge pairs.
    """
    original = network
    network, mapping = _split_antiparallel(network)
    n = network.n
    source, sink = network.source, network.sink
    # residual capacities over ordered pairs (original + reverse arcs)
    residual: Dict[EdgeKey, float] = {}
    for edge in network.edges():
        residual[(edge.u, edge.v)] = residual.get((edge.u, edge.v), 0.0) + edge.capacity
        residual.setdefault((edge.v, edge.u), 0.0)
    adjacency: Dict[int, set] = {v: set() for v in range(n)}
    for (u, v) in residual:
        adjacency[u].add(v)

    flow_value = 0.0
    while True:
        # BFS for a shortest augmenting path
        parent: Dict[int, Optional[int]] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent and residual[(u, v)] > 1e-12:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        # bottleneck
        bottleneck = float("inf")
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, residual[(u, v)])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
            v = u
        flow_value += bottleneck

    flow: Dict[EdgeKey, float] = {}
    for edge in network.edges():
        used = edge.capacity - residual[(edge.u, edge.v)]
        flow[(edge.u, edge.v)] = float(min(edge.capacity, max(0.0, used)))
    return flow_value, _map_back(original, mapping, flow)


def successive_shortest_paths(
    network: FlowNetwork, target_value: Optional[float] = None
) -> Tuple[float, float, Dict[EdgeKey, float]]:
    """Exact minimum-cost flow of maximum (or given) value.

    Uses Bellman-Ford shortest augmenting paths on the residual graph (costs
    may become negative on reverse arcs), which is exact for integral
    capacities.  Returns ``(value, cost, flow)``.

    The residual graph is a set of arc arrays: arc ``i < m`` is edge ``i`` of
    ``edge_keys`` order and arc ``i + m`` its reverse, whose residual capacity
    is the flow on the edge.  A relaxation round is vectorised over all arcs;
    among the arcs that offer a vertex the same best distance, the first in
    (head, arc index) order becomes its parent.
    """
    original = network
    network, mapping = _split_antiparallel(network)
    source, sink, n, m = network.source, network.sink, network.n, network.m
    u, v, capacity, edge_cost = network.edge_array()
    residual = np.concatenate([capacity, np.zeros(m)])
    head = np.concatenate([v, u])
    # arcs grouped by head, so that one reduceat finds the best arc into each vertex
    by_head = np.argsort(head, kind="stable")
    arc_tail = np.concatenate([u, v])
    tail = arc_tail[by_head]
    cost = np.concatenate([edge_cost, -edge_cost])[by_head]
    heads, starts, counts = np.unique(head[by_head], return_index=True, return_counts=True)
    position = np.arange(2 * m)

    value = 0.0
    remaining = float("inf") if target_value is None else float(target_value)
    while remaining > 1e-12:
        # Bellman-Ford from the source on the residual graph
        closed = residual[by_head] <= 1e-12
        dist = np.full(n, np.inf)
        dist[source] = 0.0
        parent = np.full(n, -1, dtype=np.int64)  # arc into each reached vertex
        for _ in range(n - 1):
            offer = dist[tail] + cost
            offer[closed] = np.inf
            best = np.minimum.reduceat(offer, starts)
            improved = best < dist[heads] - 1e-15
            if not improved.any():
                break
            first = np.minimum.reduceat(
                np.where(offer == np.repeat(best, counts), position, 2 * m), starts
            )
            dist[heads[improved]] = best[improved]
            parent[heads[improved]] = by_head[first[improved]]
        if not np.isfinite(dist[sink]):
            break
        path = []
        vertex = sink
        while vertex != source:
            path.append(parent[vertex])
            vertex = arc_tail[path[-1]]
        path = np.array(path)
        bottleneck = min(remaining, float(residual[path].min()))
        residual[path] -= bottleneck
        residual[(path + m) % (2 * m)] += bottleneck
        value += bottleneck
        if target_value is not None:
            remaining -= bottleneck

    split_flow = dict(zip(network.edge_keys(), np.clip(residual[m:], 0.0, capacity).tolist()))
    result_flow = _map_back(original, mapping, split_flow)
    return float(value), float(original.flow_cost(result_flow)), result_flow


def networkx_min_cost_max_flow(
    network: FlowNetwork,
) -> Tuple[float, float, Dict[EdgeKey, float]]:
    """networkx's ``max_flow_min_cost`` as an independent exact reference."""
    import networkx as nx

    graph = network.to_networkx()
    flow_dict = nx.max_flow_min_cost(graph, network.source, network.sink)
    flow: Dict[EdgeKey, float] = {}
    for u, targets in flow_dict.items():
        for v, f in targets.items():
            if network.has_edge(u, v):
                flow[(u, v)] = float(f)
    for key in network.edge_keys():
        flow.setdefault(key, 0.0)
    value = network.flow_value(flow)
    cost = network.flow_cost(flow)
    return float(value), float(cost), flow
