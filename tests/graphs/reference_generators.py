"""Scalar graph generators, frozen as the test oracle of ``repro.graphs.generators``.

``src/`` draws ``erdos_renyi``, ``random_flow_network`` and ``grid_graph``
with array code: the random pair draws are replayed from
``bit_generator.random_raw`` blocks.  This module keeps the per-pair Python
loops they replaced, verbatim, and
``tests/graphs/test_generator_equivalence.py`` pins the two bit for bit:
the same edges, the same weight-dict insertion order and the same final
``bit_generator.state``.  They share ``_rng`` and ``_connect_components``
with ``src/`` (the components repair runs after the loop in both).

It also holds what only tests use, moved out of ``src/``: the generators
``random_regular_expander``, ``weighted_graph_with_bounded_weights``,
``watts_strogatz``, ``path_graph``, ``cycle_graph``, ``star_graph`` and
``barbell_graph``, and the graph queries ``degrees``, ``neighbours`` and
``edge_list``.
"""

from __future__ import annotations

import math

from repro.graphs.digraph import FlowNetwork
from repro.graphs.generators import (
    RngLike,
    _connect_components,
    _rng,
    complete_graph,
    random_weighted_graph,
)
from repro.graphs.graph import WeightedGraph


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> WeightedGraph:
    """``rows x cols`` grid graph."""
    n = rows * cols
    graph = WeightedGraph(n)

    def index(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                graph.add_edge(index(r, c), index(r, c + 1), weight)
            if r + 1 < rows:
                graph.add_edge(index(r, c), index(r + 1, c), weight)
    return graph


def erdos_renyi(
    n: int,
    p: float,
    max_weight: float = 1.0,
    seed: RngLike = None,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """Erdos-Renyi ``G(n, p)`` with integer weights uniform in ``[1, max_weight]``."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = _rng(seed)
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                weight = float(rng.integers(1, max(2, int(max_weight)) + 1))
                graph.add_edge(u, v, weight)
    if ensure_connected and n > 1:
        _connect_components(graph, rng, max_weight)
    return graph


def random_flow_network(
    n: int,
    average_degree: float = 4.0,
    max_capacity: int = 16,
    max_cost: int = 8,
    seed: RngLike = None,
) -> FlowNetwork:
    """Random connected flow network with integral capacities and costs.

    The source is vertex ``0`` and the sink is vertex ``n - 1``.  A directed
    Hamiltonian-ish backbone guarantees that the sink is reachable from the
    source so the maximum flow value is positive.
    """
    if n < 2:
        raise ValueError(f"a flow network needs at least 2 vertices, got {n}")
    rng = _rng(seed)
    net = FlowNetwork(n, source=0, sink=n - 1)
    order = list(range(1, n - 1))
    rng.shuffle(order)
    backbone = [0] + order + [n - 1]
    for a, b in zip(backbone[:-1], backbone[1:]):
        net.add_edge(a, b, float(rng.integers(1, max_capacity + 1)), float(rng.integers(0, max_cost + 1)))
    p = min(1.0, average_degree / max(1, n - 1))
    for u in range(n):
        for v in range(n):
            if u == v or net.has_edge(u, v):
                continue
            if v == net.source or u == net.sink:
                continue
            if rng.random() < p:
                net.add_edge(u, v, float(rng.integers(1, max_capacity + 1)), float(rng.integers(0, max_cost + 1)))
    return net


def random_regular_expander(n: int, degree: int = 8, seed: RngLike = None) -> WeightedGraph:
    """Random near-regular multigraph-free expander via repeated matchings."""
    rng = _rng(seed)
    if degree >= n:
        return complete_graph(n)
    graph = WeightedGraph(n)
    attempts = 0
    while graph.m == 0 or min(degrees(graph)) < degree:
        attempts += 1
        if attempts > 20 * degree:
            break
        perm = rng.permutation(n)
        for i in range(0, n - 1, 2):
            u, v = int(perm[i]), int(perm[i + 1])
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, 1.0)
    _connect_components(graph, rng, 1.0)
    return graph


def weighted_graph_with_bounded_weights(
    n: int, max_weight: int, seed: RngLike = None
) -> WeightedGraph:
    """Connected graph whose weights exercise the ``log W`` terms of Lemma 3.2."""
    rng = _rng(seed)
    graph = random_weighted_graph(n, average_degree=max(3.0, math.log2(max(2, n))), max_weight=max_weight, seed=rng)
    return graph


def watts_strogatz(
    n: int,
    k: int = 4,
    beta: float = 0.1,
    weight: float = 1.0,
    seed: RngLike = None,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """Watts-Strogatz small-world graph: ring lattice with random rewiring.

    Every vertex starts connected to its ``k`` nearest ring neighbours
    (``k`` even); each lattice edge is then rewired with probability ``beta``
    to a uniformly random non-duplicate endpoint.  ``beta = 0`` is the pure
    lattice, ``beta = 1`` close to a random graph.  Components are joined by
    edges of the same uniform ``weight``.
    """
    if k % 2 != 0:
        raise ValueError(f"lattice degree k must be even, got {k}")
    if not (2 <= k < n):
        raise ValueError(f"lattice degree k must lie in [2, n), got k={k}, n={n}")
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"rewiring probability must lie in [0, 1], got {beta}")
    rng = _rng(seed)
    graph = WeightedGraph(n)
    for v in range(n):
        for j in range(1, k // 2 + 1):
            graph.add_edge(v, (v + j) % n, weight)
    for v in range(n):
        for j in range(1, k // 2 + 1):
            target = (v + j) % n
            if rng.random() >= beta or not graph.has_edge(v, target):
                continue
            candidate = int(rng.integers(n))
            if candidate == v or graph.has_edge(v, candidate):
                continue  # keep the lattice edge rather than retry (standard WS)
            graph.remove_edge(v, target)
            graph.add_edge(v, candidate, weight)
    if ensure_connected:
        # _connect_components' draws minus its weight draw
        merged = set()
        for component in graph.connected_components():
            if merged:
                u = int(rng.choice(sorted(merged)))
                graph.add_edge(u, int(rng.choice(sorted(component))), weight)
            merged |= component
    return graph


def graph_from_edges(n: int, edges) -> WeightedGraph:
    """A graph on ``n`` vertices built by ``add_edge`` over ``(u, v, weight)`` triples."""
    graph = WeightedGraph(n)
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    return graph


def network_from_arcs(n: int, source: int, sink: int, arcs) -> FlowNetwork:
    """A flow network built by ``add_edge`` over ``(u, v, capacity, cost)`` arcs."""
    network = FlowNetwork(n, source, sink)
    for u, v, capacity, cost in arcs:
        network.add_edge(u, v, capacity, cost)
    return network


def path_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Path on ``n`` vertices with uniform edge weight."""
    graph = WeightedGraph(n)
    for v in range(n - 1):
        graph.add_edge(v, v + 1, weight)
    return graph


def cycle_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    graph = path_graph(n, weight)
    graph.add_edge(n - 1, 0, weight)
    return graph


def star_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Star with centre 0 and ``n - 1`` leaves."""
    graph = WeightedGraph(n)
    for v in range(1, n):
        graph.add_edge(0, v, weight)
    return graph


def barbell_graph(clique_size: int, path_length: int = 1) -> WeightedGraph:
    """Two cliques of ``clique_size`` vertices joined by a path -- a classic
    bad case for uniform edge sampling and a good sparsifier stress test."""
    n = 2 * clique_size + max(0, path_length - 1)
    graph = WeightedGraph(n)
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            graph.add_edge(u, v, 1.0)
    offset = clique_size + max(0, path_length - 1)
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            graph.add_edge(offset + u, offset + v, 1.0)
    # the connecting path
    previous = clique_size - 1
    for i in range(max(0, path_length - 1)):
        middle = clique_size + i
        graph.add_edge(previous, middle, 1.0)
        previous = middle
    graph.add_edge(previous, offset, 1.0)
    return graph


def degrees(graph: WeightedGraph) -> list:
    """Number of edges incident to each vertex, indexed by vertex."""
    counts = [0] * graph.n
    for u, v, _ in edge_list(graph):
        counts[u] += 1
        counts[v] += 1
    return counts


def neighbours(graph: WeightedGraph, vertex: int) -> set:
    """The vertices sharing an edge with ``vertex``."""
    return {v if u == vertex else u for u, v, _ in edge_list(graph) if vertex in (u, v)}


def to_networkx(graph: WeightedGraph):
    """``graph`` as a ``networkx.Graph`` with ``weight`` attributes."""
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.n))
    nx_graph.add_weighted_edges_from(edge_list(graph))
    return nx_graph


def edge_list(graph: WeightedGraph) -> list:
    """All edges as sorted ``(u, v, weight)`` triples with ``u < v``."""
    return [(edge.u, edge.v, edge.weight) for edge in graph.edges()]
