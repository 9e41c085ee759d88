"""Graph generators for tests, examples and benchmark workloads.

All generators take a ``seed`` (or a ``numpy.random.Generator``) so that every
experiment in ``docs/benchmarks.md`` is reproducible.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.graphs.digraph import FlowNetwork
from repro.graphs.graph import WeightedGraph

RngLike = Union[int, np.random.Generator, None]


def _rng(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _connect_components(
    graph: WeightedGraph,
    rng: np.random.Generator,
    max_weight: float,
    fixed_weight: Optional[float] = None,
) -> None:
    """Add random edges between components in one sweep until connected.

    One components pass instead of the previous quadratic recompute-per-edge
    loop.  The rng call sequence is kept identical to the old implementation
    (seed stability): each step draws ``choice`` over the sorted merged
    component (which always contains vertex 0, hence always comes first in a
    recomputed component list), then ``choice`` over the sorted next component,
    then ``integers`` for the weight.

    ``fixed_weight`` bypasses the integer weight draw for generators whose
    contract is a uniform edge weight (e.g. :func:`watts_strogatz`); their
    repair edges must carry the same weight as every other edge.
    """
    components = graph.connected_components()
    if len(components) <= 1:
        return
    merged = sorted(components[0])
    merged_set = set(components[0])
    for component in components[1:]:
        second = sorted(component)
        u = int(rng.choice(merged))
        v = int(rng.choice(second))
        if fixed_weight is not None:
            weight = float(fixed_weight)
        else:
            weight = float(rng.integers(1, max(2, int(max_weight)) + 1))
        graph.add_edge(u, v, weight)
        merged_set |= component
        merged = sorted(merged_set)


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


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Complete graph ``K_n`` with uniform weights."""
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v, weight)
    return graph


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


def random_regular_expander(n: int, degree: int = 8, seed: RngLike = None) -> WeightedGraph:
    """Random near-regular multigraph-free expander via repeated matchings."""
    rng = _rng(seed)
    if degree >= n:
        return complete_graph(n)
    graph = WeightedGraph(n)
    attempts = 0
    while graph.min_weight() == 0.0 or any(graph.degree(v) < degree for v in range(n)):
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


def barabasi_albert(
    n: int,
    attach: int = 3,
    weight: float = 1.0,
    seed: RngLike = None,
) -> WeightedGraph:
    """Barabasi-Albert preferential attachment graph (power-law degrees).

    Starts from a clique on ``attach + 1`` vertices; every later vertex
    attaches to ``attach`` distinct existing vertices chosen with probability
    proportional to their current degree (the classic repeated-endpoints
    urn).  The result is connected by construction and has the heavy-tailed
    degree distribution that stresses uniform-sampling sparsifiers -- the
    serving benchmarks use it as the "scale-free" workload.
    """
    if attach < 1:
        raise ValueError(f"attachment count must be >= 1, got {attach}")
    if n <= attach + 1:
        return complete_graph(n, weight)
    rng = _rng(seed)
    graph = WeightedGraph(n)
    # urn of edge endpoints: each vertex appears once per incident edge
    urn: list = []
    for u in range(attach + 1):
        for v in range(u + 1, attach + 1):
            graph.add_edge(u, v, weight)
            urn.extend((u, v))
    for v in range(attach + 1, n):
        targets: set = set()
        while len(targets) < attach:
            targets.add(int(urn[int(rng.integers(len(urn)))]))
        for t in sorted(targets):
            graph.add_edge(v, t, weight)
            urn.extend((v, t))
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
    lattice (long shortest paths), ``beta = 1`` close to a random graph; the
    small-``beta`` regime keeps high clustering with short paths, a workload
    shape neither grids nor Erdos-Renyi graphs cover.
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
        _connect_components(graph, rng, weight, fixed_weight=weight)
    return graph


def random_weighted_graph(
    n: int,
    average_degree: float = 6.0,
    max_weight: float = 16.0,
    seed: RngLike = None,
) -> WeightedGraph:
    """Connected random graph with the given expected average degree."""
    p = min(1.0, average_degree / max(1, n - 1))
    return erdos_renyi(n, p, max_weight=max_weight, seed=seed, ensure_connected=True)


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


def layered_flow_network(
    layers: int,
    width: int,
    max_capacity: int = 10,
    max_cost: int = 5,
    seed: RngLike = None,
) -> FlowNetwork:
    """A layered DAG flow network: source -> layer_1 -> ... -> layer_k -> sink.

    This is the workload the paper's introduction motivates (routing through a
    network with bounded link capacities and per-link costs).
    """
    rng = _rng(seed)
    n = 2 + layers * width
    net = FlowNetwork(n, source=0, sink=n - 1)

    def node(layer: int, i: int) -> int:
        return 1 + layer * width + i

    for i in range(width):
        net.add_edge(0, node(0, i), float(rng.integers(1, max_capacity + 1)), float(rng.integers(0, max_cost + 1)))
        net.add_edge(node(layers - 1, i), n - 1, float(rng.integers(1, max_capacity + 1)), float(rng.integers(0, max_cost + 1)))
    for layer in range(layers - 1):
        for i in range(width):
            for j in range(width):
                if rng.random() < 0.7:
                    net.add_edge(
                        node(layer, i),
                        node(layer + 1, j),
                        float(rng.integers(1, max_capacity + 1)),
                        float(rng.integers(0, max_cost + 1)),
                    )
    # make sure every layer node has at least one outgoing edge forward
    for layer in range(layers - 1):
        for i in range(width):
            if not any(net.has_edge(node(layer, i), node(layer + 1, j)) for j in range(width)):
                net.add_edge(
                    node(layer, i),
                    node(layer + 1, int(rng.integers(0, width))),
                    float(rng.integers(1, max_capacity + 1)),
                    float(rng.integers(0, max_cost + 1)),
                )
    return net


def weighted_graph_with_bounded_weights(
    n: int, max_weight: int, seed: RngLike = None
) -> WeightedGraph:
    """Connected graph whose weights exercise the ``log W`` terms of Lemma 3.2."""
    rng = _rng(seed)
    graph = random_weighted_graph(n, average_degree=max(3.0, math.log2(max(2, n))), max_weight=max_weight, seed=rng)
    return graph
