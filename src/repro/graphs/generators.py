"""Graph generators for tests, examples and benchmark workloads.

All generators take a ``seed`` (or a ``numpy.random.Generator``) so that every
experiment in ``docs/benchmarks.md`` is reproducible.  The random pair
generators (:func:`erdos_renyi`, :func:`random_flow_network`) scan their
``O(n^2)`` candidate pairs in array code but draw exactly what a per-pair
``rng.random() < p`` loop draws (see :class:`_ScalarReplay`), so a seed gives
the same graph, and leaves the same generator state, at any speed.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Union

import numpy as np

from repro.graphs.digraph import FlowNetwork
from repro.graphs.graph import WeightedGraph

RngLike = Union[int, np.random.Generator, None]

#: Raw words per ``random_raw`` block of :class:`_ScalarReplay` (64 KiB), so a
#: replay's transient stays near 100 KB however many pairs it scans.
BLOCK_WORDS = 1 << 13


def _rng(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class _ScalarReplay:
    """Replays a ``Generator``'s scalar ``random()`` / ``integers()`` calls from raw words.

    A per-pair loop ``if rng.random() < p: rng.integers(low, high)`` spends
    its time in the rejected pairs.  This replays the same call sequence from
    ``bit_generator.random_raw`` blocks, bit for bit, so that only accepted
    pairs cost Python time:

    * ``random()`` is one raw word ``x`` read as ``(x >> 11) * 2**-53``, so
      ``random() < p`` is the whole-block integer test ``x < ceil(p * 2**53) << 11``;
    * ``integers(low, high)`` over a range of at most ``2**32`` values takes
      one uint32 through the bit generator's ``has_uint32`` buffer (the low
      half of a fresh word, then the buffered high half) and maps it with
      Lemire's multiply-shift and rejection, as numpy does; wider ranges take
      whole words.

    :meth:`close` rewinds the bit generator to exactly the words consumed and
    hands back the half-word buffer, so every later draw on ``rng`` is what it
    would have been after the scalar loop.  A bit generator with no
    ``has_uint32`` buffer (``MT19937``) is refused with ``TypeError``.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        state = bitgen.state
        if "has_uint32" not in state:
            raise TypeError(
                f"{state['bit_generator']} keeps no uint32 buffer, so its scalar "
                "draws cannot be replayed; pass a PCG64-family Generator"
            )
        self._bitgen = bitgen
        self._has_half = state["has_uint32"]
        self._half = state["uinteger"]
        self._rewind: Optional[dict] = None  # bit generator state before this block
        self._block = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._refills = 0

    def _refill(self) -> None:
        self._rewind = self._bitgen.state
        self._block = self._bitgen.random_raw(BLOCK_WORDS)
        self._pos = 0
        self._refills += 1

    def _word(self) -> int:
        if self._pos == self._block.size:
            self._refill()
        word = int(self._block[self._pos])
        self._pos += 1
        return word

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        word = self._word()
        self._has_half, self._half = 1, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: int) -> int:
        """``rng.integers(low, high)`` (``high`` exclusive), drawn from the replayed stream."""
        low, high = int(low), int(high)  # numpy truncates float bounds too
        span = high - 1 - low
        if span == 0:
            return low  # numpy draws nothing for a one-value range
        bits, draw = (32, self._uint32) if span <= 0xFFFFFFFF else (64, self._word)
        excl = span + 1
        threshold = ((1 << bits) - excl) % excl
        low_bits = (1 << bits) - 1
        product = draw() * excl
        while product & low_bits < threshold:
            product = draw() * excl
        return low + (product >> bits)

    def successes(self, trials: int, p: float) -> Iterator[int]:
        """Yield each ``t < trials`` at which a ``rng.random() < p`` loop succeeds.

        Every trial takes one word.  Draws the caller makes between two yields
        take the words that follow the success, as they would in the loop.
        """
        # p >= 1: every double in [0, 1) passes
        limit = None if p >= 1.0 else np.uint64(math.ceil(p * 2.0**53) << 11)
        remaining = trials
        while remaining:
            if self._pos == self._block.size:
                self._refill()
            refills, block = self._refills, self._block
            if limit is None:
                hits = range(self._pos, block.size)
            else:
                hits = (np.flatnonzero(block[self._pos :] < limit) + self._pos).tolist()
            for hit in hits:
                if hit < self._pos:
                    continue  # a word the caller's draws took
                if hit - self._pos >= remaining:
                    break
                remaining -= hit - self._pos + 1
                self._pos = hit + 1
                yield trials - remaining - 1
                if self._refills != refills:
                    break  # the caller's draws crossed into a new block: scan it
            if self._refills == refills:
                taken = min(block.size - self._pos, remaining)
                self._pos += taken
                remaining -= taken

    def close(self) -> None:
        """Leave the bit generator exactly where the scalar calls would have."""
        if self._rewind is not None:
            self._bitgen.state = self._rewind
            self._bitgen.random_raw(self._pos, output=False)
        state = self._bitgen.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        self._bitgen.state = state


def _connect_components(
    graph: WeightedGraph,
    rng: np.random.Generator,
    max_weight: float,
) -> None:
    """Add random edges between components in one sweep until connected.

    One components pass instead of the previous quadratic recompute-per-edge
    loop.  The rng call sequence is kept identical to the old implementation
    (seed stability): each step draws ``choice`` over the sorted merged
    component (which always contains vertex 0, hence always comes first in a
    recomputed component list), then ``choice`` over the sorted next component,
    then ``integers`` for the weight.
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
        weight = float(rng.integers(1, max(2, int(max_weight)) + 1))
        graph.add_edge(u, v, weight)
        merged_set |= component
        merged = sorted(merged_set)


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Complete graph ``K_n`` with uniform weights."""
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v, weight)
    return graph


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> WeightedGraph:
    """``rows x cols`` grid graph; vertex ``r * cols + c`` sits at row ``r``, column ``c``.

    Edges go in row-major order, each vertex's right edge before its down edge.
    """
    graph = WeightedGraph(rows * cols)
    r, c = np.indices((max(rows, 0), max(cols, 0)))
    index = r * cols + c
    u = np.stack([index, index], axis=-1)
    v = np.stack([index + 1, index + cols], axis=-1)
    present = np.stack([c + 1 < cols, r + 1 < rows], axis=-1)
    graph.add_edges(u[present], v[present], weight)
    return graph


def erdos_renyi(
    n: int,
    p: float,
    max_weight: float = 1.0,
    seed: RngLike = None,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """Erdos-Renyi ``G(n, p)`` with integer weights uniform in ``[1, max(2, int(max_weight))]``.

    The weight range is never narrower than ``{1, 2}`` and a fractional bound
    is floored: the default ``max_weight = 1.0`` draws weights 1 and 2.  Pairs
    ``u < v`` are drawn in row-major order, one ``rng.random() < p`` each and
    one ``rng.integers`` weight per accepted pair (replayed in array code by
    :class:`_ScalarReplay`); ``ensure_connected`` then joins the components
    with further weighted edges.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = _rng(seed)
    graph = WeightedGraph(n)
    high = max(2, int(max_weight)) + 1
    replay = _ScalarReplay(rng)
    pairs, weights = [], []
    for t in replay.successes(n * (n - 1) // 2, p):
        pairs.append(t)
        weights.append(replay.integers(1, high))
    replay.close()
    # pair index t -> (u, v): row u starts after u * (2n - u - 1) / 2 pairs
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    t = np.array(pairs, dtype=np.int64)
    u = np.searchsorted(starts, t, side="right") - 1
    graph.add_edges(u, t - starts[u] + u + 1, np.array(weights, dtype=np.float64))
    if ensure_connected and n > 1:
        _connect_components(graph, rng, max_weight)
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
    # Then one rng.random() < p per remaining ordered pair u -> v, row-major,
    # skipping self-loops, backbone edges, edges into the source and edges out
    # of the sink: row 0 draws for the n - 2 heads other than 0 and its
    # backbone successor, rows 1 .. n - 2 for the n - 3 heads other than 0, u
    # and the successor, so (n - 2)^2 draws in all.
    p = min(1.0, average_degree / max(1, n - 1))
    replay = _ScalarReplay(rng)
    pairs, capacities, costs = [], [], []
    for t in replay.successes((n - 2) ** 2, p):
        pairs.append(t)
        capacities.append(replay.integers(1, max_capacity + 1))
        costs.append(replay.integers(0, max_cost + 1))
    replay.close()
    successor = np.empty(n, dtype=np.int64)
    successor[backbone[:-1]] = backbone[1:]
    t = np.array(pairs, dtype=np.int64)
    in_row_zero = t < n - 2
    later = t - (n - 2)
    u = np.where(in_row_zero, 0, 1 + later // max(n - 3, 1))
    v = 1 + np.where(in_row_zero, t, later % max(n - 3, 1))
    # then step over the row's other excluded heads in ascending order (row 0
    # excludes only its successor; n is never reached)
    low_skip = np.where(in_row_zero, successor[0], np.minimum(u, successor[u]))
    high_skip = np.where(in_row_zero, n, np.maximum(u, successor[u]))
    v += v >= low_skip
    v += v >= high_skip
    for a, b, capacity, cost in zip(u.tolist(), v.tolist(), capacities, costs):
        net.add_edge(a, b, float(capacity), float(cost))
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

