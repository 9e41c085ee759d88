"""Directed capacitated graphs -- the flow instances of Sections 2.4 and 5.

A :class:`FlowNetwork` is a directed graph with positive integral capacities
and integral costs, plus designated source ``s`` and sink ``t``.  It provides
the LP building blocks used in Section 5 (edge-vertex incidence matrix with the
source row removed) and flow feasibility / value / cost checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np


@dataclass(frozen=True)
class DirectedEdge:
    """A directed edge ``u -> v`` with capacity and cost."""

    u: int
    v: int
    capacity: float = 1.0
    cost: float = 0.0

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self-loops are not allowed: ({self.u}, {self.v})")
        if self.capacity <= 0:
            raise ValueError(f"capacities must be positive, got {self.capacity}")


class FlowNetwork:
    """A directed graph with capacities, costs, a source and a sink.

    Vertices are ``0 .. n-1``.  Parallel edges (same ordered pair) are not
    allowed; anti-parallel edges are.
    """

    def __init__(
        self,
        n: int,
        source: int,
        sink: int,
        edges: Optional[Iterable[Tuple[int, int, float, float]]] = None,
    ):
        if n < 2:
            raise ValueError(f"a flow network needs at least 2 vertices, got {n}")
        if not (0 <= source < n) or not (0 <= sink < n):
            raise ValueError(f"source {source} / sink {sink} out of range [0, {n})")
        if source == sink:
            raise ValueError("source and sink must differ")
        self._n = int(n)
        self.source = int(source)
        self.sink = int(sink)
        self._edges: Dict[Tuple[int, int], DirectedEdge] = {}
        self._version = 0
        if edges is not None:
            for u, v, capacity, cost in edges:
                self.add_edge(u, v, capacity, cost)

    # -- construction ----------------------------------------------------------

    def add_edge(self, u: int, v: int, capacity: float, cost: float = 0.0) -> None:
        """Add the directed edge ``u -> v``; overwrites an existing one."""
        self._check_vertex(u)
        self._check_vertex(v)
        edge = DirectedEdge(u, v, float(capacity), float(cost))
        self._edges[(u, v)] = edge
        self._version += 1

    def copy(self) -> "FlowNetwork":
        g = FlowNetwork(self._n, self.source, self.sink)
        g._edges = dict(self._edges)
        return g

    @classmethod
    def from_networkx(cls, graph, source, sink) -> "FlowNetwork":
        """Convert a networkx.DiGraph with ``capacity``/``weight`` attributes."""
        mapping = {node: i for i, node in enumerate(sorted(graph.nodes()))}
        net = cls(graph.number_of_nodes(), mapping[source], mapping[sink])
        for u, v, data in graph.edges(data=True):
            net.add_edge(
                mapping[u],
                mapping[v],
                float(data.get("capacity", 1.0)),
                float(data.get("weight", data.get("cost", 0.0))),
            )
        return net

    def to_networkx(self):
        """Convert to networkx.DiGraph with ``capacity`` and ``weight`` attributes."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self._n))
        for (u, v), e in self._edges.items():
            graph.add_edge(u, v, capacity=e.capacity, weight=e.cost)
        return graph

    # -- queries ----------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self._edges)

    @property
    def version(self) -> int:
        """Mutation counter (incremented by every :meth:`add_edge`).

        The serving tier's registry uses it for cheap staleness checks, the
        same contract :class:`~repro.graphs.graph.WeightedGraph` offers.
        Flow networks keep no mutation journal, so a stale serve entry is
        always rebuilt rather than repaired.
        """
        return self._version

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edge data ``(u, v, capacity, cost)`` in :meth:`edge_keys` order.

        The content-addressed form the serving registry fingerprints.
        """
        keys = self.edge_keys()
        u = np.array([a for a, _ in keys], dtype=np.int64)
        v = np.array([b for _, b in keys], dtype=np.int64)
        capacity = np.array([self._edges[k].capacity for k in keys], dtype=float)
        cost = np.array([self._edges[k].cost for k in keys], dtype=float)
        return u, v, capacity, cost

    def vertices(self) -> range:
        return range(self._n)

    def edges(self) -> Iterator[DirectedEdge]:
        """Iterate over edges in canonical (sorted key) order."""
        for key in sorted(self._edges):
            yield self._edges[key]

    def edge_keys(self) -> List[Tuple[int, int]]:
        """Sorted list of ordered edge pairs (the LP's edge indexing)."""
        return sorted(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edges

    def edge(self, u: int, v: int) -> DirectedEdge:
        return self._edges[(u, v)]

    def capacities(self) -> np.ndarray:
        """Capacity vector indexed consistently with :meth:`edge_keys`."""
        return np.array([self._edges[k].capacity for k in self.edge_keys()], dtype=float)

    def costs(self) -> np.ndarray:
        """Cost vector indexed consistently with :meth:`edge_keys`."""
        return np.array([self._edges[k].cost for k in self.edge_keys()], dtype=float)

    def max_capacity(self) -> float:
        return float(max((e.capacity for e in self._edges.values()), default=0.0))

    def max_cost_magnitude(self) -> float:
        return float(max((abs(e.cost) for e in self._edges.values()), default=0.0))

    def out_neighbours(self, v: int) -> Set[int]:
        return {b for (a, b) in self._edges if a == v}

    def in_neighbours(self, v: int) -> Set[int]:
        return {a for (a, b) in self._edges if b == v}

    def underlying_undirected_adjacency(self) -> Dict[int, Set[int]]:
        """Adjacency of the underlying undirected graph (for BC-model topologies)."""
        adj: Dict[int, Set[int]] = {v: set() for v in range(self._n)}
        for (u, v) in self._edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    # -- incidence matrices -------------------------------------------------------

    def incidence_matrix(self, drop_vertex: Optional[int] = None) -> np.ndarray:
        """Edge-vertex incidence matrix ``B`` with ``B[e, head] = +1, B[e, tail] = -1``.

        Section 5 uses the matrix with the row (here: column) of the source
        removed; pass ``drop_vertex=self.source`` for that variant.  The result
        has shape ``(m, n)`` or ``(m, n-1)``.
        """
        keys = self.edge_keys()
        cols = [v for v in range(self._n) if v != drop_vertex]
        col_index = {v: i for i, v in enumerate(cols)}
        B = np.zeros((len(keys), len(cols)))
        for row, (u, v) in enumerate(keys):
            # edge u -> v: tail u gets -1, head v gets +1
            if u in col_index:
                B[row, col_index[u]] = -1.0
            if v in col_index:
                B[row, col_index[v]] = 1.0
        return B

    # -- flow semantics ------------------------------------------------------------

    def flow_conservation_violation(self, flow: Dict[Tuple[int, int], float]) -> float:
        """Maximum absolute violation of conservation at non-terminal vertices."""
        imbalance = np.zeros(self._n)
        for (u, v), f in flow.items():
            imbalance[u] -= f
            imbalance[v] += f
        mask = np.ones(self._n, dtype=bool)
        mask[self.source] = False
        mask[self.sink] = False
        return float(np.max(np.abs(imbalance[mask]))) if mask.any() else 0.0

    def is_feasible_flow(self, flow: Dict[Tuple[int, int], float], tol: float = 1e-6) -> bool:
        """Check capacity and conservation constraints up to ``tol``."""
        for key, f in flow.items():
            if key not in self._edges:
                return False
            if f < -tol or f > self._edges[key].capacity + tol:
                return False
        return self.flow_conservation_violation(flow) <= tol

    def flow_value(self, flow: Dict[Tuple[int, int], float]) -> float:
        """Net flow out of the source."""
        out_flow = sum(f for (u, _v), f in flow.items() if u == self.source)
        in_flow = sum(f for (_u, v), f in flow.items() if v == self.source)
        return float(out_flow - in_flow)

    def flow_cost(self, flow: Dict[Tuple[int, int], float]) -> float:
        """Total cost ``sum_e q_e f_e``."""
        return float(sum(self._edges[key].cost * f for key, f in flow.items() if key in self._edges))

    def zero_flow(self) -> Dict[Tuple[int, int], float]:
        """The all-zeros flow."""
        return {key: 0.0 for key in self.edge_keys()}

    # -- dunder ---------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"FlowNetwork(n={self._n}, m={self.m}, source={self.source}, sink={self.sink})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowNetwork):
            return NotImplemented
        return (
            self._n == other._n
            and self.source == other.source
            and self.sink == other.sink
            and self._edges == other._edges
        )

    # equality is structural, identity-hash keeps networks usable as dict keys
    __hash__ = object.__hash__

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
