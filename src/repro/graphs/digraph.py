"""Directed capacitated graphs -- the flow instances of Sections 2.4 and 5.

A :class:`FlowNetwork` is a directed graph with positive integral capacities
and integral costs, plus designated source ``s`` and sink ``t``.  It provides
the LP building blocks used in Section 5 (the LP's column map and the
edge-vertex incidence matrix through it) and a flow's value and cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp


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
        # NaN passes every ordered comparison, so finiteness is checked first
        if not (math.isfinite(self.capacity) and math.isfinite(self.cost)):
            raise ValueError(
                f"edge ({self.u}, {self.v}) needs a finite capacity and cost, "
                f"got {self.capacity} and {self.cost}"
            )
        if self.capacity <= 0:
            raise ValueError(f"capacities must be positive, got {self.capacity}")
        # the flow LP's perturbation and its optimality certificate both rely
        # on integral data (docs/substitutions.md section 6)
        if not (float(self.capacity).is_integer() and float(self.cost).is_integer()):
            raise ValueError(
                f"edge ({self.u}, {self.v}) needs an integral capacity and cost, "
                f"got {self.capacity} and {self.cost}"
            )


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
        self._edge_array: Optional[Tuple[int, Tuple[np.ndarray, ...]]] = None

    # -- construction ----------------------------------------------------------

    def add_edge(self, u: int, v: int, capacity: float, cost: float = 0.0) -> None:
        """Add the directed edge ``u -> v``; overwrites an existing one."""
        self._check_vertex(u)
        self._check_vertex(v)
        edge = DirectedEdge(u, v, float(capacity), float(cost))
        self._edges[(u, v)] = edge
        self._version += 1

    def copy(self) -> "FlowNetwork":
        """Copy with the same terminals and edges (edges are immutable, so shared)."""
        g = FlowNetwork(self._n, self.source, self.sink)
        g._edges = dict(self._edges)
        return g

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

        The content-addressed form the serving registry fingerprints.  The
        columns are read-only and cached per :attr:`version`: the flow LP,
        its Gram structure and the fingerprint all read them.
        """
        if self._edge_array is None or self._edge_array[0] != self._version:
            keys = self.edge_keys()
            edges = [self._edges[k] for k in keys]
            columns = (
                np.array([a for a, _ in keys], dtype=np.int64),
                np.array([b for _, b in keys], dtype=np.int64),
                np.array([e.capacity for e in edges], dtype=float),
                np.array([e.cost for e in edges], dtype=float),
            )
            for column in columns:
                column.setflags(write=False)
            self._edge_array = (self._version, columns)
        return self._edge_array[1]

    def edges(self) -> Iterator[DirectedEdge]:
        """Iterate over edges in canonical (sorted key) order."""
        for key in sorted(self._edges):
            yield self._edges[key]

    def edge_keys(self) -> List[Tuple[int, int]]:
        """Sorted list of ordered edge pairs (the LP's edge indexing)."""
        return sorted(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists."""
        return (u, v) in self._edges

    def edge(self, u: int, v: int) -> DirectedEdge:
        """The directed edge ``u -> v``; raises ``KeyError`` if absent."""
        return self._edges[(u, v)]

    def capacities(self) -> np.ndarray:
        """Capacity vector indexed consistently with :meth:`edge_keys`."""
        return self.edge_array()[2].copy()

    def costs(self) -> np.ndarray:
        """Cost vector indexed consistently with :meth:`edge_keys`."""
        return self.edge_array()[3].copy()

    def max_capacity(self) -> float:
        """Largest edge capacity ``U``, or 0.0 for an edgeless network."""
        return float(max((e.capacity for e in self._edges.values()), default=0.0))

    def max_cost_magnitude(self) -> float:
        """Largest ``|cost|`` over the edges ``Q``, or 0.0 for an edgeless network."""
        return float(max((abs(e.cost) for e in self._edges.values()), default=0.0))

    # -- incidence matrices -------------------------------------------------------

    def lp_columns(self) -> np.ndarray:
        """The flow LP's constraint column of every vertex, ``-1`` where it has none.

        Section 5 drops the source's conservation row (it is the ground of
        the Gram system).  A vertex no arc touches has no constraint either:
        its column would be all zeros, ``A`` rank-deficient and the Gram
        system singular.  The sink always keeps its column, because the
        flow-value variable attaches to it.  Columns follow vertex order.
        """
        u, v, _capacity, _cost = self.edge_array()
        touched = np.zeros(self._n, dtype=bool)
        touched[u] = True
        touched[v] = True
        touched[self.sink] = True
        touched[self.source] = False
        columns = np.full(self._n, -1, dtype=np.int64)
        columns[touched] = np.arange(np.count_nonzero(touched))
        return columns

    def incidence_matrix(self) -> sp.csr_matrix:
        """Edge-vertex incidence matrix ``B`` of the flow LP, in CSR form.

        Row ``e`` of edge ``u -> v`` (in :meth:`edge_keys` order) holds
        ``-1`` in the tail's column and ``+1`` in the head's, through the
        column map :meth:`lp_columns`, so the source and every arc-less
        vertex have no column.
        """
        u, v, _capacity, _cost = self.edge_array()
        columns = self.lp_columns()
        rows = np.arange(u.size)
        tail, head = columns[u], columns[v]
        has_tail, has_head = tail >= 0, head >= 0
        return sp.csr_matrix(
            (
                np.concatenate([-np.ones(has_tail.sum()), np.ones(has_head.sum())]),
                (
                    np.concatenate([rows[has_tail], rows[has_head]]),
                    np.concatenate([tail[has_tail], head[has_head]]),
                ),
            ),
            shape=(u.size, int(columns.max()) + 1),
        )

    # -- flow semantics ------------------------------------------------------------

    def flow_value(self, flow: Dict[Tuple[int, int], float]) -> float:
        """Net flow out of the source."""
        out_flow = sum(f for (u, _v), f in flow.items() if u == self.source)
        in_flow = sum(f for (_u, v), f in flow.items() if v == self.source)
        return float(out_flow - in_flow)

    def flow_cost(self, flow: Dict[Tuple[int, int], float]) -> float:
        """Total cost ``sum_e q_e f_e``."""
        return float(sum(self._edges[key].cost * f for key, f in flow.items() if key in self._edges))

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
