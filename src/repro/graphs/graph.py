"""Weighted undirected graphs.

The central data structure of Sections 2-3: an undirected graph with positive
real edge weights, vertices identified by integers ``0..n-1`` (the integer
doubles as the O(log n)-bit identifier of the corresponding processor).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

#: Default bound on the per-graph mutation journal (see
#: :meth:`WeightedGraph.delta_since`).  Repair consumers only ever care about
#: short deltas -- a delta longer than the serving layer's repair limit forces
#: a rebuild anyway -- so the journal trades completeness for O(1) memory:
#: once it overflows, deltas reaching past the retained window report as
#: unavailable (``None``) instead of growing without bound.
JOURNAL_LIMIT = 1024


def canonical_edge(u: int, v: int) -> Tuple[int, int]:
    """Canonical (sorted) representation of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Edge:
    """An undirected weighted edge between ``u`` and ``v``."""

    u: int
    v: int
    weight: float = 1.0

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self-loops are not allowed: ({self.u}, {self.v})")
        if self.weight <= 0:
            raise ValueError(f"edge weights must be positive, got {self.weight}")

    @property
    def key(self) -> Tuple[int, int]:
        """Canonical (u, v) with u < v."""
        return canonical_edge(self.u, self.v)

    def other(self, vertex: int) -> int:
        """The endpoint different from ``vertex``."""
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge ({self.u}, {self.v})")


@dataclass(frozen=True)
class MutationRecord:
    """One journal entry: what a single mutator call did to a single edge.

    ``version`` is the graph version *after* the mutation (one
    :meth:`WeightedGraph.add_edges` call bumps the version once but may emit
    several records sharing that version).  ``op`` is one of ``"add"`` (a new
    edge; ``prev_weight`` is ``None``), ``"update"`` (an existing edge
    reweighted; both weights recorded) or ``"remove"`` (``weight`` is ``None``
    and ``prev_weight`` is the removed weight).  ``u < v`` is canonical.
    """

    version: int
    op: str
    u: int
    v: int
    weight: Optional[float]
    prev_weight: Optional[float]

    @property
    def weight_delta(self) -> float:
        """Signed weight change on the Laplacian: ``w_new - w_old`` (0 for absent)."""
        new = self.weight if self.weight is not None else 0.0
        old = self.prev_weight if self.prev_weight is not None else 0.0
        return new - old


class WeightedGraph:
    """An undirected graph with positive edge weights.

    Vertices are the integers ``0 .. n-1``.  Parallel edges are not allowed;
    adding an existing edge overwrites its weight.
    """

    def __init__(self, n: int, edges: Optional[Iterable[Tuple[int, int, float]]] = None):
        if n < 1:
            raise ValueError(f"graph must have at least one vertex, got n={n}")
        self._n = int(n)
        self._weights: Dict[Tuple[int, int], float] = {}
        self._adj: Dict[int, Set[int]] = {v: set() for v in range(self._n)}
        # (version, packed keys u*n+v, u, v, w): see edge_array and _touch
        self._edge_arrays: Optional[tuple] = None
        self._laplacian_csr: Optional[sp.csr_matrix] = None
        self._version = 0
        self._journal: Deque[MutationRecord] = deque()
        self._journal_floor = 0
        if edges is not None:
            for u, v, w in edges:
                self.add_edge(u, v, w)

    # -- construction ---------------------------------------------------------

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or overwrite) the undirected edge ``{u, v}`` with ``weight``."""
        self._check_vertex(u)
        self._check_vertex(v)
        if weight <= 0:
            raise ValueError(f"edge weights must be positive, got {weight}")
        key = canonical_edge(u, v)
        prev = self._weights.get(key)
        self._weights[key] = float(weight)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._touch(key, float(weight))
        self._journal_append(
            MutationRecord(
                version=self._version,
                op="add" if prev is None else "update",
                u=key[0],
                v=key[1],
                weight=float(weight),
                prev_weight=prev,
            )
        )

    def add_edges(self, u, v, weight=1.0) -> None:
        """Vectorised bulk form of :meth:`add_edge`.

        ``u`` and ``v`` are aligned integer array-likes; ``weight`` is either a
        scalar or an aligned array of positive weights.  Validation matches the
        scalar path (range checks, no self-loops, positive weights) but runs as
        whole-array predicates, and the weight dictionary is filled with one
        bulk ``update`` instead of ``m`` Python-level calls.  Duplicate pairs
        within one batch behave like repeated ``add_edge``: the last one wins.
        """
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValueError(f"endpoint arrays must align, got {u.shape} vs {v.shape}")
        if u.size == 0:
            return
        w = np.broadcast_to(np.asarray(weight, dtype=np.float64), u.shape)
        if int(min(u.min(), v.min())) < 0 or int(max(u.max(), v.max())) >= self._n:
            raise ValueError(f"edge endpoints out of range [0, {self._n})")
        if np.any(u == v):
            bad = int(u[np.argmax(u == v)])
            raise ValueError(f"self-loops are not allowed: ({bad}, {bad})")
        if np.any(w <= 0):
            raise ValueError(
                f"edge weights must be positive, got {float(w[np.argmax(w <= 0)])}"
            )
        lo = np.minimum(u, v).tolist()
        hi = np.maximum(u, v).tolist()
        weights = w.tolist()
        # content first, version bump second, as in the single-edge mutators:
        # an edge_array snapshot a reader takes mid-batch carries the old
        # version, so it is never cached as the new content
        if len(lo) > JOURNAL_LIMIT:
            # a bulk mutation larger than the journal window cannot be
            # replayed anyway: drop the journal and mark deltas reaching past
            # this version as unavailable, instead of paying a per-edge
            # record on the vectorised path
            self._journal.clear()
            self._journal_floor = self._version + 1
            self._weights.update(zip(zip(lo, hi), weights))
            self._touch()
        else:
            weight_dict = self._weights
            prevs = []
            for key, weight in zip(zip(lo, hi), weights):
                prevs.append(weight_dict.get(key))
                weight_dict[key] = weight
            self._touch()
            version = self._version
            for a, b, weight, prev in zip(lo, hi, weights, prevs):
                self._journal_append(
                    MutationRecord(
                        version=version,
                        op="add" if prev is None else "update",
                        u=a,
                        v=b,
                        weight=weight,
                        prev_weight=prev,
                    )
                )
        adj = self._adj
        for a, b in zip(lo, hi):
            adj[a].add(b)
            adj[b].add(a)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge ``{u, v}``.

        Raises ``ValueError`` for out-of-range vertices (like every other
        mutator) and ``KeyError`` if the edge is absent.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        key = canonical_edge(u, v)
        prev = self._weights.pop(key)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._touch(key)
        self._journal_append(
            MutationRecord(
                version=self._version,
                op="remove",
                u=key[0],
                v=key[1],
                weight=None,
                prev_weight=prev,
            )
        )

    def _touch(self, key: Optional[Tuple[int, int]] = None, weight: Optional[float] = None) -> None:
        """The one mutation hook: bump the version, drop the CSR Laplacian.

        The cached :meth:`edge_array` columns are patched for a single-edge
        mutation of ``key`` (set to ``weight``; ``None`` removes it) in O(m)
        C-level copies -- one ``searchsorted`` on the packed key ``u*n + v``,
        then one insert, delete or assign into fresh read-only columns, so a
        holder of the old columns keeps an immutable snapshot.  Bulk
        mutations (``key=None``) drop them.  Columns tagged with another
        version than the one this mutation starts from (a concurrent reader
        cached them mid-mutation) are dropped rather than patched.
        """
        cached = self._edge_arrays
        version = self._version + 1
        self._version = version
        self._laplacian_csr = None
        self._edge_arrays = None
        if key is None or cached is None or cached[0] != version - 1:
            return
        keys, u, v, w = cached[1:]
        packed = key[0] * self._n + key[1]
        pos = int(np.searchsorted(keys, packed))
        present = pos < keys.size and keys[pos] == packed
        if weight is None:
            columns = [np.delete(c, pos) for c in (keys, u, v, w)] if present else [keys, u, v, w]
        elif present:
            w = w.copy()
            w[pos] = weight
            columns = [keys, u, v, w]
        else:
            row = (packed, key[0], key[1], weight)
            columns = [np.insert(c, pos, x) for c, x in zip((keys, u, v, w), row)]
        for column in columns:
            column.setflags(write=False)
        self._edge_arrays = (version, *columns)

    def copy(self) -> "WeightedGraph":
        """Deep copy of this graph."""
        g = WeightedGraph(self._n)
        g._weights = dict(self._weights)
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._version = self._version
        g._journal = deque(self._journal)
        g._journal_floor = self._journal_floor
        return g

    def to_networkx(self):
        """Convert to a networkx.Graph with ``weight`` attributes."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._n))
        for (u, v), w in self._weights.items():
            graph.add_edge(u, v, weight=w)
        return graph

    # -- queries ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._weights)

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Bumped by every mutator (:meth:`add_edge`, :meth:`add_edges`,
        :meth:`remove_edge`), so a holder of a graph reference -- e.g. the
        serving layer's :class:`repro.serve.registry.GraphRegistry` -- can
        detect that cached artifacts (sparsifiers, factorisations) built
        against an earlier state of this object are stale instead of silently
        serving them.
        """
        return self._version

    def delta_since(self, version: int) -> Optional[List[MutationRecord]]:
        """Journal of mutations applied after ``version``, oldest first.

        The serving layer uses this to *diff* two versions of a registered
        graph instead of refingerprinting: a short delta lets cached artifacts
        (factorisations, resistance oracles, embeddings) be repaired with
        low-rank updates rather than rebuilt from scratch.

        Returns ``[]`` when ``version`` is the current version, the list of
        :class:`MutationRecord` entries with ``record.version > version``
        otherwise, and ``None`` when the delta cannot be reconstructed -- the
        requested version lies in the future, or the bounded journal (at most
        :data:`JOURNAL_LIMIT` records; bulk :meth:`add_edges` calls larger
        than the window drop it entirely) no longer reaches back that far.
        ``None`` means "rebuild", never "no change".

        The answer is complete-or-``None`` even when mutators run on another
        thread (the serving tier reads deltas on its flush thread while user
        threads keep mutating): the journal deque is snapshotted in one
        C-level copy *before* the floor/version checks, and
        :meth:`_journal_append` raises the floor *before* popping the record
        it evicts.  Any record that overflows out of the window concurrently
        with this call therefore either survives in the snapshot or has
        already raised the floor past ``version`` -- a truncated delta is
        never returned for mixed ``add_edges``/``remove_edge`` traffic that
        overruns the window mid-read.
        """
        # Snapshot first: list(deque) is a single C-level copy, atomic under
        # the GIL, and immune to "deque mutated during iteration" from a
        # concurrent _journal_append.
        records = list(self._journal)
        # Check the floor *after* the snapshot: an overflow that dropped a
        # needed record before the copy ran has already raised the floor, so
        # the stale request falls through to the rebuild path.
        if version > self._version:
            return None
        if version < self._journal_floor:
            return None
        return [record for record in records if record.version > version]

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in canonical order."""
        for (u, v) in sorted(self._weights):
            yield Edge(u, v, self._weights[(u, v)])

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges as three aligned numpy columns ``(u, v, w)`` with ``u < v``.

        Rows follow the canonical :meth:`edges` order.  The arrays are cached
        and returned read-only, so repeated calls from the vectorised
        Laplacian kernels are O(1); callers that need to modify them must
        copy.  :meth:`add_edge` and :meth:`remove_edge` patch the cache in
        place of dropping it (see :meth:`_touch`), so only the first call and
        the first call after a bulk :meth:`add_edges` sort the weight dict.
        """
        cached = self._edge_arrays
        if cached is None or cached[0] != self._version:
            cached = self._edge_arrays = self._sorted_edge_arrays()
        return cached[2:]

    def _sorted_edge_arrays(self) -> tuple:
        """``(version, packed keys, u, v, w)`` rebuilt by sorting the weight dict."""
        version = self._version
        # copy first: one C-level snapshot, so a mutator on another thread
        # cannot change the dict while it is iterated
        items = sorted(self._weights.copy().items())
        m = len(items)
        u = np.fromiter((key[0] for key, _ in items), dtype=np.int64, count=m)
        v = np.fromiter((key[1] for key, _ in items), dtype=np.int64, count=m)
        w = np.fromiter((weight for _, weight in items), dtype=np.float64, count=m)
        columns = (u * self._n + v, u, v, w)
        for arr in columns:
            arr.setflags(write=False)
        return (version, *columns)

    def laplacian_csr(self) -> sp.csr_matrix:
        """CSR Laplacian ``L = B^T W B``, built by one ``coo_matrix`` call.

        Cached until the next mutation beside :meth:`edge_array` and, like it,
        read-only (``data`` / ``indices`` / ``indptr`` are not writeable):
        every solver front, factorisation and certification over the same
        content shares one matrix; callers that need to modify it must copy.
        """
        if self._laplacian_csr is None:
            u, v, w = self.edge_array()
            rows = np.concatenate([u, v, u, v])
            cols = np.concatenate([u, v, v, u])
            data = np.concatenate([w, w, -w, -w])
            L = sp.coo_matrix((data, (rows, cols)), shape=(self._n, self._n)).tocsr()
            for arr in (L.data, L.indices, L.indptr):
                arr.setflags(write=False)
            self._laplacian_csr = L
        return self._laplacian_csr

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` exists."""
        if u == v:
            return False
        return canonical_edge(u, v) in self._weights

    def weight(self, u: int, v: int) -> float:
        """Weight of the edge ``{u, v}``; raises ``KeyError`` if absent."""
        return self._weights[canonical_edge(u, v)]

    def max_weight(self) -> float:
        """Largest edge weight (``||w||_inf``), or 0.0 for an empty graph."""
        if not self._weights:
            return 0.0
        return float(max(self._weights.values()))

    # -- structure -------------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the graph is connected (single-vertex graphs count as connected)."""
        return csgraph.connected_components(
            self.laplacian_csr(), directed=False, return_labels=False
        ) == 1

    def connected_components(self) -> List[Set[int]]:
        """List of vertex sets, one per connected component, by least vertex.

        ``scipy.sparse.csgraph`` over the cached CSR Laplacian; it numbers
        components in order of their least vertex, the order
        :func:`repro.graphs.generators._connect_components` relies on for seed
        stability.
        """
        count, labels = csgraph.connected_components(self.laplacian_csr(), directed=False)
        members = np.argsort(labels, kind="stable")
        bounds = np.cumsum(np.bincount(labels, minlength=count))[:-1]
        return [set(part.tolist()) for part in np.split(members, bounds)]

    def subgraph_with_edges(self, edge_keys: Iterable[Tuple[int, int]]) -> "WeightedGraph":
        """Subgraph on the same vertex set containing exactly ``edge_keys``."""
        g = WeightedGraph(self._n)
        for (u, v) in edge_keys:
            g.add_edge(u, v, self.weight(u, v))
        return g

    def reweighted(self, weights: Dict[Tuple[int, int], float]) -> "WeightedGraph":
        """Graph with the same edges but weights overridden by ``weights``."""
        g = WeightedGraph(self._n)
        for (u, v), w in self._weights.items():
            g.add_edge(u, v, weights.get((u, v), w))
        return g

    # -- distances -------------------------------------------------------------

    def shortest_path_lengths_from(self, source: int) -> Dict[int, float]:
        """Dijkstra distances from ``source`` (inf for unreachable vertices)."""
        import heapq

        self._check_vertex(source)
        dist = {v: float("inf") for v in range(self._n)}
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for u in self._adj[v]:
                nd = d + self._weights[canonical_edge(u, v)]
                if nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        return dist

    def all_pairs_shortest_paths(self) -> np.ndarray:
        """Dense matrix of all-pairs shortest path distances."""
        dist = np.full((self._n, self._n), np.inf)
        for s in range(self._n):
            lengths = self.shortest_path_lengths_from(s)
            for v, d in lengths.items():
                dist[s, v] = d
        return dist

    # -- dunder ----------------------------------------------------------------

    def __contains__(self, edge: Tuple[int, int]) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._n == other._n and self._weights == other._weights

    def __hash__(self):  # graphs are mutable; keep them unhashable
        raise TypeError("WeightedGraph is not hashable")

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self._n}, m={self.m})"

    # -- internals --------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} out of range [0, {self._n})")

    def _journal_append(self, record: MutationRecord) -> None:
        if len(self._journal) >= JOURNAL_LIMIT:
            # the oldest record falls off the window: deltas starting before
            # the *post*-state of that record are no longer reconstructible.
            # Raise the floor BEFORE popping -- a concurrent delta_since that
            # snapshots the deque between the two steps must already see the
            # floor above the record it is about to lose, so it returns None
            # instead of a truncated delta.
            self._journal_floor = self._journal[0].version
            self._journal.popleft()
        self._journal.append(record)


class EdgeView:
    """Array-native view of an alive subset of a fixed base edge set.

    The spanner/bundle/sparsify layers repeatedly run on "the input graph
    minus the edges decided so far".  Materialising each of those residual
    graphs as a :class:`WeightedGraph` costs a dict + adjacency rebuild per
    call; an ``EdgeView`` instead shares three aligned base columns
    ``(u, v, w)`` in canonical edge order (as produced by
    :meth:`WeightedGraph.edge_array`) plus a boolean ``alive`` mask, so
    peeling edges off is an O(decided) mask update and a fresh view is O(1).

    ``w`` is owned by the creator and may be mutated in place between runs
    (the sparsification loop quadruples the weights of surviving non-bundle
    edges); ``alive`` must not be mutated once a view has been handed to a
    consumer -- derive a new view with :meth:`subview` instead.
    """

    __slots__ = ("n", "u", "v", "w", "alive")

    def __init__(
        self,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        alive: Optional[np.ndarray] = None,
    ):
        self.n = int(n)
        self.u = u
        self.v = v
        self.w = w
        self.alive = np.ones(u.shape[0], dtype=bool) if alive is None else alive

    @classmethod
    def from_graph(cls, graph: "WeightedGraph") -> "EdgeView":
        """Full view of ``graph`` with a private, mutable weight column."""
        u, v, w = graph.edge_array()
        return cls(graph.n, u, v, w.copy(), np.ones(u.shape[0], dtype=bool))

    @property
    def base_m(self) -> int:
        """Number of base edges (alive or not)."""
        return self.u.shape[0]

    @property
    def m(self) -> int:
        """Number of alive edges."""
        return int(np.count_nonzero(self.alive))

    def subview(self, alive: np.ndarray) -> "EdgeView":
        """A sibling view over the same base arrays with a different mask."""
        return EdgeView(self.n, self.u, self.v, self.w, alive)

    def alive_indices(self) -> np.ndarray:
        """Base indices of the alive edges, ascending (= canonical edge order)."""
        return np.flatnonzero(self.alive)

    def max_weight(self) -> float:
        """Largest alive edge weight, or 0.0 when no edge is alive."""
        if not np.any(self.alive):
            return 0.0
        return float(np.max(self.w[self.alive]))

    def edge_key(self, index: int) -> Tuple[int, int]:
        """Canonical key of base edge ``index``."""
        return (int(self.u[index]), int(self.v[index]))

    def edge_keys(self, indices: np.ndarray) -> List[Tuple[int, int]]:
        """Canonical keys of the base edges ``indices``, in their order."""
        return list(zip(self.u[indices].tolist(), self.v[indices].tolist()))
