"""Single-edge mutators patch the cached edge columns; connectivity via csgraph.

``add_edge`` / ``remove_edge`` patch :meth:`WeightedGraph.edge_array` in
place of dropping it, so the columns must stay bit-identical to a sorted
rebuild of the weight dict (and read-only) under any interleaving with bulk
``add_edges``; the content fingerprint the serving registry hashes from them
must not move.  ``connected_components`` / ``is_connected`` run through
``scipy.sparse.csgraph`` and must agree with the pure-Python BFS they
replaced, component order included (generators rely on it for seed
stability).
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_generators import edge_list

from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.serve.registry import graph_fingerprint


def bfs_components(graph):
    """The replaced BFS: components in order of their least vertex."""
    adjacent = {v: set() for v in range(graph.n)}
    for a, b, _ in edge_list(graph):
        adjacent[a].add(b)
        adjacent[b].add(a)
    seen, components = set(), []
    for start in range(graph.n):
        if start in seen:
            continue
        component, stack = {start}, [start]
        seen.add(start)
        while stack:
            for u in adjacent[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    component.add(u)
                    stack.append(u)
        components.append(component)
    return components


def assert_columns_match_rebuild(graph):
    columns = graph.edge_array()
    rebuilt = graph._sorted_edge_arrays()[2:]
    for got, want in zip(columns, rebuilt):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    fresh = WeightedGraph(graph.n, edge_list(graph))
    assert graph_fingerprint(graph) == graph_fingerprint(graph.copy()) == graph_fingerprint(fresh)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "reweight", "remove", "bulk", "read"]),
        st.integers(min_value=0, max_value=2**31),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=2, max_value=16), ops=OPS)
def test_patched_edge_columns_equal_a_sorted_rebuild(n, ops):
    graph = WeightedGraph(n)
    graph.edge_array()  # cache first, so every later single-edge op patches
    for op, seed in ops:
        rng = np.random.default_rng(seed)
        edges = edge_list(graph)
        if op == "add":
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v:
                graph.add_edge(u, v, float(rng.uniform(0.1, 10.0)))
        elif op in ("reweight", "remove") and edges:
            u, v, w = edges[int(rng.integers(0, len(edges)))]
            if op == "reweight":
                graph.add_edge(v, u, w * float(rng.uniform(0.2, 5.0)))
            else:
                graph.remove_edge(v, u)
        elif op == "bulk":
            size = int(rng.integers(1, 5))
            u = rng.integers(0, n, size)
            v = (u + 1 + rng.integers(0, n - 1, size)) % n
            graph.add_edges(u, v, rng.uniform(0.1, 10.0, size))
        else:
            assert_columns_match_rebuild(graph)
        assert graph.connected_components() == bfs_components(graph)
        assert graph.is_connected() == (len(bfs_components(graph)) == 1)
    assert_columns_match_rebuild(graph)


def test_single_edge_mutators_never_sort_the_weight_dict(monkeypatch):
    graph = generators.grid_graph(12, 12)
    graph.edge_array()
    calls = []
    original = WeightedGraph._sorted_edge_arrays
    monkeypatch.setattr(
        WeightedGraph,
        "_sorted_edge_arrays",
        lambda self: calls.append(self) or original(self),
    )
    held = graph.edge_array()
    graph.add_edge(0, 13, 2.5)  # add
    graph.add_edge(0, 1, 4.0)  # reweight
    graph.remove_edge(0, 13)  # remove
    assert_columns_match_rebuild(graph)
    calls.clear()
    graph.edge_array()
    assert calls == []
    # a holder of the old columns keeps its snapshot
    assert held[2][0] == 1.0 and graph.edge_array()[2][0] == 4.0
    graph.add_edges([0], [2], [1.0])  # bulk drops the cache
    graph.edge_array()
    assert calls == [graph]


def test_patching_under_concurrent_readers_loses_no_update():
    # the serving tier reads edge_array on its flush thread while a user
    # thread mutates: a reader caching columns mid-mutation must never leave
    # a stale cache behind that later patches build on
    graph = generators.grid_graph(30, 30)
    stop = threading.Event()
    torn, stale = [], []

    def read():
        while not stop.is_set():
            u, v, w = graph.edge_array()
            if not (u.size == v.size == w.size):
                torn.append((u.size, v.size, w.size))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for thread in readers:
            thread.start()
        rng = np.random.default_rng(11)
        added = []
        for step in range(500):
            if step % 4 == 0:
                # drops the cache: readers race to rebuild it while the
                # next single-edge mutation lands
                graph.add_edges([0], [graph.n - 1], [1.0 + step])
                continue
            if step % 3 == 0 and added:
                graph.remove_edge(*added.pop())
            else:
                u, v = (int(x) for x in rng.integers(0, graph.n, 2))
                if u == v or graph.has_edge(u, v):
                    continue
                graph.add_edge(u, v, float(rng.uniform(0.5, 2.0)))
                added.append((u, v))
            rebuilt = graph._sorted_edge_arrays()[2:]
            if not all(np.array_equal(a, b) for a, b in zip(graph.edge_array(), rebuilt)):
                stale.append(step)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not torn and not stale
    assert_columns_match_rebuild(graph)


@pytest.mark.parametrize(
    "factory,expected",
    [
        (
            lambda: generators.random_weighted_graph(1000, 32, seed=7),
            "1dd8de5283b651b3b5a70c5e754983f4f8e8dcd28f129736f0850169c3c8d51e",
        ),
        (
            lambda: generators.random_weighted_graph(2000, 8, seed=7),
            "30b53aee2b99369af457a6b8f8208f4260806de2d7f27185e65a6fe55a302e9b",
        ),
        (
            lambda: generators.random_weighted_graph(1000, 8, seed=7),
            "26e624d2f0906538c12d826a6d773ebaac400b0fba29cf81980c657878fca421",
        ),
        (
            lambda: generators.grid_graph(100, 100),
            "ffa555f6641406d3214903f072fe46126265d28998a63dd0a3bb62cad76bc17b",
        ),
    ],
)
def test_suite_instance_fingerprints_are_pinned(factory, expected):
    # generators draw through connected_components order (seed stability);
    # these are the benchmark suite's instances, fingerprinted before the
    # BFS was replaced
    assert graph_fingerprint(factory()) == expected
