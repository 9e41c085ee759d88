"""Tests for the bulk edge API and the array-native edge views."""

import numpy as np
import pytest
from reference_executor import adjacency_lists
from reference_generators import neighbours

from repro.graphs import generators
from repro.graphs.graph import EdgeView, WeightedGraph


class TestAddEdges:
    def test_matches_scalar_add_edge(self):
        edges = [(0, 3, 1.5), (1, 2, 2.0), (2, 4, 0.25), (3, 4, 7.0)]
        scalar = WeightedGraph(5)
        for u, v, w in edges:
            scalar.add_edge(u, v, w)
        bulk = WeightedGraph(5)
        u, v, w = zip(*edges)
        bulk.add_edges(np.array(u), np.array(v), np.array(w))
        assert bulk == scalar

    def test_scalar_weight_broadcast(self):
        g = WeightedGraph(4)
        g.add_edges([0, 1, 2], [1, 2, 3])
        assert g.m == 3
        assert all(e.weight == 1.0 for e in g.edges())

    def test_canonicalises_endpoint_order(self):
        g = WeightedGraph(4)
        g.add_edges([3, 2], [0, 1], [1.0, 2.0])
        assert g.weight(0, 3) == 1.0
        assert g.weight(1, 2) == 2.0

    def test_duplicate_within_batch_last_wins(self):
        g = WeightedGraph(3)
        g.add_edges([0, 1, 0], [1, 2, 1], [1.0, 1.0, 5.0])
        assert g.weight(0, 1) == 5.0

    def test_empty_batch_is_noop(self):
        g = WeightedGraph(3)
        g.add_edges([], [])
        assert g.m == 0

    def test_rejects_out_of_range(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError, match="out of range"):
            g.add_edges([0], [3])

    def test_rejects_self_loops(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError, match="self-loops"):
            g.add_edges([0, 1], [1, 1])

    def test_rejects_non_positive_weights(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError, match="positive"):
            g.add_edges([0], [1], [0.0])

    def test_rejects_misaligned_arrays(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError, match="align"):
            g.add_edges([0, 1], [1])

    def test_invalidates_edge_array_cache(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.edge_array()
        g.add_edges([1], [2], [2.0])
        u, v, w = g.edge_array()
        assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (1, 2)]


class TestEdgeView:
    @pytest.fixture
    def graph(self):
        return generators.random_weighted_graph(20, average_degree=5, max_weight=8, seed=3)

    def test_full_view_mirrors_graph(self, graph):
        view = EdgeView.from_graph(graph)
        assert view.n == graph.n
        assert view.m == graph.m == view.base_m
        assert view.max_weight() == graph.max_weight()
        u, v, w = graph.edge_array()
        np.testing.assert_array_equal(view.u, u)
        np.testing.assert_array_equal(view.v, v)
        np.testing.assert_array_equal(view.w, w)

    def test_subview_counts_alive_edges_only(self, graph):
        view = EdgeView.from_graph(graph)
        alive = np.zeros(view.base_m, dtype=bool)
        alive[:4] = True
        sub = view.subview(alive)
        assert sub.m == 4
        assert sub.base_m == view.base_m
        np.testing.assert_array_equal(sub.alive_indices(), np.arange(4))

    def test_max_weight_respects_mask(self, graph):
        view = EdgeView.from_graph(graph)
        alive = np.ones(view.base_m, dtype=bool)
        alive[int(np.argmax(view.w))] = False
        assert view.subview(alive).max_weight() == float(np.max(view.w[alive]))
        assert view.subview(np.zeros(view.base_m, dtype=bool)).max_weight() == 0.0

    def test_edge_keys_follow_the_index_order(self, graph):
        view = EdgeView.from_graph(graph)
        indices = np.array([5, 0, 3])
        assert view.edge_keys(indices) == [view.edge_key(i) for i in (5, 0, 3)]
        assert view.edge_keys(np.zeros(0, dtype=np.int64)) == []

    def test_adjacency_lists_sorted_and_consistent(self, graph):
        view = EdgeView.from_graph(graph)
        adj = adjacency_lists(view)
        for v in range(view.n):
            assert [u for u, _w, _ei in adj[v]] == sorted(neighbours(graph, v))
            for u, w, ei in adj[v]:
                assert w == graph.weight(u, v)
                assert view.edge_key(ei) == tuple(sorted((u, v)))

    def test_adjacency_lists_respect_mask(self, graph):
        view = EdgeView.from_graph(graph)
        alive = np.zeros(view.base_m, dtype=bool)
        alive[::2] = True
        adj = adjacency_lists(view.subview(alive))
        seen = {tuple(sorted((v, u))) for v in range(view.n) for u, _w, _ei in adj[v]}
        expected = {view.edge_key(i) for i in np.flatnonzero(alive)}
        assert seen == expected

    def test_weight_column_is_private_copy(self, graph):
        view = EdgeView.from_graph(graph)
        before = graph.max_weight()
        view.w *= 4.0
        assert graph.max_weight() == before
