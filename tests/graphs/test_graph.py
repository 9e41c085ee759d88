"""Tests for the weighted undirected graph data structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_generators import edge_list, graph_from_edges, to_networkx

from repro.graphs.graph import Edge, WeightedGraph, canonical_edge
from repro.graphs import generators


class TestEdge:
    def test_canonical_key_sorted(self):
        assert Edge(3, 1, 2.0).key == (1, 3)
        assert canonical_edge(5, 2) == (2, 5)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Edge(2, 2, 1.0)
        with pytest.raises(ValueError):
            canonical_edge(4, 4)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            Edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            Edge(0, 1, -1.0)

    def test_other_endpoint(self):
        e = Edge(2, 5, 1.0)
        assert e.other(2) == 5
        assert e.other(5) == 2
        with pytest.raises(ValueError):
            e.other(7)


class TestWeightedGraphBasics:
    def test_add_and_query_edges(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 3.0)
        assert g.has_edge(1, 0)
        assert g.weight(0, 1) == 2.0
        assert g.m == 2

    def test_add_edge_overwrites_weight(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 7.0)
        assert g.m == 1
        assert g.weight(0, 1) == 7.0

    def test_remove_edge(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.remove_edge(0, 1)
        assert g.m == 0
        assert not g.has_edge(0, 1)
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)

    def test_remove_edge_validates_vertices(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            g.remove_edge(0, 5)
        with pytest.raises(ValueError):
            g.remove_edge(-1, 0)
        with pytest.raises(ValueError):
            g.remove_edge(0, 0)
        assert g.has_edge(0, 1)  # failed removals must not mutate the graph

    def test_edge_array_matches_edge_list(self):
        g = WeightedGraph(4)
        g.add_edge(2, 3, 5.0)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 3, 7.0)
        u, v, w = g.edge_array()
        assert list(zip(u.tolist(), v.tolist(), w.tolist())) == edge_list(g)

    def test_edge_array_cache_invalidated_on_mutation(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        u, v, w = g.edge_array()
        assert g.edge_array() is not None and g.edge_array()[0] is u  # cached
        g.add_edge(1, 2, 2.0)
        assert g.edge_array()[0].size == 2
        g.remove_edge(0, 1)
        assert g.edge_array()[0].size == 1
        with pytest.raises(ValueError):
            g.edge_array()[2][0] = 9.0  # cached views are read-only

    def test_laplacian_csr_cached_read_only_and_dropped_by_every_mutator(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)

        def fresh_after(mutate):
            before = g.laplacian_csr()
            assert g.laplacian_csr() is before  # cached between mutations
            mutate()
            after = g.laplacian_csr()
            assert after is not before
            expected = np.zeros((g.n, g.n))
            for u, v, w in edge_list(g):
                expected[u, u] += w
                expected[v, v] += w
                expected[u, v] -= w
                expected[v, u] -= w
            np.testing.assert_array_equal(after.toarray(), expected)

        fresh_after(lambda: g.add_edge(2, 3, 3.0))  # add
        fresh_after(lambda: g.add_edge(1, 2, 5.0))  # reweight
        fresh_after(lambda: g.remove_edge(0, 1))  # remove
        fresh_after(lambda: g.add_edges([0, 0], [1, 3], [1.5, 2.5]))  # bulk add
        with pytest.raises(ValueError):
            g.laplacian_csr().data[0] = 9.0  # shared by every consumer: read-only
        assert g.copy().laplacian_csr() is not g.laplacian_csr()

    def test_edge_array_empty_graph(self):
        g = WeightedGraph(2)
        u, v, w = g.edge_array()
        assert u.size == v.size == w.size == 0

    def test_rejects_invalid_vertices_and_weights(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 5, 1.0)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -2.0)
        with pytest.raises(ValueError):
            WeightedGraph(0)

    def test_copy_is_independent(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        h = g.copy()
        h.add_edge(1, 2, 1.0)
        assert g.m == 1
        assert h.m == 2

    def test_equality(self):
        g = graph_from_edges(3, [(0, 1, 1.0)])
        h = graph_from_edges(3, [(0, 1, 1.0)])
        assert g == h
        h.add_edge(1, 2, 1.0)
        assert g != h

    def test_edge_list_sorted_canonical(self):
        g = graph_from_edges(4, [(3, 1, 1.0), (2, 0, 2.0)])
        assert edge_list(g) == [(0, 2, 2.0), (1, 3, 1.0)]

    def test_contains_and_repr(self):
        g = graph_from_edges(3, [(0, 1, 1.0)])
        assert (1, 0) in g
        assert (0, 2) not in g
        assert "WeightedGraph" in repr(g)

    def test_max_weight(self):
        g = graph_from_edges(4, [(0, 1, 2.0), (1, 2, 8.0), (2, 3, 4.0)])
        assert g.max_weight() == 8.0
        assert WeightedGraph(2).max_weight() == 0.0


class TestConnectivity:
    def test_connected_and_components(self):
        g = graph_from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        assert not g.is_connected()
        components = g.connected_components()
        assert sorted(map(sorted, components)) == [[0, 1, 2], [3, 4]]

    def test_single_vertex_is_connected(self):
        assert WeightedGraph(1).is_connected()

    def test_subgraph_with_edges(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        sub = g.subgraph_with_edges([(1, 2), (2, 3)])
        assert sub.m == 2
        assert sub.weight(1, 2) == 2.0
        assert not sub.has_edge(0, 1)

    def test_reweighted(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        h = g.reweighted({(0, 1): 5.0})
        assert h.weight(0, 1) == 5.0
        assert h.weight(1, 2) == 2.0


class TestShortestPaths:
    def test_dijkstra_on_weighted_path(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
        dist = g.shortest_path_lengths_from(0)
        assert dist[3] == 7.0
        assert dist[0] == 0.0

    def test_unreachable_is_infinite(self):
        g = graph_from_edges(3, [(0, 1, 1.0)])
        dist = g.shortest_path_lengths_from(0)
        assert dist[2] == float("inf")

    def test_all_pairs_symmetric(self):
        g = generators.random_weighted_graph(12, seed=3)
        dist = g.all_pairs_shortest_paths()
        np.testing.assert_allclose(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)

    def test_distances_agree_with_networkx(self):
        import networkx as nx

        g = generators.random_weighted_graph(15, seed=9)
        nxg = to_networkx(g)
        expected = dict(nx.all_pairs_dijkstra_path_length(nxg))
        dist = g.all_pairs_shortest_paths()
        for u in range(g.n):
            for v in range(g.n):
                assert dist[u, v] == pytest.approx(expected[u][v])


@st.composite
def random_graph_strategy(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return n, list(zip(chosen, weights))


class TestGraphProperties:
    @settings(max_examples=50, deadline=None)
    @given(random_graph_strategy())
    def test_components_partition_vertices(self, data):
        n, edges = data
        g = WeightedGraph(n)
        for (u, v), w in edges:
            g.add_edge(u, v, w)
        components = g.connected_components()
        union = set().union(*components) if components else set()
        assert union == set(range(n))
        assert sum(len(c) for c in components) == n
