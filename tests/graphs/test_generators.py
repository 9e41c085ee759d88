"""Tests for the graph generators."""

import numpy as np
import pytest
from reference_generators import (
    barbell_graph,
    cycle_graph,
    degrees,
    path_graph,
    star_graph,
    watts_strogatz,
)

from repro.graphs import generators


class TestDeterministicGenerators:
    def test_path_cycle_star_complete_sizes(self):
        assert path_graph(5).m == 4
        assert cycle_graph(5).m == 5
        assert star_graph(5).m == 4
        assert generators.complete_graph(5).m == 10

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_grid_graph(self):
        g = generators.grid_graph(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical edges
        assert g.is_connected()

    def test_barbell_graph_connected(self):
        g = barbell_graph(4, path_length=2)
        assert g.is_connected()
        # two K_4's plus the connecting path
        assert g.m >= 2 * 6 + 1


class TestRandomGenerators:
    def test_erdos_renyi_connected_by_default(self):
        for seed in range(5):
            g = generators.erdos_renyi(20, 0.05, seed=seed)
            assert g.is_connected()

    def test_erdos_renyi_probability_bounds(self):
        with pytest.raises(ValueError):
            generators.erdos_renyi(10, 1.5)

    def test_connect_components_single_sweep_matches_quadratic_reference(self):
        """The one-pass ``_connect_components`` must replay the exact rng call
        sequence of the original recompute-per-edge implementation."""
        from repro.graphs.graph import WeightedGraph

        def connect_reference(graph, rng, max_weight):
            components = graph.connected_components()
            while len(components) > 1:
                first = sorted(components[0])
                second = sorted(components[1])
                u = int(rng.choice(first))
                v = int(rng.choice(second))
                weight = float(rng.integers(1, max(2, int(max_weight)) + 1))
                graph.add_edge(u, v, weight)
                components = graph.connected_components()

        for seed in range(10):
            def build(rng):
                g = WeightedGraph(25)
                for u in range(25):
                    for v in range(u + 1, 25):
                        if rng.random() < 0.04:
                            g.add_edge(u, v, float(rng.integers(1, 9)))
                return g

            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            expected, actual = build(rng_a), build(rng_b)
            connect_reference(expected, rng_a, 8.0)
            generators._connect_components(actual, rng_b, 8.0)
            assert actual == expected
            assert actual.is_connected()
            # rng state must also agree so downstream draws stay seed-stable
            assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)

    def test_connect_components_already_connected_consumes_no_randomness(self):
        rng = np.random.default_rng(0)
        g = path_graph(6)
        before = rng.bit_generator.state
        generators._connect_components(g, rng, 4.0)
        assert rng.bit_generator.state == before

    def test_erdos_renyi_reproducible(self):
        a = generators.erdos_renyi(15, 0.3, seed=42)
        b = generators.erdos_renyi(15, 0.3, seed=42)
        assert a == b

    def test_random_weighted_graph_degree_scaling(self):
        sparse = generators.random_weighted_graph(30, average_degree=3, seed=1)
        dense = generators.random_weighted_graph(30, average_degree=12, seed=1)
        assert dense.m > sparse.m

    def test_weights_are_positive_integers_below_bound(self):
        g = generators.random_weighted_graph(20, max_weight=9, seed=3)
        for edge in g.edges():
            assert 1 <= edge.weight <= 9
            assert edge.weight == int(edge.weight)


class TestFlowGenerators:
    def test_random_flow_network_reproducible(self):
        a = generators.random_flow_network(10, seed=7)
        b = generators.random_flow_network(10, seed=7)
        assert a.edge_keys() == b.edge_keys()
        np.testing.assert_allclose(a.capacities(), b.capacities())
        np.testing.assert_allclose(a.costs(), b.costs())

    def test_no_edges_into_source_or_out_of_sink_except_backbone(self):
        net = generators.random_flow_network(12, seed=8)
        # the generator only adds non-backbone edges avoiding the source as head
        for (u, v) in net.edge_keys():
            assert v != net.source or u == net.source

    def test_layered_network_is_dag_like(self):
        import networkx as nx

        net = generators.layered_flow_network(4, 3, seed=9)
        assert nx.is_directed_acyclic_graph(net.to_networkx())


class TestScaleFreeAndSmallWorld:
    def test_barabasi_albert_size_and_connectivity(self):
        g = generators.barabasi_albert(200, attach=3, seed=1)
        assert g.n == 200
        # clique on 4 vertices + 3 edges per later vertex
        assert g.m == 6 + 3 * (200 - 4)
        assert g.is_connected()
        assert min(degrees(g)) >= 3

    def test_barabasi_albert_reproducible(self):
        a = generators.barabasi_albert(60, attach=2, seed=5)
        b = generators.barabasi_albert(60, attach=2, seed=5)
        assert a == b
        c = generators.barabasi_albert(60, attach=2, seed=6)
        assert a != c

    def test_barabasi_albert_heavy_tail(self):
        g = generators.barabasi_albert(400, attach=2, seed=7)
        ranked = sorted(degrees(g), reverse=True)
        # preferential attachment concentrates degree on early hubs
        assert ranked[0] >= 4 * ranked[len(ranked) // 2]

    def test_barabasi_albert_small_n_is_clique(self):
        g = generators.barabasi_albert(4, attach=4, seed=1)
        assert g.m == 6  # n <= attach + 1: complete graph

    def test_barabasi_albert_rejects_bad_attach(self):
        with pytest.raises(ValueError):
            generators.barabasi_albert(10, attach=0)

    def test_watts_strogatz_size_and_connectivity(self):
        g = watts_strogatz(100, k=4, beta=0.2, seed=3)
        assert g.n == 100
        # rewiring preserves the edge count; ensure_connected may add a few
        assert g.m >= 100 * 4 // 2
        assert g.is_connected()

    def test_watts_strogatz_beta_zero_is_lattice(self):
        g = watts_strogatz(20, k=4, beta=0.0, seed=4)
        assert g.m == 40
        assert degrees(g) == [4] * 20
        for v in range(20):
            for j in (1, 2):
                assert g.has_edge(v, (v + j) % 20)

    def test_watts_strogatz_rewires_for_positive_beta(self):
        lattice = watts_strogatz(60, k=6, beta=0.0, seed=8)
        rewired = watts_strogatz(60, k=6, beta=0.5, seed=8)
        assert rewired != lattice

    def test_watts_strogatz_reproducible(self):
        a = watts_strogatz(50, k=4, beta=0.3, seed=9)
        b = watts_strogatz(50, k=4, beta=0.3, seed=9)
        assert a == b

    def test_watts_strogatz_validation(self):
        with pytest.raises(ValueError):
            watts_strogatz(10, k=3)  # odd k
        with pytest.raises(ValueError):
            watts_strogatz(4, k=4)  # k >= n
        with pytest.raises(ValueError):
            watts_strogatz(10, k=4, beta=1.5)
