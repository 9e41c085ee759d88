"""Tests for flow networks (directed capacitated graphs)."""

from math import inf, nan

import numpy as np
import pytest

from repro.graphs.digraph import DirectedEdge, FlowNetwork
from repro.graphs import generators


def diamond_network():
    """s=0, t=3 with two disjoint paths."""
    net = FlowNetwork(4, source=0, sink=3)
    net.add_edge(0, 1, capacity=2, cost=1)
    net.add_edge(1, 3, capacity=2, cost=1)
    net.add_edge(0, 2, capacity=3, cost=2)
    net.add_edge(2, 3, capacity=1, cost=2)
    return net


class TestConstruction:
    def test_basic_properties(self):
        net = diamond_network()
        assert net.n == 4
        assert net.m == 4
        assert net.source == 0
        assert net.sink == 3
        assert net.has_edge(0, 1)
        assert not net.has_edge(1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowNetwork(1, 0, 0)
        with pytest.raises(ValueError):
            FlowNetwork(3, 0, 0)
        with pytest.raises(ValueError):
            FlowNetwork(3, 0, 5)
        with pytest.raises(ValueError):
            DirectedEdge(0, 0, 1.0)
        with pytest.raises(ValueError):
            DirectedEdge(0, 1, 0.0)
        for capacity, cost in [(nan, 0.0), (inf, 0.0), (1.0, nan), (1.0, inf)]:
            with pytest.raises(ValueError, match=r"edge \(0, 1\)"):
                DirectedEdge(0, 1, capacity, cost)
        # the LP's perturbation and optimality certificate assume integral data
        for capacity, cost in [(1.5, 0.0), (1.0, 0.01), (2.0, -0.5)]:
            with pytest.raises(ValueError, match=r"edge \(0, 1\) needs an integral"):
                DirectedEdge(0, 1, capacity, cost)
        with pytest.raises(ValueError, match=r"edge \(1, 3\) needs an integral"):
            FlowNetwork(4, 0, 3).add_edge(1, 3, capacity=1, cost=0.01)

    def test_capacity_and_cost_vectors_follow_edge_keys(self):
        net = diamond_network()
        keys = net.edge_keys()
        caps = net.capacities()
        costs = net.costs()
        for i, key in enumerate(keys):
            assert caps[i] == net.edge(*key).capacity
            assert costs[i] == net.edge(*key).cost

    def test_max_bounds(self):
        net = diamond_network()
        assert net.max_capacity() == 3
        assert net.max_cost_magnitude() == 2


class TestIncidenceMatrix:
    def test_shape_and_entries(self):
        net = diamond_network()
        B = net.incidence_matrix()
        assert B.shape == (4, 4)
        keys = net.edge_keys()
        for row, (u, v) in enumerate(keys):
            assert B[row, u] == -1.0
            assert B[row, v] == 1.0
            assert np.count_nonzero(B[row]) == 2

    def test_dropping_source_column(self):
        net = diamond_network()
        B = net.incidence_matrix(drop_vertex=net.source)
        assert B.shape == (4, 3)
        # rows of edges leaving the source have a single +1 entry
        for row, (u, v) in enumerate(net.edge_keys()):
            if u == net.source:
                assert np.count_nonzero(B[row]) == 1

    def test_row_sums_zero_without_drop(self):
        net = generators.random_flow_network(8, seed=3)
        B = net.incidence_matrix()
        np.testing.assert_allclose(B @ np.ones(net.n), 0.0, atol=1e-12)


class TestFlowSemantics:
    def test_feasible_flow_accepted(self):
        net = diamond_network()
        flow = {(0, 1): 2.0, (1, 3): 2.0, (0, 2): 1.0, (2, 3): 1.0}
        assert net.is_feasible_flow(flow)
        assert net.flow_value(flow) == 3.0
        assert net.flow_cost(flow) == pytest.approx(2 * 1 + 2 * 1 + 1 * 2 + 1 * 2)

    def test_capacity_violation_rejected(self):
        net = diamond_network()
        flow = {(0, 1): 5.0, (1, 3): 5.0}
        assert not net.is_feasible_flow(flow)

    def test_conservation_violation_rejected(self):
        net = diamond_network()
        flow = {(0, 1): 2.0, (1, 3): 1.0}
        assert net.flow_conservation_violation(flow) == pytest.approx(1.0)
        assert not net.is_feasible_flow(flow)

    def test_zero_flow_always_feasible(self):
        net = generators.random_flow_network(10, seed=5)
        assert net.is_feasible_flow(net.zero_flow())
        assert net.flow_value(net.zero_flow()) == 0.0


class TestGenerators:
    def test_random_flow_network_has_path_to_sink(self):
        import networkx as nx

        for seed in range(5):
            net = generators.random_flow_network(12, seed=seed)
            assert nx.has_path(net.to_networkx(), net.source, net.sink)

    def test_layered_flow_network_structure(self):
        net = generators.layered_flow_network(layers=3, width=3, seed=1)
        assert net.n == 2 + 3 * 3
        import networkx as nx

        assert nx.has_path(net.to_networkx(), net.source, net.sink)

    def test_capacities_and_costs_are_integral(self):
        net = generators.random_flow_network(10, max_capacity=7, max_cost=3, seed=2)
        assert np.allclose(net.capacities(), np.round(net.capacities()))
        assert np.allclose(net.costs(), np.round(net.costs()))
        assert net.max_capacity() <= 7
        assert net.max_cost_magnitude() <= 3
