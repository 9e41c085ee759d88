"""Tests for flow networks (directed capacitated graphs)."""

from math import inf, nan

import numpy as np
import pytest

from reference_generators import flow_conservation_violation, is_feasible_flow
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


def dense_incidence(net):
    """Reference, one edge at a time: ``-1`` at the tail's column, ``+1`` at the head's."""
    columns = net.lp_columns()
    B = np.zeros((net.m, int(columns.max()) + 1))
    for row, (u, v) in enumerate(net.edge_keys()):
        if columns[u] >= 0:
            B[row, columns[u]] = -1.0
        if columns[v] >= 0:
            B[row, columns[v]] = 1.0
    return B


class TestIncidenceMatrix:
    def test_shape_and_entries(self):
        net = diamond_network()
        B = net.incidence_matrix()
        assert B.format == "csr" and B.shape == (4, 3)
        # the source has no column; the others keep vertex order
        np.testing.assert_array_equal(net.lp_columns(), [-1, 0, 1, 2])
        np.testing.assert_array_equal(
            B.toarray(),
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]],
        )

    def test_source_rows_have_one_entry_and_others_sum_to_zero(self):
        net = generators.random_flow_network(8, seed=3)
        B = net.incidence_matrix().toarray()
        at_source = np.array([net.source in key for key in net.edge_keys()])
        assert np.all(np.count_nonzero(B[at_source], axis=1) == 1)
        np.testing.assert_array_equal(B[~at_source].sum(axis=1), 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_dense_loop(self, seed):
        net = generators.layered_flow_network(5, 4, seed=seed)
        net.add_edge(net.sink, net.source, 3, 1)  # an arc out of t into s
        net.add_edge(1, net.source, 2, 0)  # an arc into s
        np.testing.assert_array_equal(net.incidence_matrix().toarray(), dense_incidence(net))

    def test_arc_less_vertices_have_no_column(self):
        net = FlowNetwork(6, source=1, sink=4)
        net.add_edge(1, 2, 1, 0)
        net.add_edge(2, 4, 1, 0)
        np.testing.assert_array_equal(net.lp_columns(), [-1, -1, 0, -1, 1, -1])
        assert net.incidence_matrix().shape == (2, 2)


class TestFlowSemantics:
    def test_feasible_flow_accepted(self):
        net = diamond_network()
        flow = {(0, 1): 2.0, (1, 3): 2.0, (0, 2): 1.0, (2, 3): 1.0}
        assert is_feasible_flow(net, flow)
        assert net.flow_value(flow) == 3.0
        assert net.flow_cost(flow) == pytest.approx(2 * 1 + 2 * 1 + 1 * 2 + 1 * 2)

    def test_capacity_violation_rejected(self):
        net = diamond_network()
        flow = {(0, 1): 5.0, (1, 3): 5.0}
        assert not is_feasible_flow(net, flow)

    def test_conservation_violation_rejected(self):
        net = diamond_network()
        flow = {(0, 1): 2.0, (1, 3): 1.0}
        assert flow_conservation_violation(net, flow) == pytest.approx(1.0)
        assert not is_feasible_flow(net, flow)

    def test_zero_flow_always_feasible(self):
        net = generators.random_flow_network(10, seed=5)
        zero = {key: 0.0 for key in net.edge_keys()}
        assert is_feasible_flow(net, zero)
        assert net.flow_value(zero) == 0.0


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
