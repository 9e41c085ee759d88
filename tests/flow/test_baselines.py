"""Tests for the combinatorial flow baselines."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.digraph import FlowNetwork
from repro.flow.baselines import (
    edmonds_karp_max_flow,
    networkx_min_cost_max_flow,
    successive_shortest_paths,
)


def diamond():
    net = FlowNetwork(4, source=0, sink=3)
    net.add_edge(0, 1, capacity=2, cost=1)
    net.add_edge(1, 3, capacity=2, cost=1)
    net.add_edge(0, 2, capacity=3, cost=5)
    net.add_edge(2, 3, capacity=1, cost=5)
    return net


def successive_shortest_paths_at_value(net, target):
    """Min-cost flow of value ``target``: the maximum flow behind a new
    source whose one arc carries ``target``, that arc dropped again."""
    capped = FlowNetwork(net.n + 1, source=net.n, sink=net.sink)
    capped.add_edge(net.n, net.source, capacity=target, cost=0)
    for edge in net.edges():
        capped.add_edge(edge.u, edge.v, edge.capacity, edge.cost)
    value, cost, flow = successive_shortest_paths(capped)
    del flow[(net.n, net.source)]
    return value, cost, flow


class TestEdmondsKarp:
    def test_diamond_value(self):
        value, flow = edmonds_karp_max_flow(diamond())
        assert value == 3.0
        assert diamond().is_feasible_flow(flow)
        assert diamond().flow_value(flow) == 3.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_on_random_instances(self, seed):
        import networkx as nx

        net = generators.random_flow_network(12, seed=seed)
        value, flow = edmonds_karp_max_flow(net)
        expected, _ = nx.maximum_flow(net.to_networkx(), net.source, net.sink)
        assert value == pytest.approx(expected)
        assert net.is_feasible_flow(flow)
        assert net.flow_value(flow) == pytest.approx(expected)

    def test_antiparallel_edges_handled(self):
        net = FlowNetwork(3, source=0, sink=2)
        net.add_edge(0, 1, capacity=2, cost=0)
        net.add_edge(1, 0, capacity=2, cost=0)
        net.add_edge(1, 2, capacity=1, cost=0)
        value, flow = edmonds_karp_max_flow(net)
        assert value == 1.0
        assert net.is_feasible_flow(flow)


class TestSuccessiveShortestPaths:
    def test_diamond_prefers_cheap_path(self):
        value, cost, flow = successive_shortest_paths(diamond())
        assert value == 3.0
        # cheap path carries 2 units at cost 2 each, expensive path 1 unit at cost 10
        assert cost == pytest.approx(2 * 2 + 1 * 10)
        assert diamond().is_feasible_flow(flow)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_min_cost(self, seed):
        net = generators.random_flow_network(10, seed=seed, max_capacity=6, max_cost=7)
        value, cost, flow = successive_shortest_paths(net)
        nx_value, nx_cost, _ = networkx_min_cost_max_flow(net)
        assert value == pytest.approx(nx_value)
        assert cost == pytest.approx(nx_cost)
        assert net.is_feasible_flow(flow)

    def test_target_value_respected(self):
        net = diamond()
        value, cost, flow = successive_shortest_paths_at_value(net, 2.0)
        assert value == 2.0
        assert cost == pytest.approx(4.0)
        assert net.flow_value(flow) == pytest.approx(2.0)

    def test_layered_networks(self):
        net = generators.layered_flow_network(3, 3, seed=4)
        value, cost, flow = successive_shortest_paths(net)
        nx_value, nx_cost, _ = networkx_min_cost_max_flow(net)
        assert value == pytest.approx(nx_value)
        assert cost == pytest.approx(nx_cost)


def with_antiparallel_edges(seed):
    net = generators.random_flow_network(12, seed=seed, max_capacity=6, max_cost=7)
    rng = np.random.default_rng(seed)
    for u, v in net.edge_keys()[::3]:
        if not net.has_edge(v, u) and v != net.source and u != net.sink:
            net.add_edge(v, u, float(rng.integers(1, 7)), float(rng.integers(0, 8)))
    return net


def with_negative_costs(seed):
    # a layered network is a DAG, so negative costs make no negative cycle
    net = generators.layered_flow_network(4, 4, seed=seed)
    rng = np.random.default_rng(seed)
    for edge in list(net.edges()):
        net.add_edge(edge.u, edge.v, edge.capacity, edge.cost - float(rng.integers(0, 6)))
    return net


SSP_FAMILIES = {
    "layered": lambda seed: generators.layered_flow_network(5, 4, seed=seed),
    "random": lambda seed: generators.random_flow_network(14, seed=seed),
    "antiparallel": with_antiparallel_edges,
    "negative-cost": with_negative_costs,
}


def networkx_min_cost_at_value(net, value):
    import networkx as nx

    graph = net.to_networkx()
    graph.nodes[net.source]["demand"] = -value
    graph.nodes[net.sink]["demand"] = value
    return nx.cost_of_flow(graph, nx.min_cost_flow(graph))


class TestSuccessiveShortestPathsAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("family", sorted(SSP_FAMILIES))
    def test_value_and_cost_match_at_the_maximum_and_below_it(self, family, seed):
        net = SSP_FAMILIES[family](seed)
        value, cost, flow = successive_shortest_paths(net)
        nx_value, nx_cost, _ = networkx_min_cost_max_flow(net)
        assert value == nx_value and cost == nx_cost
        assert net.is_feasible_flow(flow) and net.flow_value(flow) == value
        assert all(f == round(f) for f in flow.values())
        target = float(max(1, int(value) // 2))
        value, cost, flow = successive_shortest_paths_at_value(net, target)
        assert value == target and cost == networkx_min_cost_at_value(net, target)
        assert net.is_feasible_flow(flow) and net.flow_value(flow) == target


class TestNetworkxWrapper:
    def test_returns_flow_on_network_edges_only(self):
        net = generators.random_flow_network(8, seed=9)
        _value, _cost, flow = networkx_min_cost_max_flow(net)
        assert set(flow) == set(net.edge_keys())
        assert net.is_feasible_flow(flow)
