"""Tests for the Section 5 LP of min-cost max-flow: edge flows plus the flow value ``F``."""

import numpy as np
import pytest
from reference_dense import is_symmetric_diagonally_dominant

from repro.graphs import generators
from repro.graphs.digraph import FlowNetwork
from repro.flow.baselines import edmonds_karp_max_flow
from repro.flow.lp_formulation import build_fixed_value_lp


def arc_less_network():
    """Max flow 3 at cost 9 on vertices 0-3; vertex 4 has no arc."""
    return FlowNetwork(5, 0, 3, [(0, 1, 2, 1), (1, 3, 2, 1), (0, 2, 1, 0), (2, 3, 1, 5)])


class TestConstraintMatrix:
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_are_the_incidence_rows_then_minus_e_t(self, seed):
        net = generators.random_flow_network(9, seed=seed)
        flow_lp = build_fixed_value_lp(net)
        A = flow_lp.problem.A.toarray()  # the formulation always builds CSR
        columns = net.lp_columns()
        assert A.shape == (net.m + 1, int(columns.max()) + 1)
        for row, (u, v) in enumerate(flow_lp.edge_keys):
            expected = np.zeros(A.shape[1])
            if u != net.source:
                expected[columns[u]] = -1.0
            if v != net.source:
                expected[columns[v]] = 1.0
            np.testing.assert_array_equal(A[row], expected)
        expected = np.zeros(A.shape[1])
        expected[columns[net.sink]] = -1.0
        np.testing.assert_array_equal(A[-1], expected)
        assert np.linalg.matrix_rank(A) == A.shape[1]
        np.testing.assert_array_equal(flow_lp.problem.b, 0.0)

    def test_max_flow_plus_its_value_is_a_circulation(self):
        net = generators.random_flow_network(8, seed=10)
        value, witness = edmonds_karp_max_flow(net)
        flow_lp = build_fixed_value_lp(net)
        x = np.array([witness[key] for key in flow_lp.edge_keys] + [value])
        np.testing.assert_allclose(flow_lp.problem.AT @ x, 0.0, atol=1e-9)
        # a flow of the wrong value is not
        x[-1] += 1.0
        assert np.max(np.abs(flow_lp.problem.AT @ x)) == pytest.approx(1.0)

    def test_arc_less_vertex_has_no_column(self):
        net = arc_less_network()
        np.testing.assert_array_equal(net.lp_columns(), [-1, 0, 1, 2, -1])
        A = build_fixed_value_lp(net).problem.A.toarray()
        assert A.shape == (net.m + 1, 3)
        assert np.all(np.any(A != 0.0, axis=0))

    def test_sink_without_arcs_keeps_its_column(self):
        net = FlowNetwork(4, 0, 3, [(0, 1, 2, 1), (1, 2, 2, 1)])
        np.testing.assert_array_equal(net.lp_columns(), [-1, 0, 1, 2])
        flow_lp = build_fixed_value_lp(net)
        assert flow_lp.value_bound == 0.0
        np.testing.assert_array_equal(flow_lp.problem.A.toarray()[-1], [0.0, 0.0, -1.0])

    def test_gram_matrix_is_sdd(self):
        """Lemma 5.1: A^T D A is symmetric diagonally dominant for diagonal D."""
        net = generators.random_flow_network(8, seed=11)
        flow_lp = build_fixed_value_lp(net)
        rng = np.random.default_rng(12)
        D = rng.uniform(0.5, 2.0, size=flow_lp.problem.m)
        A = flow_lp.problem.A.toarray()
        assert is_symmetric_diagonally_dominant(A.T @ (D[:, None] * A))


class TestObjectiveAndBox:
    def test_costs_are_the_edges_then_minus_the_reward(self):
        net = generators.random_flow_network(9, seed=4, max_cost=7)
        flow_lp = build_fixed_value_lp(net)
        reward = (net.n - 1) * net.max_cost_magnitude() + 1.0
        assert flow_lp.reward == reward
        np.testing.assert_array_equal(flow_lp.problem.c, np.append(net.costs(), -reward))

    def test_passed_costs_price_the_edges_and_not_f(self):
        net = generators.random_flow_network(9, seed=5)
        perturbed = net.costs() + 1e-3
        flow_lp = build_fixed_value_lp(net, costs=perturbed)
        np.testing.assert_array_equal(flow_lp.problem.c[:-1], perturbed)
        assert flow_lp.problem.c[-1] == -flow_lp.reward

    def test_value_bound_is_the_smaller_terminal_cut(self):
        net = FlowNetwork(4, 0, 3, [(0, 1, 5, 0), (0, 2, 4, 0), (1, 3, 3, 0), (2, 3, 2, 0)])
        assert build_fixed_value_lp(net).value_bound == 5.0  # min(9, 5)
        net.add_edge(2, 3, 7, 0)
        assert build_fixed_value_lp(net).value_bound == 9.0  # min(9, 10)

    @pytest.mark.parametrize("delta", [0.0, 1e-3, 0.5])
    def test_box_relaxation_widens_every_bound(self, delta):
        net = generators.random_flow_network(8, seed=13)
        flow_lp = build_fixed_value_lp(net, box_relaxation=delta)
        np.testing.assert_array_equal(flow_lp.problem.lower, -delta)
        np.testing.assert_array_equal(
            flow_lp.problem.upper, np.append(net.capacities(), flow_lp.value_bound) + delta
        )

    def test_extract_flow_drops_the_value(self):
        net = generators.random_flow_network(8, seed=9)
        flow_lp = build_fixed_value_lp(net)
        midpoint = (flow_lp.problem.lower + flow_lp.problem.upper) / 2.0
        flow = flow_lp.extract_flow(midpoint)
        assert list(flow) == net.edge_keys()
        for key, value in flow.items():
            assert value == pytest.approx(net.edge(*key).capacity / 2.0)
