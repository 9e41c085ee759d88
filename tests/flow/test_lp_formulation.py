"""Tests for the Section 5 LP formulations of min-cost max-flow."""

import numpy as np
import pytest
from reference_dense import is_symmetric_diagonally_dominant

from repro.graphs import generators
from repro.flow.baselines import edmonds_karp_max_flow
from repro.flow.lp_formulation import (
    build_fixed_value_lp,
    build_flow_lp,
    daitch_spielman_perturbation,
)


class TestSectionFiveLP:
    def test_interior_point_strictly_feasible(self):
        for seed in range(4):
            net = generators.random_flow_network(9, seed=seed)
            flow_lp = build_flow_lp(net, seed=seed)
            assert flow_lp.problem.is_strictly_feasible(flow_lp.interior_point, tol=1e-6)

    def test_constraint_matrix_shape_and_rank(self):
        net = generators.random_flow_network(8, seed=5)
        flow_lp = build_flow_lp(net, seed=5)
        A = flow_lp.problem.A
        n_constraints = net.n - 1
        assert A.shape == (net.m + 2 * n_constraints + 1, n_constraints)
        assert np.linalg.matrix_rank(A) == n_constraints

    def test_gram_matrix_is_sdd(self):
        """Lemma 5.1: A^T D A is symmetric diagonally dominant for diagonal D."""
        net = generators.random_flow_network(8, seed=6)
        flow_lp = build_flow_lp(net, seed=6)
        rng = np.random.default_rng(7)
        D = rng.uniform(0.5, 2.0, size=flow_lp.problem.m)
        gram = flow_lp.problem.A.T @ (D[:, None] * flow_lp.problem.A)
        assert is_symmetric_diagonally_dominant(gram)

    def test_objective_rewards_flow_and_penalises_slack(self):
        net = generators.random_flow_network(8, seed=8)
        flow_lp = build_flow_lp(net, seed=8)
        c = flow_lp.problem.c
        blocks = flow_lp.blocks
        assert np.all(c[blocks["y"]] > 0)
        assert np.all(c[blocks["z"]] > 0)
        assert c[blocks["F"]][0] < 0
        # the flow reward dominates any single edge cost
        assert -c[blocks["F"]][0] > np.max(np.abs(c[blocks["x"]]))

    def test_extract_flow_roundtrip(self):
        net = generators.random_flow_network(8, seed=9)
        flow_lp = build_flow_lp(net, seed=9)
        flow = flow_lp.extract_flow(flow_lp.interior_point)
        assert set(flow) == set(net.edge_keys())
        for key, value in flow.items():
            assert value == pytest.approx(net.edge(*key).capacity / 2.0)


class TestFixedValueLP:
    def test_equality_encodes_flow_value(self):
        net = generators.random_flow_network(8, seed=10)
        target, witness = edmonds_karp_max_flow(net)
        flow_lp = build_fixed_value_lp(net, target, box_relaxation=1e-3)
        x = np.array([witness[key] for key in flow_lp.edge_keys])
        np.testing.assert_allclose(flow_lp.problem.equality_residual(x), 0.0, atol=1e-9)
        assert flow_lp.problem.is_strictly_feasible(x, tol=1e-6)
        # the witness flow is the start; this formulation names no interior point
        assert flow_lp.interior_point is None

    def test_gram_matrix_is_sdd(self):
        net = generators.random_flow_network(8, seed=11)
        flow_lp = build_fixed_value_lp(net, 1.0)
        rng = np.random.default_rng(12)
        D = rng.uniform(0.5, 2.0, size=flow_lp.problem.m)
        A = flow_lp.problem.A.toarray()  # the formulation always builds CSR
        assert is_symmetric_diagonally_dominant(A.T @ (D[:, None] * A))

    def test_box_relaxation_widens_bounds(self):
        net = generators.random_flow_network(8, seed=13)
        tight = build_fixed_value_lp(net, 1.0)
        relaxed = build_fixed_value_lp(net, 1.0, box_relaxation=0.5)
        assert np.all(relaxed.problem.lower < tight.problem.lower)
        assert np.all(relaxed.problem.upper > tight.problem.upper)


class TestPerturbation:
    def test_perturbed_costs_are_integral_and_ordered(self):
        rng = np.random.default_rng(14)
        costs = np.array([3.0, 0.0, 7.0])
        perturbed, scale = daitch_spielman_perturbation(costs, max_cost=7, rng=rng)
        assert np.allclose(perturbed, np.round(perturbed))
        # the perturbation never reorders costs that differ by >= 1
        assert perturbed[2] > perturbed[0] > perturbed[1]
        assert scale > 1
