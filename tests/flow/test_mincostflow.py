"""End-to-end tests for the Theorem 1.1 min-cost max-flow pipeline."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.digraph import FlowNetwork
from repro.flow import (
    edmonds_karp_max_flow,
    min_cost_max_flow,
    networkx_min_cost_max_flow,
    successive_shortest_paths,
)
from repro.flow.mincostflow import theorem_round_bound
from repro.lp import BarrierIPM, LPSolution


class TestExactness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exact_baseline_random_networks(self, seed):
        net = generators.random_flow_network(10, seed=seed, max_capacity=8, max_cost=6)
        result = min_cost_max_flow(net, seed=seed, verify_against_baseline=True)
        value, cost, _ = networkx_min_cost_max_flow(net)
        assert result.value == pytest.approx(value)
        assert result.cost == pytest.approx(cost)
        assert net.is_feasible_flow(result.flow)

    def test_flow_is_integral(self):
        net = generators.random_flow_network(10, seed=21, max_capacity=5, max_cost=4)
        result = min_cost_max_flow(net, seed=21)
        assert all(abs(f - round(f)) < 1e-9 for f in result.flow.values())

    def test_layered_network(self):
        net = generators.layered_flow_network(3, 3, seed=2)
        result = min_cost_max_flow(net, seed=2, verify_against_baseline=True)
        value, cost, _ = networkx_min_cost_max_flow(net)
        assert result.value == pytest.approx(value)
        assert result.cost == pytest.approx(cost)

    def test_lp_rounding_usually_succeeds_without_fallback(self):
        fallbacks = 0
        for seed in range(6):
            net = generators.random_flow_network(9, seed=seed + 50, max_capacity=6, max_cost=5)
            result = min_cost_max_flow(net, seed=seed, verify_against_baseline=True)
            fallbacks += int(result.rounding_fallback)
        assert fallbacks <= 1

    def test_zero_max_flow(self):
        net = FlowNetwork(4, source=0, sink=3)
        net.add_edge(0, 1, capacity=2, cost=1)
        net.add_edge(2, 3, capacity=2, cost=1)  # sink unreachable from source
        result = min_cost_max_flow(net, seed=1)
        assert result.value == 0.0
        assert result.cost == 0.0

    def test_unperturbed_mode_still_exact(self):
        net = generators.random_flow_network(9, seed=33, max_capacity=5, max_cost=4)
        result = min_cost_max_flow(net, seed=3, perturb=False, verify_against_baseline=True)
        value, cost, _ = networkx_min_cost_max_flow(net)
        assert result.cost == pytest.approx(cost)


#: seeded network families the rounding must certify on
FAMILIES = {
    "random": lambda seed: generators.random_flow_network(40, seed=seed),
    "layered": lambda seed: generators.layered_flow_network(8, 6, seed=seed),
    "unit-capacity": lambda seed: generators.layered_flow_network(8, 6, max_capacity=1, seed=seed),
}


def count_fallbacks(seeds, **kwargs):
    """Run every family over ``seeds``; assert each answer exact, count fallbacks."""
    fallbacks = 0
    for name, make in FAMILIES.items():
        for seed in seeds:
            net = make(seed)
            result = min_cost_max_flow(net, seed=seed, **kwargs)
            value, cost, _ = successive_shortest_paths(net)
            assert (result.value, result.cost) == (value, cost), (name, seed)
            fallbacks += result.rounding_fallback
    return fallbacks


class TestSeededFamilies:
    def test_exact_without_fallback(self):
        """120 networks: every answer exact, and the IPM's own rounding supplies
        nearly all of them (the primal loop this engine replaced fell back on
        about 40 %)."""
        assert count_fallbacks(range(40)) <= 2

    @pytest.mark.parametrize("eps_scale", [1e-10, 1e-11])
    def test_tighter_eps_never_raises(self, eps_scale):
        assert count_fallbacks(range(10), eps_scale=eps_scale) <= 2


def expensive_witness_network():
    """Max flow 1 through vertex 1: Edmonds-Karp's shortest path ``0-1-3``
    costs 10, the optimum ``0-1-2-3`` costs 0."""
    net = FlowNetwork(4, source=0, sink=3)
    net.add_edge(0, 1, capacity=1, cost=0)
    net.add_edge(1, 3, capacity=1, cost=10)
    net.add_edge(1, 2, capacity=1, cost=0)
    net.add_edge(2, 3, capacity=1, cost=0)
    return net


class TestOptimalityCertificate:
    @pytest.mark.parametrize("duals", [None, "zero"])
    def test_uncertified_start_point_falls_back(self, monkeypatch, duals):
        """An engine that returns its starting point (the feasible but costly
        Edmonds-Karp witness) must not be reported as the exact answer."""

        def return_start(self, x0, eps=1e-8):
            y = None if duals is None else np.zeros(self.problem.n)
            return LPSolution(x=np.array(x0), objective=self.problem.objective(x0), iterations=0, y=y)

        monkeypatch.setattr(BarrierIPM, "solve", return_start)
        net = expensive_witness_network()
        assert edmonds_karp_max_flow(net)[1][(1, 3)] == 1.0
        result = min_cost_max_flow(net, seed=0)
        assert result.rounding_fallback
        assert result.cost == successive_shortest_paths(net)[1] == 0.0

    def test_ipm_answer_is_certified(self):
        result = min_cost_max_flow(expensive_witness_network(), seed=0)
        assert not result.rounding_fallback and result.cost == 0.0


class TestDiagnostics:
    def test_rounds_and_iterations_reported(self):
        net = generators.random_flow_network(10, seed=4)
        result = min_cost_max_flow(net, seed=4)
        assert result.rounds > 0
        assert result.lp_iterations > 0
        assert result.ledger is not None
        assert result.ledger.rounds_by_operation()["laplacian_solve"] > 0

    def test_both_solves_of_every_iteration_are_charged(self):
        """Predictor and corrector: two Laplacian solves and four matvecs each."""
        result = min_cost_max_flow(generators.layered_flow_network(4, 4, seed=1), seed=1)
        operations = [entry.operation for entry in result.ledger.entries]
        assert result.ledger.rounds_by_operation()["laplacian_solve"] == 2 * result.lp_iterations
        assert operations.count("laplacian_solve") == 2 * result.lp_iterations
        assert operations.count("matvec") == 4 * result.lp_iterations

    def test_fractional_cost_close_to_exact_cost(self):
        net = generators.random_flow_network(10, seed=5, max_capacity=6, max_cost=5)
        result = min_cost_max_flow(net, seed=5)
        if result.fractional_cost is not None and not result.rounding_fallback:
            assert result.fractional_cost == pytest.approx(result.cost, rel=0.05, abs=1.0)

    def test_theorem_round_bound_monotone(self):
        assert theorem_round_bound(100, 16) > theorem_round_bound(25, 16)
        assert theorem_round_bound(64, 64) > theorem_round_bound(64, 4)
