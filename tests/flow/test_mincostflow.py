"""End-to-end tests for the Theorem 1.1 min-cost max-flow pipeline."""

import ast
from pathlib import Path

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
        assert fallbacks == 0

    def test_zero_max_flow(self):
        net = FlowNetwork(4, source=0, sink=3)
        net.add_edge(0, 1, capacity=2, cost=1)
        net.add_edge(2, 3, capacity=2, cost=1)  # sink unreachable from source
        result = min_cost_max_flow(net, seed=1)
        assert result.value == 0.0
        assert result.cost == 0.0

    def test_detour_one_cost_unit_dearer_is_avoided(self):
        """The instance non-integral costs got wrong (a detour costing 0.01
        reported as an exact optimum on most seeds), with that cost now an
        integer: every seed's rounding certifies the free route."""
        net = FlowNetwork(4, source=0, sink=3)
        net.add_edge(0, 1, capacity=1, cost=0)
        net.add_edge(1, 3, capacity=1, cost=1)
        net.add_edge(1, 2, capacity=1, cost=0)
        net.add_edge(2, 3, capacity=1, cost=0)
        for seed in range(40):
            result = min_cost_max_flow(net, seed=seed)
            assert (result.value, result.cost, result.rounding_fallback) == (1.0, 0.0, False)
            assert result.flow[(1, 3)] == 0.0

    def test_unperturbed_mode_still_exact(self):
        net = generators.random_flow_network(9, seed=33, max_capacity=5, max_cost=4)
        result = min_cost_max_flow(net, seed=3, perturb=False, verify_against_baseline=True)
        value, cost, _ = networkx_min_cost_max_flow(net)
        assert result.cost == pytest.approx(cost)


def terminal_arcs_networks():
    """Arcs into s, arcs out of t and a t -> s arc, none of which the generators make."""
    networks = []
    for seed in range(6):
        net = generators.layered_flow_network(4, 3, seed=seed)
        rng = np.random.default_rng(seed)
        inner = [v for v in range(net.n) if v not in (net.source, net.sink)]
        for v in rng.choice(inner, size=2, replace=False):
            net.add_edge(int(v), net.source, int(rng.integers(1, 6)), int(rng.integers(0, 6)))
        for v in rng.choice(inner, size=2, replace=False):
            net.add_edge(net.sink, int(v), int(rng.integers(1, 6)), int(rng.integers(0, 6)))
        net.add_edge(net.sink, net.source, int(rng.integers(1, 6)), int(rng.integers(0, 6)))
        networks.append(net)
    return networks


class TestTerminalArcs:
    """The flow value is net flow into t; arcs that leave t or enter s only
    ever carry flow around a cycle, which the LP prices like any other."""

    @pytest.mark.parametrize("index", range(6))
    def test_matches_networkx(self, index):
        net = terminal_arcs_networks()[index]
        result = min_cost_max_flow(net, seed=index)
        value, cost, _ = networkx_min_cost_max_flow(net)
        assert (result.value, result.cost) == (value, cost)
        assert net.is_feasible_flow(result.flow)
        assert net.flow_value(result.flow) == value

    def test_negative_cost_return_arc(self):
        """A t -> s arc of negative cost: the min-cost circulation runs flow
        round it, and the flow value nets it out."""
        net = FlowNetwork(4, source=0, sink=3)
        net.add_edge(0, 1, capacity=2, cost=1)
        net.add_edge(1, 3, capacity=2, cost=1)
        net.add_edge(0, 2, capacity=1, cost=0)
        net.add_edge(2, 3, capacity=1, cost=1)
        net.add_edge(3, 0, capacity=1, cost=-5)
        result = min_cost_max_flow(net, seed=0)
        value, cost, _ = networkx_min_cost_max_flow(net)
        assert (result.value, result.cost) == (value, cost)


#: seeded network families the rounding must certify on: ``{name: (make, seeds)}``
FAMILIES = {
    "random": (lambda seed: generators.random_flow_network(40, seed=seed), range(40)),
    "layered": (lambda seed: generators.layered_flow_network(8, 6, seed=seed), range(40)),
    "unit-capacity": (
        lambda seed: generators.layered_flow_network(8, 6, max_capacity=1, seed=seed),
        range(40),
    ),
}

#: 200 networks with m from 1.4 k to 15 k (``-m slow``, about 2 minutes)
SLOW_FAMILIES = {
    "random-300": (lambda seed: generators.random_flow_network(300, seed=seed), range(40)),
    "random-800": (lambda seed: generators.random_flow_network(800, seed=seed), range(40)),
    "random-800-dense": (
        lambda seed: generators.random_flow_network(800, average_degree=18, seed=seed),
        range(10),
    ),
    "layered-20x16": (lambda seed: generators.layered_flow_network(20, 16, seed=seed), range(30)),
    "layered-32x24": (lambda seed: generators.layered_flow_network(32, 24, seed=seed), range(10)),
    "unit-capacity-24x16": (
        lambda seed: generators.layered_flow_network(24, 16, max_capacity=1, seed=seed),
        range(40),
    ),
    "capacity-100-20x16": (
        lambda seed: generators.layered_flow_network(20, 16, max_capacity=100, seed=seed),
        range(30),
    ),
}


def count_fallbacks(families, **kwargs):
    """Run every family's networks; assert each answer exact, count fallbacks."""
    fallbacks = 0
    for name, (make, seeds) in families.items():
        for seed in seeds:
            net = make(seed)
            result = min_cost_max_flow(net, seed=seed, **kwargs)
            value, cost, _ = successive_shortest_paths(net)
            assert (result.value, result.cost) == (value, cost), (name, seed)
            fallbacks += result.rounding_fallback
    return fallbacks


class TestSeededFamilies:
    """The LP stops at the duality gap the perturbation's isolation needs
    (``docs/substitutions.md`` section 6), so the IPM's rounded flow is the
    answer on (nearly) every network; the primal loop this engine replaced
    fell back on about 40 %, and a fixed stopping gap fell back above m of
    about 4 k."""

    def test_exact_without_fallback(self):
        assert count_fallbacks(FAMILIES) == 0

    @pytest.mark.parametrize(
        "layers, width, cost", [(24, 16, 568.0), (32, 24, 641.0)], ids=["24x16", "32x24"]
    )
    def test_large_layered_network_without_fallback(self, layers, width, cost):
        """m = 4 161 and 12 630: a stopping gap fixed relative to the cost
        scale fell back on both (the costs are ``successive_shortest_paths``')."""
        result = min_cost_max_flow(generators.layered_flow_network(layers, width, seed=3), seed=1)
        assert not result.rounding_fallback
        assert result.cost == cost

    def test_perturbation_isolates_the_optimum(self):
        """Without the perturbation ties survive to the rounding, which then
        falls back on 9 of 40 small networks; with it on none."""
        family = {
            "random-20": (lambda seed: generators.random_flow_network(20, seed=seed), range(40))
        }
        assert count_fallbacks(family, perturb=False) == 9
        assert count_fallbacks(family) == 0

    @pytest.mark.slow
    def test_large_families_exact_and_rarely_fall_back(self):
        """At most 1 % of the 200 fall back (measured: two, the layered 32x24
        networks at seeds 0 and 7, whose iterates stall near a gap of 2e-6)."""
        assert count_fallbacks(SLOW_FAMILIES) <= 2


def expensive_witness_network():
    """Max flow 1 through vertex 1: Edmonds-Karp's shortest path ``0-1-3``
    costs 10, the optimum ``0-1-2-3`` costs 0."""
    net = FlowNetwork(4, source=0, sink=3)
    net.add_edge(0, 1, capacity=1, cost=0)
    net.add_edge(1, 3, capacity=1, cost=10)
    net.add_edge(1, 2, capacity=1, cost=0)
    net.add_edge(2, 3, capacity=1, cost=0)
    return net


def disconnected_network():
    """Two arcs with no path between them: the maximum flow is 0."""
    net = FlowNetwork(4, source=0, sink=3)
    net.add_edge(0, 1, capacity=2, cost=1)
    net.add_edge(2, 3, capacity=2, cost=1)
    return net


class TestOptimalityCertificate:
    @pytest.mark.parametrize("duals", [None, "zero"])
    def test_costly_max_flow_falls_back(self, monkeypatch, duals):
        """An engine that returns a feasible but costly maximum flow (the
        Edmonds-Karp one) must not be reported as the exact answer."""
        net = expensive_witness_network()
        value, witness = edmonds_karp_max_flow(net)
        assert witness[(1, 3)] == 1.0

        def return_witness(self, x0, eps=1e-8):
            x = np.array([witness[key] for key in net.edge_keys()] + [value])
            y = None if duals is None else np.zeros(self.problem.n)
            return LPSolution(x=x, objective=self.problem.objective(x), iterations=0, y=y)

        monkeypatch.setattr(BarrierIPM, "solve", return_witness)
        result = min_cost_max_flow(net, seed=0)
        assert result.rounding_fallback
        assert result.cost == successive_shortest_paths(net)[1] == 0.0

    def test_flow_short_of_the_maximum_falls_back(self, monkeypatch):
        """The zero flow is the cheapest flow of its value; the certificate
        still refuses it, because its augmenting path plus ``F`` is a
        residual cycle of cost at most -1."""

        def return_zero(self, x0, eps=1e-8):
            x = np.zeros(self.problem.m)
            return LPSolution(x=x, objective=0.0, iterations=0, y=np.zeros(self.problem.n))

        monkeypatch.setattr(BarrierIPM, "solve", return_zero)
        result = min_cost_max_flow(expensive_witness_network(), seed=0)
        assert result.rounding_fallback
        assert (result.value, result.cost) == (1.0, 0.0)

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

    @pytest.mark.parametrize(
        "net",
        [
            generators.layered_flow_network(6, 5, seed=2),
            disconnected_network(),
        ],
        ids=["layered-6x5", "zero-max-flow"],
    )
    def test_ledger_holds_only_ipm_operations(self, net):
        """One LP fixes the flow value: nothing charges a phase 1."""
        result = min_cost_max_flow(net, seed=0)
        operations = {entry.operation for entry in result.ledger.entries}
        assert operations == {"matvec", "laplacian_solve"}
        assert result.rounds == result.ledger.total_rounds
        assert result.rounds == sum(
            entry.rounds for entry in result.ledger.entries if entry.operation == "matvec"
        ) + 2 * result.lp_iterations


SRC = Path(__file__).resolve().parents[2] / "src"


def test_nothing_in_src_calls_theorem_round_bound():
    """The Theorem 1.1 bound is what the charged rounds are compared with,
    never a charge: only its definition may mention it in ``src/``."""
    mentions = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.asname or node.name.rsplit(".", 1)[-1]
            if name == "theorem_round_bound":
                mentions.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert mentions == []
