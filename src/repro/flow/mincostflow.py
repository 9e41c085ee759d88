"""The end-to-end minimum cost maximum flow pipeline (Theorem 1.1).

The Broadcast Congested Clique algorithm of the paper plugs the LP formulation
of Section 5 into the Lee-Sidford solver, solving every Newton system with the
SDD/Laplacian machinery of Lemma 5.1, and finally rounds the near-optimal
fractional solution to an exact integral flow.

The default engine here follows the same outline with the numerically robust
pieces documented in ``docs/substitutions.md`` (sections 3 and 6):

1. the maximum flow value ``F*`` is fixed (combinatorially, or by an LP phase
   maximising ``F`` -- the paper folds this into one LP via the large reward on
   ``F``, which needs more float64 head-room than laptop hardware offers);
2. the fixed-value LP ``min q~^T x, B x = F* e_t, 0 <= x <= c`` with
   Daitch-Spielman-perturbed costs is solved by an interior point engine whose
   Newton systems are ``A^T D A`` solves (chargeable to the SDD solver of
   Lemma 5.1) -- by default the primal-dual predictor-corrector of
   :mod:`repro.lp.barrier_ipm`, stopped on its measured duality gap;
3. the fractional solution is rounded edge-wise to the nearest integer and
   certified optimal in O(m) with the engine's duals as potentials
   (Goldberg-Tarjan eps-optimality).  If the rounded vector is not a
   certified feasible optimal flow (which the paper's uniqueness argument
   rules out w.h.p., but float64 can spoil, and an engine without duals
   cannot certify), an exact combinatorial correction replaces it and the
   event is reported.

Round accounting follows Theorem 1.1: ``Õ(sqrt(n))`` path-following iterations,
each costing ``Õ(log M)`` rounds of matrix-vector products plus SDD solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.congest.ledger import CommunicationPrimitives, RoundLedger
from repro.flow.baselines import edmonds_karp_max_flow, successive_shortest_paths
from repro.flow.lp_formulation import FlowLP, build_fixed_value_lp
from repro.graphs.digraph import FlowNetwork
from repro.lp.barrier_ipm import BarrierIPM
from repro.lp.lee_sidford import LeeSidfordSolver
from repro.lp.problem import LPSolution

EdgeKey = Tuple[int, int]

#: default LP accuracy relative to the cost scale: one decade inside the
#: loosest value at which the rounded optimum still certified on every
#: network of the tests' seeded families (``docs/substitutions.md`` section 6)
DEFAULT_EPS_SCALE = 1e-9


@dataclass
class MinCostFlowResult:
    """Exact minimum cost maximum flow plus diagnostics."""

    flow: Dict[EdgeKey, float]
    value: float
    cost: float
    rounds: float = 0.0
    lp_iterations: int = 0
    rounding_fallback: bool = False
    fractional_cost: Optional[float] = None
    ledger: Optional[RoundLedger] = None
    #: serving statistics of the plugged gram-solver bridge (None off the
    #: serving path); see :class:`repro.lp.gram.GramBridgeStats.as_dict`.
    gram_stats: Optional[Dict[str, Any]] = None

    def as_integers(self) -> Dict[EdgeKey, int]:
        """The flow with integer values (valid because the result is exact)."""
        return {key: int(round(f)) for key, f in self.flow.items()}


def theorem_round_bound(n: int, M: float) -> float:
    """The ``Õ(sqrt(n) log^3 M)`` round bound of Theorem 1.1 (up to constants)."""
    n = max(2, int(n))
    M = max(2.0, float(M))
    return math.sqrt(n) * (math.log2(M) ** 3) * (math.log2(n) ** 2)


def _phase_one_max_flow(
    network: FlowNetwork,
    comm: CommunicationPrimitives,
) -> Tuple[float, Dict[EdgeKey, float]]:
    """Fix the maximum flow value ``F*`` (and return a witnessing max flow).

    The paper determines ``F*`` implicitly through the reward term of the
    Section 5 LP; here it is computed exactly and its communication is charged
    as one LP solve worth of rounds (an upper bound: ``F*`` could equally be
    found by binary search over ``Õ(log(nM))`` feasibility LPs, Section 2.4).
    """
    value, flow = edmonds_karp_max_flow(network)
    comm.ledger.charge(
        "phase1_max_flow",
        theorem_round_bound(network.n, max(network.max_capacity(), 2.0)),
        "flow value fixed via the Section 2.4 binary search (charged at the theorem bound)",
    )
    return float(round(value)), flow


def _round_and_certify(
    network: FlowNetwork,
    flow_lp: FlowLP,
    solution: LPSolution,
    target_value: float,
) -> Tuple[Dict[EdgeKey, float], bool]:
    """Round the LP flow edge-wise and certify it; returns ``(flow, ok)``.

    ``ok`` means the rounded flow is feasible, has the right value and is
    optimal.  Optimality is certified in O(m) by Goldberg-Tarjan
    eps-optimality with the LP duals as potentials (source 0): the reduced
    costs ``c - A y`` of the *integral* costs are the arc costs up to a
    potential difference, so when every residual arc has reduced cost
    ``> -1/n``, every residual cycle (at most ``n`` arcs) costs ``> -1``,
    hence ``>= 0`` -- and no negative residual cycle means optimal.  A
    solution without duals is uncertified.
    """
    # the fixed-value LP's variables are the edge flows; + 0.0 turns -0.0 into 0.0
    x = np.round(solution.x) + 0.0
    rounded = dict(zip(flow_lp.edge_keys, x.tolist()))
    ok = (
        solution.y is not None
        and network.is_feasible_flow(rounded, tol=1e-6)
        and math.isclose(network.flow_value(rounded), target_value, abs_tol=1e-6)
    )
    if ok:
        reduced = network.costs() - flow_lp.problem.A @ solution.y
        slack = 1.0 / network.n
        ok = bool(
            np.all(reduced[x < network.capacities()] > -slack) and np.all(reduced[x > 0] < slack)
        )
    return rounded, ok


def min_cost_max_flow(
    network: FlowNetwork,
    engine: str = "barrier",
    seed: Optional[int] = None,
    eps_scale: float = DEFAULT_EPS_SCALE,
    perturb: bool = True,
    verify_against_baseline: bool = False,
    gram_solver_factory: Optional[Callable[..., Any]] = None,
    phase_one: Optional[Tuple[float, Dict[EdgeKey, float]]] = None,
    resistance_oracle: Optional[Any] = None,
) -> MinCostFlowResult:
    """Compute an exact minimum cost maximum ``s``-``t`` flow (Theorem 1.1).

    Parameters
    ----------
    network:
        Directed graph with integral capacities and costs.
    engine:
        ``"barrier"`` (the primal-dual predictor-corrector, default) or
        ``"lee-sidford"`` (the faithful weighted-path-following solver;
        slower, small instances; it keeps no duals, so its rounded flow is
        never certified and always takes the exact correction).
    seed:
        Seed for the cost perturbation and any randomised subroutine.
    eps_scale:
        The LP is solved to duality gap ``eps_scale`` times the cost scale;
        at the default the rounded optimum certifies on integral instances.
    verify_against_baseline:
        If True, cross-check the result against the successive-shortest-path
        baseline and raise if they disagree (used in tests and experiments).
    gram_solver_factory:
        Serving hook: called with the built :class:`FlowLP` and expected to
        return a ``gram_solver`` callable (typically a
        :class:`~repro.lp.gram.GramSolverBridge` wired to an artifact cache)
        that is plugged into the LP before solving; its serving statistics
        are reported in :attr:`MinCostFlowResult.gram_stats`.  Without it the
        LP solves through the same bridge with no cache attached
        (:func:`~repro.lp.gram.default_gram_solver`).
    phase_one:
        Optional precomputed ``(max_flow_value, witness_flow)`` pair (a cached
        serving artifact); the communication ledger is still charged at the
        theorem bound for fixing ``F*``.
    resistance_oracle:
        Serving hook forwarded to the ``"lee-sidford"`` engine's graph-mode
        Lewis-weight computations (ignored by ``"barrier"``); see
        :class:`~repro.lp.lee_sidford.LeeSidfordSolver`.
    """
    if engine not in ("barrier", "lee-sidford"):
        raise ValueError(f"unknown engine {engine!r}; use 'barrier' or 'lee-sidford'")
    rng = np.random.default_rng(seed)
    ledger = RoundLedger()
    M = max(2.0, network.max_capacity(), network.max_cost_magnitude())
    comm = CommunicationPrimitives(network.n, ledger, value_magnitude=M, precision=eps_scale)

    # Phase 1: the maximum flow value (plus a witnessing, not necessarily
    # cheapest, max flow used as the interior starting point).
    if phase_one is not None:
        target_value, witness_flow = phase_one
        target_value = float(round(target_value))
        comm.ledger.charge(
            "phase1_max_flow",
            theorem_round_bound(network.n, max(network.max_capacity(), 2.0)),
            "flow value fixed via the Section 2.4 binary search (cached witness)",
        )
    else:
        target_value, witness_flow = _phase_one_max_flow(network, comm)

    if target_value <= 0:
        zero = network.zero_flow()
        return MinCostFlowResult(flow=zero, value=0.0, cost=0.0, rounds=ledger.total_rounds, ledger=ledger)

    # Phase 2: minimum cost flow of that value, via the LP formulation.  The
    # box is relaxed by a tiny delta because min-cut edges are saturated in
    # every flow of value F*, so the unrelaxed box has no strict interior.
    costs = network.costs()
    if perturb:
        granularity = 1.0 / (4.0 * network.m * network.m * M * M)
        perturbed = costs + granularity * rng.integers(1, 2 * network.m * int(M) + 1, size=network.m)
    else:
        perturbed = costs.copy()
    box_delta = 1e-3
    flow_lp = build_fixed_value_lp(
        network, target_value, costs=perturbed, box_relaxation=box_delta
    )
    bridge = None
    if gram_solver_factory is not None:
        bridge = gram_solver_factory(flow_lp)
        flow_lp.problem.gram_solver = bridge

    base = np.array([witness_flow[key] for key in flow_lp.edge_keys])
    interior = base  # strictly inside the relaxed box, satisfies B x = F* e_t
    capacities = network.capacities()

    cost_scale = float(np.max(np.abs(perturbed)) * max(1.0, float(np.max(capacities))) * network.m)
    eps = eps_scale * max(1.0, cost_scale)

    lp_iterations = 0
    fractional_cost = None
    ok = False
    if flow_lp.problem.is_strictly_feasible(interior, tol=1e-6):
        if engine == "barrier":
            solver = BarrierIPM(flow_lp.problem, comm=comm)
            solution = solver.solve(interior, eps=eps)
        else:
            solver = LeeSidfordSolver(
                flow_lp.problem, comm=comm, seed=seed, resistance_oracle=resistance_oracle
            )
            solution = solver.solve(interior, eps=eps)
        lp_iterations = solution.iterations
        fractional_cost = network.flow_cost(flow_lp.extract_flow(solution.x))
        flow, ok = _round_and_certify(network, flow_lp, solution, target_value)

    if not ok:
        # Exact combinatorial correction (the event the paper's uniqueness
        # argument makes unlikely; reported so experiments can count it).
        _v, _c, flow = successive_shortest_paths(network, target_value=target_value)

    cost = network.flow_cost(flow)
    if verify_against_baseline:
        base_value, base_cost, _ = successive_shortest_paths(network)
        if not math.isclose(base_value, target_value, abs_tol=1e-6) or cost > base_cost + 1e-6:
            raise AssertionError(
                f"min-cost flow mismatch: value {target_value} vs {base_value}, "
                f"cost {cost} vs {base_cost}"
            )

    gram_stats = None
    if bridge is not None and hasattr(bridge, "stats"):
        gram_stats = bridge.stats.as_dict()
    return MinCostFlowResult(
        flow=flow,
        value=float(target_value),
        cost=float(cost),
        rounds=ledger.total_rounds,
        lp_iterations=lp_iterations,
        rounding_fallback=not ok,
        fractional_cost=fractional_cost,
        ledger=ledger,
        gram_stats=gram_stats,
    )
