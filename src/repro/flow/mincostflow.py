"""The end-to-end minimum cost maximum flow pipeline (Theorem 1.1).

The Broadcast Congested Clique algorithm of the paper plugs the LP formulation
of Section 5 into the Lee-Sidford solver, solving every Newton system with the
SDD/Laplacian machinery of Lemma 5.1, and finally rounds the near-optimal
fractional solution to an exact integral flow.

This pipeline follows the same outline with the numerically robust pieces
documented in ``docs/substitutions.md`` (sections 3, 4 and 6):

1. the edge costs get a Daitch-Spielman perturbation of granularity
   ``Delta = 1/(4 m^2 M^2)`` so the optimum is unique w.h.p.;
2. one LP, Section 5's without its slacks, fixes the maximum flow value and
   its cheapest flow together: a return variable ``F`` closes the network
   into a circulation and earns a reward ``R`` larger than any augmenting
   path's cost (:func:`~repro.flow.lp_formulation.build_fixed_value_lp`).
   The primal-dual predictor-corrector of :mod:`repro.lp.barrier_ipm`, whose
   Newton systems are ``A^T D A`` solves (chargeable to the SDD solver of
   Lemma 5.1), runs from the middle of the box.  It stops once its measured
   duality gap is below ``m Delta = 1/(4 m M^2)``: on the central path each
   of the ``2m`` complementarity products is ``gap / 2m``, and a non-basic
   arc's dual slack at the isolated optimum is w.h.p. a nonzero multiple of
   ``Delta``, so the arc sits less than 1/2 from its bound;
3. the fractional solution is rounded edge-wise to the nearest integer (the
   flow value is the rounded ``F``) and certified optimal in O(m) with the
   IPM's duals as potentials (Goldberg-Tarjan eps-optimality).  If the
   rounded vector is not a certified feasible optimal circulation (which the
   paper's uniqueness argument rules out w.h.p., but float64 can spoil), an
   exact combinatorial correction replaces it and the event is reported.

Round accounting follows Theorem 1.1: ``Õ(sqrt(n))`` path-following iterations,
each costing ``Õ(log M)`` rounds of matrix-vector products plus SDD solves.
The ledger holds only what the interior point method charges;
:func:`theorem_round_bound` is the bound to compare it with, never a charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.congest.ledger import CommunicationPrimitives, RoundLedger
from repro.flow.baselines import successive_shortest_paths
from repro.flow.lp_formulation import FlowLP, build_fixed_value_lp
from repro.graphs.digraph import FlowNetwork
from repro.lp.barrier_ipm import BarrierIPM
from repro.lp.problem import LPSolution

EdgeKey = Tuple[int, int]


@dataclass
class MinCostFlowResult:
    """Exact minimum cost maximum flow plus diagnostics."""

    flow: Dict[EdgeKey, float]
    value: float
    cost: float
    rounds: float = 0.0
    lp_iterations: int = 0
    rounding_fallback: bool = False
    #: the perturbed LP's flow priced at the true costs; the box relaxation
    #: ``delta`` moves it off the optimum by a small multiple of
    #: ``delta * sum|q~|`` (docs/substitutions.md section 6)
    fractional_cost: Optional[float] = None
    ledger: Optional[RoundLedger] = None
    #: serving statistics of the plugged gram-solver bridge (None off the
    #: serving path); see :class:`repro.lp.gram.GramBridgeStats.as_dict`.
    gram_stats: Optional[Dict[str, Any]] = None


def theorem_round_bound(n: int, M: float) -> float:
    """The ``Õ(sqrt(n) log^3 M)`` round bound of Theorem 1.1 (up to constants)."""
    n = max(2, int(n))
    M = max(2.0, float(M))
    return math.sqrt(n) * (math.log2(M) ** 3) * (math.log2(n) ** 2)


def _round_and_certify(
    network: FlowNetwork,
    flow_lp: FlowLP,
    solution: LPSolution,
) -> Tuple[Dict[EdgeKey, float], float, bool]:
    """Round the LP solution edge-wise and certify it; returns ``(flow, value, ok)``.

    The value is the rounded ``F``.  ``ok`` means the rounded flow is
    feasible, has that value and is optimal for the circulation LP, hence a
    minimum cost maximum flow.  Optimality is certified in O(m) by
    Goldberg-Tarjan eps-optimality with the LP duals as potentials (source
    0): the reduced costs ``c - A y`` of the *integral* costs (``-R`` on
    ``F``, the arc ``t -> s``) are the arc costs up to a potential
    difference, so when every residual arc has reduced cost ``> -1/n``,
    every residual cycle (at most ``n`` arcs) costs ``> -1``, hence ``>= 0``
    -- and no negative residual cycle means optimal.  A flow short of the
    maximum fails too: its augmenting path plus ``F`` is a residual cycle of
    cost at most ``-1``.  A solution without duals is uncertified.
    """
    # + 0.0 turns -0.0 into 0.0
    x = np.round(solution.x) + 0.0
    value = float(x[-1])
    rounded = dict(zip(flow_lp.edge_keys, x[:-1].tolist()))
    ok = (
        solution.y is not None
        and 0.0 <= value <= flow_lp.value_bound
        and network.is_feasible_flow(rounded, tol=1e-6)
        and math.isclose(network.flow_value(rounded), value, abs_tol=1e-6)
    )
    if ok:
        costs = np.append(network.costs(), -flow_lp.reward)
        upper = np.append(network.capacities(), flow_lp.value_bound)
        reduced = costs - flow_lp.problem.A @ solution.y
        slack = 1.0 / network.n
        ok = bool(np.all(reduced[x < upper] > -slack) and np.all(reduced[x > 0] < slack))
    return rounded, value, ok


def min_cost_max_flow(
    network: FlowNetwork,
    seed: Optional[int] = None,
    perturb: bool = True,
    verify_against_baseline: bool = False,
    gram_solver_factory: Optional[Callable[..., Any]] = None,
) -> MinCostFlowResult:
    """Compute an exact minimum cost maximum ``s``-``t`` flow (Theorem 1.1).

    Parameters
    ----------
    network:
        Directed graph with integral capacities and costs.
    seed:
        Seed for the cost perturbation and any randomised subroutine.
    perturb:
        Perturb the costs so the optimum is unique w.h.p.; ``False`` only
        shows what the perturbation buys (the rounding falls back more often).
    verify_against_baseline:
        If True, cross-check the result against the successive-shortest-path
        baseline and raise if they disagree (used in tests and experiments).
    gram_solver_factory:
        Serving hook: called with the built :class:`FlowLP` and expected to
        return a ``gram_solver`` callable (typically a
        :class:`~repro.lp.gram.GramSolverBridge` on a cached structure) that
        is plugged into the LP before solving; its serving statistics are
        reported in :attr:`MinCostFlowResult.gram_stats`.  Without it the LP
        solves through the same bridge, built from ``A``
        (:func:`~repro.lp.gram.default_gram_solver`).
    """
    # The perturbation has granularity Delta, and the LP stops at the duality
    # gap m * Delta that rounds to the isolated optimum (module docstring,
    # docs/substitutions.md section 6); encodings are sized to that gap.  The
    # box is relaxed by a tiny delta because min-cut edges are saturated at
    # every optimum, so the unrelaxed box has no strictly interior optimum.
    ledger = RoundLedger()
    m = max(1, network.m)
    M = max(2.0, network.max_capacity(), network.max_cost_magnitude())
    granularity = 1.0 / (4.0 * m * m * M * M)
    stopping_gap = m * granularity
    comm = CommunicationPrimitives(network.n, ledger, value_magnitude=M, precision=stopping_gap)
    costs = network.costs()
    if perturb:
        rng = np.random.default_rng(seed)
        costs = costs + granularity * rng.integers(1, 2 * m * int(M) + 1, size=network.m)
    flow_lp = build_fixed_value_lp(network, costs=costs, box_relaxation=1e-3)
    bridge = None
    if gram_solver_factory is not None:
        bridge = gram_solver_factory(flow_lp)
        flow_lp.problem.gram_solver = bridge

    problem = flow_lp.problem
    solution = BarrierIPM(problem, comm=comm).solve(
        (problem.lower + problem.upper) / 2.0, eps=stopping_gap
    )
    fractional_cost = network.flow_cost(flow_lp.extract_flow(solution.x))
    flow, value, ok = _round_and_certify(network, flow_lp, solution)
    if not ok:
        # Exact combinatorial correction (the event the paper's uniqueness
        # argument makes unlikely; reported so experiments can count it).
        value, _cost, flow = successive_shortest_paths(network)

    cost = network.flow_cost(flow)
    if verify_against_baseline:
        base_value, base_cost, _ = successive_shortest_paths(network)
        if not math.isclose(base_value, value, abs_tol=1e-6) or cost > base_cost + 1e-6:
            raise AssertionError(
                f"min-cost flow mismatch: value {value} vs {base_value}, "
                f"cost {cost} vs {base_cost}"
            )

    gram_stats = None
    if bridge is not None and hasattr(bridge, "stats"):
        gram_stats = bridge.stats.as_dict()
    return MinCostFlowResult(
        flow=flow,
        value=float(value),
        cost=float(cost),
        rounds=ledger.total_rounds,
        lp_iterations=solution.iterations,
        rounding_fallback=not ok,
        fractional_cost=fractional_cost,
        ledger=ledger,
        gram_stats=gram_stats,
    )
