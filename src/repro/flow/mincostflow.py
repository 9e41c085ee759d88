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
   Lemma 5.1), runs from the middle of the box;
3. every iterate, the start included, is rounded edge-wise to the nearest
   integer (the flow value is the rounded ``F``) and certified optimal in
   O(m) with the iterate's duals as potentials (Goldberg-Tarjan
   eps-optimality), and the IPM stops at the first iterate that certifies.
   The certificate is exact on integral data, so that iterate's rounding
   is the answer.  The IPM's own stop is the cap: the duality gap
   ``m Delta = 1/(4 m M^2)``, below which on the central path every arc
   whose dual slack is a nonzero multiple of ``Delta`` sits less than 1/2
   from its bound, or its stall rule.  If the run reaches the cap with no
   certified iterate (which the paper's uniqueness argument rules out
   w.h.p., but float64 can spoil), an exact combinatorial correction
   answers, and the result names the check that failed.

Round accounting follows Theorem 1.1: ``Õ(sqrt(n))`` path-following iterations,
each costing ``Õ(log M)`` rounds of matrix-vector products plus SDD solves.
The ledger holds what the interior point method charges plus one
``certificate`` round per examined iterate (each vertex checks its own
conservation, bounds and reduced costs from the duals it holds and broadcasts
one verdict bit); :func:`theorem_round_bound` is the bound to compare it
with, never a charge.
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
    #: index of the IPM iterate whose rounding certified (the start is 0);
    #: None when the exact correction answered
    certified_iteration: Optional[int] = None
    #: the check the returned iterate's rounding failed (see
    #: ``_round_and_certify``); None when it certified
    certificate_failure: Optional[str] = None
    #: whether the returned iterate met the IPM's own stop (the ``m Delta``
    #: gap and both residual tolerances).  The certificate usually passes
    #: first, so a certified answer usually reads False; on a fallback,
    #: False means the IPM stalled
    converged: bool = False


def theorem_round_bound(n: int, M: float) -> float:
    """The ``Õ(sqrt(n) log^3 M)`` round bound of Theorem 1.1 (up to constants)."""
    n = max(2, int(n))
    M = max(2.0, float(M))
    return math.sqrt(n) * (math.log2(M) ** 3) * (math.log2(n) ** 2)


def _round_and_certify(
    flow_lp: FlowLP, x: np.ndarray, y: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[str]]:
    """Round an LP iterate edge-wise and certify it; returns ``(rounded, failure)``.

    ``rounded`` is the iterate rounded to integers (edge flows in
    :attr:`FlowLP.edge_keys` order, then ``F``).  ``failure`` is None when
    the rounded flow is a minimum cost maximum flow of value ``F``, and
    otherwise names the first check that failed: ``"no duals"``,
    ``"capacity"`` (an arc outside ``[0, capacity]``), ``"conservation"``
    (a vertex other than ``s`` and ``t`` out of balance), ``"value"`` (``F``
    outside ``[0, U]`` or not the net flow out of ``s``) or ``"reduced
    cost"``.  Optimality is certified by Goldberg-Tarjan eps-optimality with
    the duals as potentials (source 0): the reduced costs ``c - A y`` of the
    *integral* costs (``-R`` on ``F``, the arc ``t -> s``) are the arc costs
    up to a potential difference, so when every residual arc has reduced
    cost ``> -1/n``, every residual cycle (at most ``n`` arcs) costs
    ``> -1``, hence ``>= 0`` -- and no negative residual cycle means
    optimal.  A flow short of the maximum fails too: its augmenting path
    plus ``F`` is a residual cycle of cost at most ``-1``.  Every check is
    O(m) over :meth:`~repro.graphs.digraph.FlowNetwork.edge_array`.
    """
    network = flow_lp.network
    # + 0.0 turns -0.0 into 0.0
    rounded = np.round(x) + 0.0
    if y is None:
        return rounded, "no duals"
    flow, value = rounded[:-1], float(rounded[-1])
    tail, head, capacity, cost = network.edge_array()
    if not np.all((flow >= 0.0) & (flow <= capacity)):
        return rounded, "capacity"
    # rounded flows are integers, so the balances are exact
    balance = np.bincount(head, flow, minlength=network.n) - np.bincount(
        tail, flow, minlength=network.n
    )
    out_of_source = -balance[network.source]
    balance[[network.source, network.sink]] = 0.0
    if np.any(balance != 0.0):
        return rounded, "conservation"
    if not (0.0 <= value <= flow_lp.value_bound and out_of_source == value):
        return rounded, "value"
    reduced = np.append(cost, -flow_lp.reward) - flow_lp.problem.A @ y
    upper = np.append(capacity, flow_lp.value_bound)
    slack = 1.0 / network.n
    if not (np.all(reduced[rounded < upper] > -slack) and np.all(reduced[rounded > 0.0] < slack)):
        return rounded, "reduced cost"
    return rounded, None


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
    # The perturbation has granularity Delta; the LP stops at its first
    # certified iterate, capped by the duality gap m * Delta that rounds to
    # the isolated optimum (module docstring, docs/substitutions.md section
    # 6); encodings are sized to that gap.  The box is relaxed by a tiny
    # delta because min-cut edges are saturated at every optimum, so the
    # unrelaxed box has no strictly interior optimum.
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

    def certifies(x: np.ndarray, y: np.ndarray) -> bool:
        # every vertex checks its own conservation, bounds and reduced costs
        # from the duals it holds, then broadcasts one verdict bit
        ledger.charge("certificate", 1.0, "round, check, broadcast one verdict bit")
        return _round_and_certify(flow_lp, x, y)[1] is None

    solution = BarrierIPM(problem, comm=comm).solve(
        (problem.lower + problem.upper) / 2.0, eps=stopping_gap, accept=certifies
    )
    true_costs = network.edge_array()[3]
    fractional_cost = float(true_costs @ solution.x[:-1])
    rounded, failure = _round_and_certify(flow_lp, solution.x, solution.y)
    if failure is None:
        flow = flow_lp.extract_flow(rounded)
        value, cost = float(rounded[-1]), float(true_costs @ rounded[:-1])
    else:
        # Exact combinatorial correction (the event the paper's uniqueness
        # argument makes unlikely; reported so experiments can count it).
        value, cost, flow = successive_shortest_paths(network)

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
        rounding_fallback=failure is not None,
        fractional_cost=fractional_cost,
        ledger=ledger,
        gram_stats=gram_stats,
        certified_iteration=solution.accepted_iteration if failure is None else None,
        certificate_failure=failure,
        converged=solution.converged,
    )
