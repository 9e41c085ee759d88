"""Minimum cost maximum flow in the Broadcast Congested Clique (Section 5).

* :mod:`repro.flow.baselines` -- exact combinatorial algorithms (Edmonds-Karp
  maximum flow, successive shortest paths min-cost flow, networkx wrappers)
  used as ground truth and benchmark comparators.
* :mod:`repro.flow.lp_formulation` -- the LP of Section 5: edge flows plus
  the rewarded flow-value variable ``F`` that closes the network into one
  min-cost circulation.
* :mod:`repro.flow.mincostflow` -- the end-to-end pipeline of Theorem 1.1:
  perturb the costs, solve the LP with the primal-dual IPM whose Newton
  systems are SDD (Lemma 5.1), round to an exact integral flow, certify it,
  and account the rounds.
"""

from repro.flow.baselines import (
    edmonds_karp_max_flow,
    networkx_min_cost_max_flow,
    successive_shortest_paths,
)
from repro.flow.lp_formulation import FlowLP, build_fixed_value_lp
from repro.flow.mincostflow import MinCostFlowResult, min_cost_max_flow

__all__ = [
    "edmonds_karp_max_flow",
    "successive_shortest_paths",
    "networkx_min_cost_max_flow",
    "FlowLP",
    "build_fixed_value_lp",
    "MinCostFlowResult",
    "min_cost_max_flow",
]
