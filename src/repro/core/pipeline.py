"""End-to-end pipeline run reproducing Figure 1 of the paper.

Runs every box of the dependency diagram on one input: a probabilistic
spanner, the spectral sparsifier built from bundles of such spanners, the
Laplacian solver preconditioned by the sparsifier, an LP solve whose Newton
systems go through the SDD reduction, and finally an exact minimum cost
maximum flow -- collecting the round counts of every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.flow.mincostflow import min_cost_max_flow
from repro.graphs.digraph import FlowNetwork
from repro.graphs.graph import WeightedGraph
from repro.solvers.laplacian import BCCLaplacianSolver
from repro.spanners.probabilistic import probabilistic_spanner
from repro.sparsify.spectral import spectral_sparsify


@dataclass
class PipelineReport:
    """Round counts and key figures of one full pipeline run (Figure 1)."""

    spanner_edges: int = 0
    spanner_rounds: int = 0
    sparsifier_edges: int = 0
    sparsifier_rounds: int = 0
    laplacian_solve_rounds: float = 0.0
    laplacian_relative_error: float = 0.0
    flow_value: float = 0.0
    flow_cost: float = 0.0
    flow_rounds: float = 0.0
    stage_rounds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_rounds(self) -> float:
        return float(sum(self.stage_rounds.values()))


def run_full_pipeline(
    network: FlowNetwork,
    seed: Optional[int] = None,
    sparsifier_t_override: Optional[int] = 2,
) -> PipelineReport:
    """Run spanner -> sparsifier -> Laplacian solver -> LP solver -> min-cost flow.

    The undirected support of ``network`` (unit weights) is used for the
    spanner/sparsifier/Laplacian stages; the flow stages run on ``network``
    itself.
    """
    rng = np.random.default_rng(seed)
    report = PipelineReport()

    # undirected unit-weight support: dedupe arc directions, one bulk insert
    support = WeightedGraph(network.n)
    keys = np.array(
        sorted({(u, v) if u < v else (v, u) for (u, v) in network.edge_keys()}),
        dtype=np.int64,
    ).reshape(-1, 2)
    support.add_edges(keys[:, 0], keys[:, 1], 1.0)

    spanner_result = probabilistic_spanner(support, k=2, seed=seed)
    report.spanner_edges = len(spanner_result.f_plus)
    report.spanner_rounds = spanner_result.rounds
    report.stage_rounds["spanner"] = float(spanner_result.rounds)

    sparsifier_result = spectral_sparsify(
        support, eps=0.5, seed=seed, t_override=sparsifier_t_override
    )
    report.sparsifier_edges = sparsifier_result.size
    report.sparsifier_rounds = sparsifier_result.rounds
    report.stage_rounds["sparsifier"] = float(sparsifier_result.rounds)

    solver = BCCLaplacianSolver(support, seed=seed, t_override=sparsifier_t_override)
    b = rng.normal(size=support.n)
    solve_report = solver.solve(b, eps=1e-6, check=True)
    report.laplacian_solve_rounds = solve_report.rounds
    report.laplacian_relative_error = float(solve_report.measured_relative_error or 0.0)
    report.stage_rounds["laplacian_solver"] = float(
        solver.preprocessing.rounds + solve_report.rounds
    )

    flow_result = min_cost_max_flow(network, seed=seed, verify_against_baseline=True)
    report.flow_value = flow_result.value
    report.flow_cost = flow_result.cost
    report.flow_rounds = flow_result.rounds
    report.stage_rounds["lp_and_flow"] = float(flow_result.rounds)
    return report
