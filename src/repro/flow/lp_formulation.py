"""LP formulations of the minimum cost maximum flow problem (Sections 2.4 and 5).

Two formulations are provided:

* :func:`build_flow_lp` -- the single LP of Section 5 with auxiliary slack
  variables ``y, z`` and the flow-value variable ``F``: the constraint matrix
  is ``A = [B | I | -I | -e_t]^T`` (``B`` the edge-vertex incidence matrix with
  the source row removed), the objective trades off the perturbed edge costs, a
  penalty ``lambda`` on the slacks and a large reward ``2 n M~`` on ``F``, and
  the paper's explicit interior point is returned alongside.
* :func:`build_fixed_value_lp` -- the classical formulation of Section 2.4 for
  a *given* flow value ``F`` (used with an outer binary search / a max-flow
  precomputation): ``min q^T x`` s.t. ``B x = F e_t``, ``0 <= x <= c``.

Both produce :class:`~repro.lp.problem.LPProblem` instances whose ``A^T D A``
matrices are symmetric diagonally dominant (Lemma 5.1), so the Gram solver can
be the Laplacian/SDD machinery of Section 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphs.digraph import FlowNetwork
from repro.lp.problem import LPProblem

EdgeKey = Tuple[int, int]


@dataclass
class FlowLP:
    """An LP formulation of a flow instance plus the bookkeeping to read it back."""

    problem: LPProblem
    network: FlowNetwork
    edge_keys: List[EdgeKey]
    #: the paper's explicit interior point (Section 5 formulation); ``None``
    #: for the fixed-value formulation, which starts from a witness flow.
    interior_point: Optional[np.ndarray]
    #: slice boundaries of (x, y, z, F) inside the variable vector; the
    #: fixed-value formulation has only the x block.
    blocks: Dict[str, slice]
    perturbed_costs: Optional[np.ndarray] = None
    perturbation_scale: float = 1.0

    def extract_flow(self, solution: np.ndarray) -> Dict[EdgeKey, float]:
        """Edge flow dictionary from an LP solution vector."""
        x = np.asarray(solution, dtype=float)[self.blocks["x"]]
        return {key: float(x[i]) for i, key in enumerate(self.edge_keys)}


def _vertex_columns(network: FlowNetwork) -> List[int]:
    """Vertices indexing the equality constraints (every vertex except the source)."""
    return [v for v in range(network.n) if v != network.source]


def daitch_spielman_perturbation(
    costs: np.ndarray,
    max_cost: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float]:
    """Perturb integral costs so the optimum is unique with probability >= 1/2.

    Every cost gets a uniformly random additive term from
    ``{1, 2, ..., 2 |E| M} / (4 |E|^2 M^2)`` and the result is rescaled to be
    integral again (Section 5, following Daitch and Spielman).  Returns the
    integral perturbed costs together with the scale factor ``4 |E|^2 M^2``.
    """
    m = costs.shape[0]
    M = max(1.0, float(max_cost))
    denominator = 4.0 * m * m * M * M
    numerators = rng.integers(1, max(2, int(2 * m * M)) + 1, size=m)
    perturbed = costs * denominator + numerators
    return perturbed.astype(float), float(denominator)


def build_fixed_value_lp(
    network: FlowNetwork,
    flow_value: float,
    costs: Optional[np.ndarray] = None,
    box_relaxation: float = 0.0,
) -> FlowLP:
    """The Section 2.4 formulation ``min q^T x`` s.t. ``B x = F e_t``, ``0 <= x <= c``.

    At the maximum flow value the min-cut edges are necessarily saturated, so
    the box ``[0, c]`` has no strictly interior flow of that value;
    ``box_relaxation`` widens the box to ``[-delta, c + delta]`` so an interior
    point method can start from any feasible flow.  With integral data and a
    tiny ``delta`` the rounded optimum is unaffected (the pipeline validates
    this and falls back to an exact correction otherwise).

    The incidence matrix is kept in CSR form (two nonzeros per row): a
    Newton-step matvec costs ``O(m)``, not ``O(m n)``.
    """
    keys = network.edge_keys()
    B = network.incidence_matrix(drop_vertex=network.source)  # m x (n-1)
    columns = _vertex_columns(network)
    b = np.zeros(len(columns))
    b[columns.index(network.sink)] = float(flow_value)
    q = network.costs() if costs is None else np.asarray(costs, dtype=float)
    capacities = network.capacities()
    delta = float(box_relaxation)

    problem = LPProblem(
        A=sp.csr_matrix(B),
        b=b,
        c=q,
        lower=-delta * np.ones(network.m),
        upper=capacities + delta,
        name="min-cost-flow(fixed value)",
    )
    return FlowLP(
        problem=problem,
        network=network,
        edge_keys=keys,
        interior_point=None,
        blocks={"x": slice(0, network.m)},
    )


def build_flow_lp(
    network: FlowNetwork,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    perturb: bool = True,
) -> FlowLP:
    """The Section 5 LP with slacks ``y, z`` and flow-value variable ``F``.

    Variables are ordered ``(x_edges, y_vertices, z_vertices, F)`` with
    ``y, z in R^{|V| - 1}``; the equality constraints read
    ``B x + y - z - F e_t = 0`` for every vertex except the source.  The paper's
    interior point (``F = |V| M``, ``x = c/2``, ...) is returned with the LP.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    keys = network.edge_keys()
    n_vertices = network.n
    m_edges = network.m
    columns = _vertex_columns(network)
    n_constraints = len(columns)
    M = max(1.0, network.max_capacity(), network.max_cost_magnitude())

    B = network.incidence_matrix(drop_vertex=network.source)  # m x (n-1)
    identity = np.eye(n_constraints)
    e_t = np.zeros((1, n_constraints))
    e_t[0, columns.index(network.sink)] = 1.0

    # A^T = [B^T | I | -I | -e_t]  =>  A is the vertical stack below.
    A = np.vstack([B, identity, -identity, -e_t])

    costs = network.costs()
    if perturb:
        perturbed, scale = daitch_spielman_perturbation(costs, M, rng)
    else:
        perturbed, scale = costs.copy(), 1.0
    m_tilde = 8.0 * (m_edges ** 2) * (M ** 3) * scale
    lam = 440.0 * (m_edges ** 4) * (m_tilde ** 2) * (M ** 3) / max(1.0, m_tilde)
    # The literal lambda of the paper overflows float64 head-room on anything
    # but trivial instances; any lambda large enough to dominate the slack
    # usage works for the reduction, so it is capped (docs/substitutions.md, 6).
    lam = min(lam, 1e6 * float(np.max(np.abs(perturbed)) + 1.0))
    flow_reward = 2.0 * n_vertices * m_tilde
    flow_reward = min(flow_reward, 1e7 * float(np.max(np.abs(perturbed)) + 1.0))

    c = np.concatenate(
        [
            perturbed,
            lam * np.ones(n_constraints),
            lam * np.ones(n_constraints),
            [-flow_reward],
        ]
    )
    lower = np.zeros(m_edges + 2 * n_constraints + 1)
    upper = np.concatenate(
        [
            network.capacities(),
            4.0 * n_vertices * M * np.ones(n_constraints),
            4.0 * n_vertices * M * np.ones(n_constraints),
            [2.0 * n_vertices * M],
        ]
    )
    b = np.zeros(n_constraints)

    problem = LPProblem(
        A=A,
        b=b,
        c=c,
        lower=lower,
        upper=upper,
        name="min-cost-max-flow(section 5)",
    )

    # the paper's explicit interior point
    F0 = float(n_vertices * M)
    x0 = network.capacities() / 2.0
    bx = B.T @ x0  # net inflow per non-source vertex
    e_t_vec = e_t.flatten()
    y0 = 2.0 * n_vertices * M * np.ones(n_constraints) - np.minimum(bx - F0 * e_t_vec, 0.0)
    z0 = 2.0 * n_vertices * M * np.ones(n_constraints) + np.maximum(bx - F0 * e_t_vec, 0.0)
    interior = np.concatenate([x0, y0, z0, [F0]])

    return FlowLP(
        problem=problem,
        network=network,
        edge_keys=keys,
        interior_point=interior,
        blocks={
            "x": slice(0, m_edges),
            "y": slice(m_edges, m_edges + n_constraints),
            "z": slice(m_edges + n_constraints, m_edges + 2 * n_constraints),
            "F": slice(m_edges + 2 * n_constraints, m_edges + 2 * n_constraints + 1),
        },
        perturbed_costs=perturbed,
        perturbation_scale=scale,
    )
