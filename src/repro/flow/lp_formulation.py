"""The LP of minimum cost maximum flow (Section 5).

:func:`build_fixed_value_lp` closes the network with a return variable ``F``,
the flow value, and states min-cost max-flow as one min-cost circulation:

    min q~^T x - R F   s.t.   B^T x - F e_t = 0,   0 <= x <= c,   0 <= F <= U

(``B`` the edge-vertex incidence matrix through the column map
:meth:`~repro.graphs.digraph.FlowNetwork.lp_columns`, so ``A = [B ; -e_t]``).
The reward ``R = (n-1) max|q| + 1`` exceeds the cost of every simple
augmenting path, so an optimum saturates ``F`` at the maximum flow value ``F*``
-- the LP fixes ``F*`` itself.  ``U = min(capacity out of s, capacity into
t) >= F*`` bounds ``F``.  This is Section 5's LP without its slacks ``y, z``,
which existed only to give an explicit interior point; the interior point
method here starts from the middle of the box instead
(``docs/substitutions.md`` section 6).

``A^T D A`` is a grounded Laplacian, so symmetric diagonally dominant
(Lemma 5.1), and the Gram solver is the Laplacian machinery of
:mod:`repro.lp.gram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphs.digraph import FlowNetwork
from repro.lp.problem import LPProblem

EdgeKey = Tuple[int, int]


@dataclass
class FlowLP:
    """The flow LP plus the bookkeeping to read it back.

    The LP's variables are the edge flows in :attr:`edge_keys` order, then
    the flow value ``F``.
    """

    problem: LPProblem
    network: FlowNetwork
    edge_keys: List[EdgeKey]
    #: ``R``, the reward per unit of ``F`` (its cost is ``-R``)
    reward: float
    #: ``U``, the upper bound of ``F`` before the box relaxation
    value_bound: float

    def extract_flow(self, solution: np.ndarray) -> Dict[EdgeKey, float]:
        """Edge flow dictionary from an LP solution vector."""
        x = np.asarray(solution, dtype=float)[: len(self.edge_keys)]
        return {key: float(x[i]) for i, key in enumerate(self.edge_keys)}


def build_fixed_value_lp(
    network: FlowNetwork,
    costs: Optional[np.ndarray] = None,
    box_relaxation: float = 0.0,
) -> FlowLP:
    """The flow LP ``min q^T x - R F`` s.t. ``B^T x = F e_t``, ``0 <= x <= c``, ``0 <= F <= U``.

    ``costs`` are the edge costs ``q`` (the network's when omitted; the
    pipeline passes perturbed ones); ``F`` is never perturbed.  At the
    optimum the min-cut edges are saturated, so the box has no strictly
    interior optimum; ``box_relaxation`` widens every bound to
    ``[-delta, bound + delta]``, ``F``'s included.  With integral data and a
    tiny ``delta`` the rounded optimum is unaffected (the pipeline certifies
    it and falls back to an exact correction otherwise).

    ``A`` is CSR with at most two nonzeros per row: a Newton-step matvec
    costs ``O(m)``.
    """
    keys = network.edge_keys()
    B = network.incidence_matrix()
    sink_row = sp.csr_matrix(
        ([-1.0], ([0], [network.lp_columns()[network.sink]])), shape=(1, B.shape[1])
    )
    q = network.costs() if costs is None else np.asarray(costs, dtype=float)
    reward = (network.n - 1) * network.max_cost_magnitude() + 1.0
    u, v, capacities, _cost = network.edge_array()
    value_bound = min(
        float(capacities[u == network.source].sum()), float(capacities[v == network.sink].sum())
    )
    delta = float(box_relaxation)

    problem = LPProblem(
        A=sp.vstack([B, sink_row], format="csr"),
        b=np.zeros(B.shape[1]),
        c=np.append(q, -reward),
        lower=np.full(network.m + 1, -delta),
        upper=np.append(capacities, value_bound) + delta,
        name="min-cost-max-flow(section 5)",
    )
    return FlowLP(
        problem=problem,
        network=network,
        edge_keys=keys,
        reward=reward,
        value_bound=value_bound,
    )
