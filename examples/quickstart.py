"""Quickstart: the whole Laplacian-paradigm toolchain on one small input.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import core
from repro.graphs import generators, is_spectral_sparsifier


def main() -> None:
    # 1. A weighted graph and a (2k-1)-spanner of it (Section 3.1).
    graph = generators.random_weighted_graph(40, average_degree=8, max_weight=16, seed=7)
    spanner = core.spanner(graph, k=3, seed=1)
    print(f"graph: n={graph.n}, m={graph.m}")
    print(
        f"spanner (k=3): {len(spanner.f_plus)} edges, "
        f"{spanner.rounds:.0f} Broadcast-CONGEST rounds"
    )

    # 2. A spectral sparsifier (Theorem 1.2).
    sparsifier = core.spectral_sparsifier(graph, eps=0.5, seed=2)
    print(
        f"sparsifier: {sparsifier.size} edges, valid (1 +/- 0.5)-approximation: "
        f"{is_spectral_sparsifier(graph, sparsifier.sparsifier, eps=0.5)}"
    )

    # 3. Solve a Laplacian system L_G x = b (Theorem 1.3).
    rng = np.random.default_rng(3)
    b = rng.normal(size=graph.n)
    report = core.solve_laplacian(graph, b, eps=1e-8, seed=4, t_override=2)
    print(
        f"Laplacian solve: {report.chebyshev.iterations} Chebyshev iterations, "
        f"{report.rounds:.0f} BCC rounds"
    )

    # 4. Exact minimum cost maximum flow (Theorem 1.1).
    network = generators.random_flow_network(16, seed=5, max_capacity=10, max_cost=8)
    flow = core.min_cost_max_flow(network, seed=6, verify_against_baseline=True)
    print(
        f"min-cost max-flow: value={flow.value:.0f}, cost={flow.cost:.0f}, "
        f"{flow.lp_iterations} interior-point iterations, {flow.rounds:.0f} BCC rounds"
    )


if __name__ == "__main__":
    main()
