"""Spectral sparsification and Laplacian solving on a dense graph.

Demonstrates Theorem 1.2 + Theorem 1.3: sparsify a dense graph in the
Broadcast CONGEST model, then reuse the sparsifier to solve several Laplacian
systems (an electrical-potential computation) cheaply.

Run with:  python examples/sparsify_and_solve.py
"""

import numpy as np

from repro.graphs import generators, spectral_approximation_factor
from repro.solvers import BCCLaplacianSolver
from repro.sparsify import spectral_sparsify


def main() -> None:
    graph = generators.erdos_renyi(80, 0.5, max_weight=8, seed=21)
    print(f"dense graph: n={graph.n}, m={graph.m}")

    # Sweep the bundle size to show the size/quality trade-off (the paper's
    # t = 400 log^2 n / eps^2 keeps every edge at this scale).
    for t in (1, 4, 16, None):
        label = "paper t" if t is None else f"t={t}"
        result = spectral_sparsify(graph, eps=0.5, seed=5, t_override=t)
        lo, hi = spectral_approximation_factor(graph, result.sparsifier)
        print(
            f"  {label:>8}: {result.size:>5} edges, spectral window [{lo:.3f}, {hi:.3f}], "
            f"{result.rounds:.0f} BC rounds"
        )

    # Electrical potentials: inject one unit of current at vertex 0, extract at
    # the last vertex, and solve L x = b for the potentials.
    solver = BCCLaplacianSolver(graph, seed=6, t_override=2)
    b = np.zeros(graph.n)
    b[0], b[-1] = 1.0, -1.0
    report = solver.solve(b, eps=1e-10, check=True)
    potentials = report.solution
    print(
        f"electrical potentials: effective resistance 0<->{graph.n - 1} = "
        f"{potentials[0] - potentials[-1]:.4f}, relative error {report.measured_relative_error:.2e}, "
        f"{report.rounds:.0f} BCC rounds per solve"
    )

    # Reusing the preprocessing: three more right-hand sides.
    rng = np.random.default_rng(7)
    extra = solver.solve_many([rng.normal(size=graph.n) for _ in range(3)], eps=1e-8)
    print(f"three more solves reuse the sparsifier: {[f'{r.rounds:.0f}' for r in extra]} rounds each")


if __name__ == "__main__":
    main()
