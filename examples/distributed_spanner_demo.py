"""Probabilistic spanners and the sampling trick of Section 3.1.

Shows why the Broadcast CONGEST model needs the paper's ad-hoc sampling: the
spanner decides edge existence lazily inside the Connect procedure and the
other endpoint learns the outcome implicitly from the broadcast.  The demo
computes spanners of increasing stretch and a spanner over a probabilistic
graph, then verifies the stretch guarantee of Lemma 3.1 empirically.

Run with:  python examples/distributed_spanner_demo.py
"""

import numpy as np

from repro.graphs import generators
from repro.spanners import probabilistic_spanner


def empirical_stretch(reference, spanner_graph):
    d_ref = reference.all_pairs_shortest_paths()
    d_spa = spanner_graph.all_pairs_shortest_paths()
    mask = np.isfinite(d_ref) & (d_ref > 0)
    return float(np.max(d_spa[mask] / d_ref[mask]))


def main() -> None:
    graph = generators.random_weighted_graph(60, average_degree=10, max_weight=32, seed=13)
    print(f"input graph: n={graph.n}, m={graph.m}")

    print("deterministic spanners (p = 1):")
    for k in (2, 3, 4):
        result = probabilistic_spanner(graph, k=k, seed=k)
        stretch = empirical_stretch(graph, result.spanner_graph(graph))
        print(
            f"  k={k}: {len(result.f_plus):>4} edges, stretch {stretch:.2f} "
            f"(bound {2 * k - 1}), {result.rounds:.0f} BC rounds, "
            f"max out-degree {result.max_out_degree()}"
        )

    print("probabilistic spanner (p = 1/2, the sparsifier's sampling step):")
    probabilities = {edge.key: 0.5 for edge in graph.edges()}
    result = probabilistic_spanner(graph, probabilities=probabilities, k=3, seed=17)
    undecided = [e.key for e in graph.edges() if e.key not in result.f]
    print(
        f"  |F+| = {len(result.f_plus)}, |F-| = {len(result.f_minus)}, "
        f"undecided = {len(undecided)}"
    )
    reference = graph.subgraph_with_edges(list(result.f_plus) + undecided)
    stretch = empirical_stretch(reference, result.spanner_graph(graph))
    print(f"  stretch w.r.t. F+ plus undecided edges: {stretch:.2f} (bound 5)")


if __name__ == "__main__":
    main()
