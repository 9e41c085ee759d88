"""Routing traffic through a layered data-centre-style network.

The motivating workload of the paper's introduction: a network with bounded
link capacities and per-link costs, where we want to push as much traffic as
possible from an ingress to an egress at minimum total cost.  The example
compares the Broadcast-Congested-Clique LP pipeline (Theorem 1.1) against the
exact combinatorial baseline and prints the charged rounds, per operation,
beside the Theorem 1.1 bound.

Run with:  python examples/network_flow_routing.py
"""

from repro.flow import min_cost_max_flow, networkx_min_cost_max_flow, successive_shortest_paths
from repro.flow.mincostflow import theorem_round_bound
from repro.graphs import generators


def main() -> None:
    network = generators.layered_flow_network(layers=4, width=4, max_capacity=12, max_cost=6, seed=11)
    print(f"layered network: n={network.n}, m={network.m} links")

    result = min_cost_max_flow(network, seed=3, verify_against_baseline=True)
    print(f"LP pipeline:   value={result.value:.0f}, cost={result.cost:.0f}")
    print(f"  interior-point iterations: {result.lp_iterations}")
    bound = theorem_round_bound(network.n, network.max_capacity())
    print(f"  BCC rounds charged:        {result.rounds:.0f} of the Theorem 1.1 bound {bound:.0f}")
    by_operation = result.ledger.rounds_by_operation()
    print("    " + ", ".join(f"{op} {rounds:.0f}" for op, rounds in sorted(by_operation.items())))
    print(f"  rounding fallback used:    {result.rounding_fallback}")

    ssp_value, ssp_cost, _ = successive_shortest_paths(network)
    nx_value, nx_cost, _ = networkx_min_cost_max_flow(network)
    print(f"SSP baseline:  value={ssp_value:.0f}, cost={ssp_cost:.0f}")
    print(f"networkx:      value={nx_value:.0f}, cost={nx_cost:.0f}")

    busiest = sorted(result.flow.items(), key=lambda kv: -kv[1])[:5]
    print("busiest links:")
    for (u, v), f in busiest:
        edge = network.edge(u, v)
        print(f"  {u:>3} -> {v:<3} flow {f:>4.0f} / capacity {edge.capacity:>4.0f} (cost {edge.cost:.0f})")


if __name__ == "__main__":
    main()
