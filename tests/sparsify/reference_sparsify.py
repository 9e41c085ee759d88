"""The pre-vectorisation bundle / sparsify outer loops, frozen as test references.

``repro.spanners.bundle`` and ``repro.sparsify.spectral`` run their outer
loops on ``EdgeView`` masks and batched coins; these are the loops they
replaced, verbatim: rebuild a graph per layer, a dict of probabilities, one
scalar coin per edge.  They run on the frozen per-vertex executor of
``tests/spanners/reference_executor.py``.
``tests/sparsify/test_vectorized_equivalence.py`` pins the array path to them
bit for bit.  ``reference_spectral_sparsify_apriori`` is Algorithm 4, the
CONGEST-only variant with eager sampling; it left ``src/`` because nothing
there runs it, and ``tests/sparsify/test_spectral.py`` checks Lemma 3.3's
coupling against it.
"""

from reference_executor import ReferenceProbabilisticSpanner
from reference_generators import edge_list

from repro.graphs.graph import WeightedGraph
from repro.sparsify.spectral import _iteration_count, stretch_parameter


def reference_bundle_spanner(graph, probabilities=None, k=2, t=1, rng=None):
    """The pre-vectorisation Algorithm 3 loop: rebuild a graph per layer."""
    bundle, rejected, per_spanner, rounds = set(), set(), [], 0
    remaining = graph.copy()
    probabilities = dict(probabilities) if probabilities is not None else None
    for _ in range(t):
        if remaining.m == 0:
            break
        restricted_p = None
        if probabilities is not None:
            restricted_p = {
                edge.key: probabilities.get(edge.key, 1.0) for edge in remaining.edges()
            }
        spanner = ReferenceProbabilisticSpanner(
            remaining, probabilities=restricted_p, k=k, rng=rng
        ).run()
        per_spanner.append(spanner)
        bundle |= spanner.f_plus
        rejected |= spanner.f_minus
        rounds += spanner.rounds
        decided = spanner.f_plus | spanner.f_minus
        next_graph = WeightedGraph(remaining.n)
        for edge in remaining.edges():
            if edge.key not in decided:
                next_graph.add_edge(edge.u, edge.v, edge.weight)
        remaining = next_graph
    return bundle, rejected, per_spanner, rounds


def reference_orientation(per_spanner):
    combined = {}
    for result in per_spanner:
        for key, arc in result.orientation.items():
            combined.setdefault(key, arc)
    return combined


def reference_spectral_sparsify(graph, eps, rng, t_override=None, k_override=None):
    """The pre-vectorisation Algorithm 5 loop (dicts + per-edge coin flips)."""
    n = graph.n
    k = k_override if k_override is not None else stretch_parameter(n)
    t = t_override
    current = graph.copy()
    probability = {edge.key: 1.0 for edge in graph.edges()}
    rounds = 0
    last_bundle, last_orientation = set(), {}
    for _ in range(1, _iteration_count(graph.m) + 1):
        restricted_p = {(u, v): probability[(u, v)] for (u, v, _) in edge_list(current)}
        bundle, rejected, per_spanner, bundle_rounds = reference_bundle_spanner(
            current, probabilities=restricted_p, k=k, t=t, rng=rng
        )
        last_bundle = set(bundle)
        last_orientation = reference_orientation(per_spanner)
        rounds += bundle_rounds
        next_graph = WeightedGraph(n)
        for u, v, weight in edge_list(current):
            key = (u, v)
            if key in rejected:
                probability.pop(key, None)
                continue
            if key in bundle:
                probability[key] = 1.0
                next_graph.add_edge(u, v, weight)
            else:
                probability[key] = probability[key] / 4.0
                next_graph.add_edge(u, v, 4.0 * weight)
        current = next_graph

    sparsifier = WeightedGraph(n)
    orientation = {}
    broadcasts_per_vertex = {}
    for u, v, weight in edge_list(current):
        key = (u, v)
        if key in last_bundle:
            sparsifier.add_edge(u, v, weight)
            orientation[key] = last_orientation.get(key, (u, v))
            continue
        if rng.random() < probability[key]:
            sparsifier.add_edge(u, v, weight)
            orientation[key] = (u, v)
            broadcasts_per_vertex[u] = broadcasts_per_vertex.get(u, 0) + 1
    rounds += max(broadcasts_per_vertex.values()) if broadcasts_per_vertex else 1
    return sparsifier, orientation, dict(probability), rounds


def reference_spectral_sparsify_apriori(graph, eps, rng, t_override=None, k_override=None):
    """The pre-vectorisation Algorithm 4 loop (eager per-edge sampling)."""
    n = graph.n
    k = k_override if k_override is not None else stretch_parameter(n)
    current = graph.copy()
    orientation = {}
    for _ in range(1, _iteration_count(graph.m) + 1):
        bundle, _rejected, per_spanner, _rounds = reference_bundle_spanner(
            current, probabilities=None, k=k, t=t_override, rng=rng
        )
        bundle_orientation = reference_orientation(per_spanner)
        next_graph = WeightedGraph(n)
        for key in sorted(bundle):
            u, v = key
            next_graph.add_edge(u, v, current.weight(u, v))
            orientation[key] = bundle_orientation.get(key, (u, v))
        for u, v, weight in edge_list(current):
            if (u, v) in bundle:
                continue
            if rng.random() < 0.25:
                next_graph.add_edge(u, v, 4.0 * weight)
                orientation[(u, v)] = (u, v)
        current = next_graph
    final_orientation = {
        key: orientation.get(key, (min(key), max(key)))
        for key in (edge.key for edge in current.edges())
    }
    return current, final_orientation
