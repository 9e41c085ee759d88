"""rng-sequence equivalence of the array-native spanner/bundle/sparsify path.

The vectorised implementations (EdgeView masks, bulk reweighting, batched
final sampling) promise *bit-identical* outputs to the historical per-edge
implementations for any seed: they must consume the random stream in exactly
the same order.  These tests pin that promise by re-implementing the
pre-vectorisation ``bundle_spanner`` / ``spectral_sparsify`` /
``spectral_sparsify_apriori`` outer loops verbatim (rebuild-a-graph-per-layer,
dict-of-probabilities, scalar coin flips) and comparing every output field on
seeded graphs.  The references run on the frozen per-vertex executor of
``tests/spanners/reference_executor.py``, not on the ``ProbabilisticSpanner``
under test, so a change of executor cannot hide from them.
"""

import math

import numpy as np
import pytest

from reference_executor import ReferenceProbabilisticSpanner

from repro.graphs import generators
from repro.graphs.graph import EdgeView, WeightedGraph
from repro.spanners.bundle import bundle_spanner
from repro.spanners.probabilistic import ProbabilisticSpanner
from repro.sparsify import spectral_sparsify, spectral_sparsify_apriori
from repro.sparsify.spectral import _iteration_count, stretch_parameter


# -- historical reference implementations --------------------------------------


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


def _reference_orientation(per_spanner):
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
        restricted_p = {(u, v): probability[(u, v)] for (u, v, _) in current.edge_list()}
        bundle, rejected, per_spanner, bundle_rounds = reference_bundle_spanner(
            current, probabilities=restricted_p, k=k, t=t, rng=rng
        )
        last_bundle = set(bundle)
        last_orientation = _reference_orientation(per_spanner)
        rounds += bundle_rounds
        next_graph = WeightedGraph(n)
        for u, v, weight in current.edge_list():
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
    for u, v, weight in current.edge_list():
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
        bundle_orientation = _reference_orientation(per_spanner)
        next_graph = WeightedGraph(n)
        for key in sorted(bundle):
            u, v = key
            next_graph.add_edge(u, v, current.weight(u, v))
            orientation[key] = bundle_orientation.get(key, (u, v))
        for u, v, weight in current.edge_list():
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


# -- the equivalence tests ------------------------------------------------------


def test_batched_uniforms_match_scalar_stream():
    """The vectorised final sampling relies on ``rng.random(k)`` consuming the
    bit stream exactly like ``k`` scalar draws; numpy guarantees this for the
    Generator API, and everything downstream of this file assumes it."""
    a = np.random.default_rng(123)
    b = np.random.default_rng(123)
    scalar = [b.random() for _ in range(257)]
    mixed = [a.random()] + list(a.random(255)) + [a.random()]
    np.testing.assert_array_equal(np.array(mixed), np.array(scalar))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spanner_on_view_matches_materialised_subgraph(seed):
    graph = generators.random_weighted_graph(30, average_degree=6, max_weight=8, seed=seed)
    view = EdgeView.from_graph(graph)
    rng_mask = np.random.default_rng(seed)
    alive = rng_mask.random(view.base_m) < 0.7
    subgraph = graph.subgraph_with_edges(
        view.edge_key(i) for i in np.flatnonzero(alive)
    )
    probs = {e.key: 0.6 for e in subgraph.edges()}
    on_view = ProbabilisticSpanner(
        view.subview(alive),
        probabilities=probs,
        k=3,
        rng=np.random.default_rng(seed + 7),
    ).run()
    on_graph = ReferenceProbabilisticSpanner(
        subgraph, probabilities=probs, k=3, rng=np.random.default_rng(seed + 7)
    ).run()
    assert on_view.f_plus == on_graph.f_plus
    assert on_view.f_minus == on_graph.f_minus
    assert on_view.orientation == on_graph.orientation
    assert on_view.rounds == on_graph.rounds
    assert on_view.clusters_per_phase == on_graph.clusters_per_phase


@pytest.mark.parametrize("seed,with_probs", [(0, True), (1, True), (2, False)])
def test_bundle_matches_reference(seed, with_probs):
    graph = generators.random_weighted_graph(28, average_degree=7, max_weight=4, seed=seed)
    probs = {e.key: 0.5 for e in graph.edges()} if with_probs else None
    ref = reference_bundle_spanner(
        graph, probabilities=probs, k=2, t=3, rng=np.random.default_rng(seed + 50)
    )
    new = bundle_spanner(
        graph, probabilities=probs, k=2, t=3, rng=np.random.default_rng(seed + 50)
    )
    assert new.bundle == ref[0]
    assert new.rejected == ref[1]
    assert new.rounds == ref[3]
    assert [s.f_plus for s in new.per_spanner] == [s.f_plus for s in ref[2]]
    assert new.orientation() == _reference_orientation(ref[2])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparsify_matches_reference(seed):
    graph = generators.random_weighted_graph(32, average_degree=8, max_weight=16, seed=seed)
    ref_sparsifier, ref_orientation, ref_probs, ref_rounds = reference_spectral_sparsify(
        graph, eps=0.5, rng=np.random.default_rng(seed + 300), t_override=2
    )
    new = spectral_sparsify(graph, eps=0.5, rng=np.random.default_rng(seed + 300), t_override=2)
    assert new.sparsifier == ref_sparsifier
    assert new.orientation == ref_orientation
    assert new.final_probabilities == ref_probs
    assert new.rounds == ref_rounds
    assert len(new.iterations) == max(1, math.ceil(math.log2(graph.m)))


@pytest.mark.parametrize("seed", [0, 1])
def test_apriori_matches_reference(seed):
    graph = generators.random_weighted_graph(26, average_degree=7, seed=seed)
    ref_sparsifier, ref_orientation = reference_spectral_sparsify_apriori(
        graph, eps=0.5, rng=np.random.default_rng(seed + 400), t_override=2
    )
    new = spectral_sparsify_apriori(
        graph, eps=0.5, rng=np.random.default_rng(seed + 400), t_override=2
    )
    assert new.sparsifier == ref_sparsifier
    assert new.orientation == ref_orientation


def test_grid_with_paper_style_parameters():
    graph = generators.grid_graph(5, 6)
    ref = reference_spectral_sparsify(
        graph, eps=0.75, rng=np.random.default_rng(42), t_override=1, k_override=3
    )
    new = spectral_sparsify(
        graph, eps=0.75, rng=np.random.default_rng(42), t_override=1, k_override=3
    )
    assert new.sparsifier == ref[0]
    assert new.final_probabilities == ref[2]
