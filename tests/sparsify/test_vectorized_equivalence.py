"""rng-sequence equivalence of the array-native spanner/bundle/sparsify path.

The vectorised implementations (EdgeView masks, bulk reweighting, batched
final sampling) promise *bit-identical* outputs to the historical per-edge
implementations for any seed: they must consume the random stream in exactly
the same order.  These tests pin that promise against the
pre-vectorisation ``bundle_spanner`` / ``spectral_sparsify`` outer loops kept
verbatim in ``reference_sparsify.py`` (rebuild-a-graph-per-layer,
dict-of-probabilities, scalar coin flips), comparing every output field on
seeded graphs.  The references run on the frozen per-vertex executor of
``tests/spanners/reference_executor.py``, not on the ``ProbabilisticSpanner``
under test, so a change of executor cannot hide from them.
"""

import math

import numpy as np
import pytest

from reference_executor import ReferenceProbabilisticSpanner, step_charges
from reference_sparsify import (
    reference_orientation,
    reference_bundle_spanner,
    reference_spectral_sparsify,
)

from repro.graphs import generators
from repro.graphs.graph import EdgeView
from repro.spanners.bundle import bundle_spanner
from repro.spanners.probabilistic import ProbabilisticSpanner
from repro.sparsify import spectral_sparsify


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
    assert step_charges(on_view) == on_graph.charges


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
    assert new.ledger.total_rounds == ref[3]
    assert [s.f_plus for s in new.per_spanner] == [s.f_plus for s in ref[2]]
    assert new.orientation() == reference_orientation(ref[2])


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
