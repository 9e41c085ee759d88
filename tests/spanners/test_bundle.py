"""Tests for t-bundle spanners (Algorithm 3)."""

import numpy as np
import pytest

from reference_generators import path_graph
from repro.graphs import generators
from repro.graphs.graph import EdgeView
from repro.spanners.bundle import bundle_spanner


def max_stretch(reference_graph, spanner_graph):
    dR = reference_graph.all_pairs_shortest_paths()
    dS = spanner_graph.all_pairs_shortest_paths()
    mask = np.isfinite(dR) & (dR > 0)
    return float(np.max(dS[mask] / dR[mask])) if np.any(mask) else 1.0


class TestBundleStructure:
    def test_bundle_and_rejected_partition_decided_edges(self):
        g = generators.random_weighted_graph(25, average_degree=8, seed=1)
        probs = {e.key: 0.5 for e in g.edges()}
        result = bundle_spanner(g, probabilities=probs, k=2, t=3, seed=2)
        assert result.bundle.isdisjoint(result.rejected)
        all_edges = {e.key for e in g.edges()}
        assert result.bundle <= all_edges
        assert result.rejected <= all_edges

    def test_deterministic_bundle_has_no_rejections(self):
        g = generators.random_weighted_graph(25, average_degree=8, seed=3)
        result = bundle_spanner(g, k=2, t=2, seed=4)
        assert result.rejected == set()

    def test_bundle_grows_with_t(self):
        g = generators.complete_graph(24)
        small = bundle_spanner(g, k=2, t=1, seed=5)
        large = bundle_spanner(g, k=2, t=3, seed=5)
        assert len(large.bundle) >= len(small.bundle)

    def test_t_spanners_are_edge_disjoint(self):
        g = generators.complete_graph(20)
        result = bundle_spanner(g, k=2, t=3, seed=6)
        seen = set()
        for spanner in result.per_spanner:
            assert spanner.f_plus.isdisjoint(seen)
            seen |= spanner.f_plus

    def test_every_layer_spans_what_remains(self):
        """T_i must be a (2k-1)-spanner of G minus the earlier layers (Def. 2.2)."""
        g = generators.random_weighted_graph(18, average_degree=8, seed=7)
        k = 2
        result = bundle_spanner(g, k=k, t=3, seed=8)
        removed = set()
        for spanner in result.per_spanner:
            remaining = g.subgraph_with_edges(
                [e.key for e in g.edges() if e.key not in removed]
            )
            layer = g.subgraph_with_edges(spanner.f_plus)
            # only check vertex pairs connected in the remaining graph
            dR = remaining.all_pairs_shortest_paths()
            dL = layer.all_pairs_shortest_paths()
            mask = np.isfinite(dR) & (dR > 0)
            assert np.all(dL[mask] <= (2 * k - 1) * dR[mask] + 1e-9)
            removed |= spanner.f_plus

    def test_rounds_accumulate_over_layers(self):
        g = generators.random_weighted_graph(20, seed=9)
        one = bundle_spanner(g, k=2, t=1, seed=10)
        three = bundle_spanner(g, k=2, t=3, seed=10)
        assert three.ledger.total_rounds >= one.ledger.total_rounds
        assert three.ledger.entries[: len(one.ledger.entries)] == one.ledger.entries

    def test_invalid_t(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            bundle_spanner(g, t=0)

    def test_orientation_covers_bundle(self):
        g = generators.random_weighted_graph(20, seed=11)
        result = bundle_spanner(g, k=2, t=2, seed=12)
        orientation = result.orientation()
        assert set(orientation) >= result.bundle

    def test_fixed_seed_reproducible(self):
        g = generators.random_weighted_graph(25, average_degree=8, seed=14)
        probs = {e.key: 0.5 for e in g.edges()}
        a = bundle_spanner(g, probabilities=probs, k=2, t=3, seed=15)
        b = bundle_spanner(g, probabilities=probs, k=2, t=3, seed=15)
        np.testing.assert_array_equal(a.bundle_idx, b.bundle_idx)
        np.testing.assert_array_equal(a.rejected_idx, b.rejected_idx)
        assert a.ledger == b.ledger

    def test_view_array_and_graph_dict_inputs_agree(self):
        """The sparsifier's form (EdgeView + aligned array) and the public one
        (graph + dict) are the same input and draw the same stream."""
        g = generators.random_weighted_graph(25, average_degree=8, seed=16)
        view = EdgeView.from_graph(g)
        probs = np.full(view.base_m, 0.25)
        by_view = bundle_spanner(view, probabilities=probs, k=3, t=2, seed=17)
        by_graph = bundle_spanner(g, probabilities={e.key: 0.25 for e in g.edges()}, k=3, t=2, seed=17)
        assert by_view.bundle == by_graph.bundle
        assert by_view.rejected == by_graph.rejected
        assert by_view.ledger == by_graph.ledger

    def test_ledger_is_the_layers_ledgers_in_order(self):
        g = generators.random_weighted_graph(25, average_degree=8, seed=18)
        probs = {e.key: 0.5 for e in g.edges()}
        result = bundle_spanner(g, probabilities=probs, k=2, t=3, seed=19)
        layers = [entry for layer in result.per_spanner for entry in layer.ledger.entries]
        assert result.ledger.entries == layers
        assert result.ledger.total_rounds == sum(layer.rounds for layer in result.per_spanner)

    def test_stops_early_when_graph_exhausted(self):
        g = path_graph(6)
        # a tree is consumed by the first spanner; further layers are empty
        result = bundle_spanner(g, k=2, t=5, seed=13)
        assert result.bundle == {e.key for e in g.edges()}
        assert len(result.per_spanner) <= 2
