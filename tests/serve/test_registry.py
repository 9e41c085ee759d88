"""GraphRegistry: fingerprints, handles, staleness, collisions."""

import pytest
from reference_generators import edge_list

from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.serve.registry import (
    FingerprintCollisionError,
    GraphRegistry,
    graph_fingerprint,
)


def make_graph(seed=3):
    return generators.random_weighted_graph(24, average_degree=4, seed=seed)


class TestGraphFingerprint:
    def test_deterministic(self):
        g = make_graph()
        assert graph_fingerprint(g) == graph_fingerprint(g)

    def test_equal_content_equal_fingerprint(self):
        g = make_graph()
        h = g.copy()
        assert g is not h
        assert graph_fingerprint(g) == graph_fingerprint(h)

    def test_insertion_order_irrelevant(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 2.0)
        g.add_edge(2, 3, 1.0)
        h = WeightedGraph(4)
        h.add_edge(2, 3, 1.0)
        h.add_edge(0, 1, 2.0)
        assert graph_fingerprint(g) == graph_fingerprint(h)

    def test_sensitive_to_edges_weights_and_n(self):
        g = make_graph()
        plus_edge = g.copy()
        extra = next(
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        )
        plus_edge.add_edge(*extra, 1.0)
        reweighted = g.copy()
        u, v, _ = edge_list(g)[0]
        reweighted.add_edge(u, v, 99.0)
        bigger = WeightedGraph(g.n + 1)
        for a, b, w in edge_list(g):
            bigger.add_edge(a, b, w)
        fingerprints = {
            graph_fingerprint(g),
            graph_fingerprint(plus_edge),
            graph_fingerprint(reweighted),
            graph_fingerprint(bigger),
        }
        assert len(fingerprints) == 4


class TestVersionCounter:
    def test_mutators_bump_version(self):
        g = WeightedGraph(5)
        v0 = g.version
        g.add_edge(0, 1, 1.0)
        v1 = g.version
        g.add_edges([1, 2], [2, 3], 1.0)
        v2 = g.version
        g.remove_edge(0, 1)
        v3 = g.version
        assert v0 < v1 < v2 < v3

    def test_queries_do_not_bump(self):
        g = make_graph()
        version = g.version
        g.edge_array()
        g.is_connected()
        list(g.edges())
        assert g.version == version


class TestGraphRegistry:
    def test_register_and_get(self):
        registry = GraphRegistry()
        g = make_graph()
        key = registry.register(g)
        entry = registry.get(key)
        assert entry.graph is g
        assert entry.is_current()
        assert key in registry and len(registry) == 1

    def test_named_handle(self):
        registry = GraphRegistry()
        key = registry.register(make_graph(), name="prod-graph")
        assert key == "prod-graph"
        assert registry.get("prod-graph").name == "prod-graph"

    def test_same_content_deduplicates(self):
        registry = GraphRegistry()
        g = make_graph()
        key1 = registry.register(g)
        key2 = registry.register(g.copy())
        assert key1 == key2
        assert len(registry) == 1

    def test_naming_already_registered_content_raises(self):
        # silently returning the anonymous handle would leave the requested
        # name unusable; the registry must refuse instead
        registry = GraphRegistry()
        g = make_graph()
        key = registry.register(g)
        with pytest.raises(ValueError):
            registry.register(g.copy(), name="prod")
        assert "prod" not in registry
        # same name for the same content is an idempotent no-op
        named = registry.register(make_graph(seed=8), name="other")
        assert registry.register(make_graph(seed=8), name="other") == named

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            GraphRegistry().get("nope")

    def test_mutation_detected(self):
        registry = GraphRegistry()
        g = make_graph()
        key = registry.register(g)
        assert registry.get(key).is_current()
        g.add_edge(0, 23, 7.0)
        assert not registry.get(key).is_current()

    def test_revalidate_refreshes_fingerprint_and_version(self):
        registry = GraphRegistry()
        g = make_graph()
        key = registry.register(g)
        old_fingerprint = registry.get(key).fingerprint
        g.add_edge(0, 23, 7.0)
        assert registry.revalidate(key) is True
        entry = registry.get(key)
        assert entry.is_current()
        assert entry.fingerprint != old_fingerprint
        assert entry.fingerprint == graph_fingerprint(g)
        # no drift -> no-op
        assert registry.revalidate(key) is False

    def test_unregister(self):
        registry = GraphRegistry()
        g = make_graph()
        key = registry.register(g)
        registry.unregister(key)
        assert key not in registry
        # content can be registered again afterwards
        assert registry.register(g) == key

    def test_register_original_content_after_mutation_is_not_a_collision(self):
        # a's fingerprint index entry goes stale when a mutates; registering
        # a graph equal to a's ORIGINAL content must succeed (fresh handle),
        # not die with a spurious FingerprintCollisionError
        registry = GraphRegistry()
        a = make_graph(seed=1)
        snapshot = a.copy()
        key_a = registry.register(a)
        a.add_edge(0, 23, 7.0)
        key_b = registry.register(snapshot)
        assert key_b != key_a
        assert registry.get(key_b).graph is snapshot
        # and a's entry was revalidated along the way
        assert registry.get(key_a).is_current()
        # the disambiguated handle keeps deduplicating
        assert registry.register(snapshot.copy()) == key_b

    def test_repeated_drift_keeps_fingerprint_index_consistent(self):
        # g1 drifts into g2's content and then away again; g2's index
        # mapping must survive so its content still deduplicates
        registry = GraphRegistry()
        g1 = WeightedGraph(3)
        g1.add_edge(0, 1, 1.0)
        g2 = WeightedGraph(3)
        g2.add_edge(0, 1, 1.0)
        g2.add_edge(1, 2, 1.0)
        key1 = registry.register(g1, name="g1")
        key2 = registry.register(g2, name="g2")
        g1.add_edge(1, 2, 1.0)  # g1 now equals g2's content
        registry.revalidate(key1)
        g1.add_edge(0, 2, 1.0)  # and drifts away again
        registry.revalidate(key1)
        assert registry.register(g2.copy()) == key2  # dedup still works
        registry.unregister(key2)
        assert key2 not in registry

    def test_fingerprint_collision_detected(self):
        # A deliberately broken fingerprint maps every graph to one digest;
        # the registry must detect the content mismatch, not alias artifacts.
        registry = GraphRegistry(fingerprint_fn=lambda graph: "constant")
        registry.register(make_graph(seed=1))
        with pytest.raises(FingerprintCollisionError):
            registry.register(make_graph(seed=2))

    def test_collision_on_revalidate_detected(self):
        counter = iter(["fp-a", "fp-b", "fp-b"])
        registry = GraphRegistry(fingerprint_fn=lambda graph: next(counter))
        g = make_graph(seed=1)
        other = make_graph(seed=2)
        key_g = registry.register(g)  # fp-a
        registry.register(other)  # fp-b
        g.add_edge(0, 23, 7.0)  # drift; next fingerprint call returns fp-b
        with pytest.raises(FingerprintCollisionError):
            registry.revalidate(key_g)
