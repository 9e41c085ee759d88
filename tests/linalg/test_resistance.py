"""Tests for the JL-sketched effective-resistance oracle.

The accuracy contract -- relative error at most ``eta`` on every pair, with
high probability over the sketch seed -- is pinned against the exact dense
:class:`ResistanceOracle` on *all* vertex pairs of seeded workloads spanning
the generator spread (random / Barabasi-Albert / Watts-Strogatz / grid), all
well inside the ``n <= 2048`` regime where the dense oracle is available.
"""

import numpy as np
import pytest

from reference_generators import path_graph, watts_strogatz
from repro.core import api
from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.linalg.resistance import SketchedResistanceOracle
from repro.linalg.sparse_backend import GroundedLaplacianSolver, ResistanceOracle

WORKLOADS = [
    ("random-300", lambda: generators.random_weighted_graph(300, average_degree=8, seed=7)),
    ("barabasi-albert-300", lambda: generators.barabasi_albert(300, attach=4, seed=11)),
    ("watts-strogatz-300", lambda: watts_strogatz(300, k=6, beta=0.1, seed=13)),
    ("grid-18x18", lambda: generators.grid_graph(18, 18)),
]


def all_pairs(n):
    return np.triu_indices(n, k=1)


class TestAccuracyContract:
    @pytest.mark.parametrize("name,factory", WORKLOADS)
    @pytest.mark.parametrize("eta", [0.5, 0.25])
    def test_relative_error_at_most_eta_on_all_pairs(self, name, factory, eta):
        graph = factory()
        exact = ResistanceOracle(graph)
        u, v = all_pairs(graph.n)
        reference = exact.pair_resistances(u, v)
        oracle = SketchedResistanceOracle(graph, eta=eta, seed=0)
        approx = oracle.pair_resistances(u, v)
        relative = np.abs(approx - reference) / reference
        assert float(relative.max()) <= eta, (name, eta, float(relative.max()))

    def test_tight_eta_degrades_to_exact_identity_sketch(self):
        """k >= m: the identity sketch makes the oracle exact, not bigger."""
        graph = generators.grid_graph(8, 8)
        oracle = SketchedResistanceOracle(graph, eta=0.05, seed=0)
        assert oracle.exact
        assert oracle.k == graph.m
        exact = ResistanceOracle(graph)
        u, v = all_pairs(graph.n)
        np.testing.assert_allclose(
            oracle.pair_resistances(u, v), exact.pair_resistances(u, v),
            rtol=1e-5, atol=1e-9,
        )

    def test_identity_sketch_holds_eta_below_float32_rounding(self):
        """The exact branch stores float64, so even eta=1e-7 is honoured."""
        graph = generators.random_weighted_graph(80, average_degree=5, seed=3)
        eta = 1e-7
        oracle = SketchedResistanceOracle(graph, eta=eta, seed=0)
        assert oracle.exact
        assert oracle._embedding.dtype == np.float64
        u, v = all_pairs(graph.n)
        reference = ResistanceOracle(graph).pair_resistances(u, v)
        relative = np.abs(oracle.pair_resistances(u, v) - reference) / reference
        assert float(relative.max()) <= eta


class TestDeterminism:
    def test_same_seed_same_answers(self):
        graph = generators.random_weighted_graph(200, average_degree=6, seed=3)
        u, v = all_pairs(graph.n)
        a = SketchedResistanceOracle(graph, eta=0.5, seed=42).pair_resistances(u, v)
        b = SketchedResistanceOracle(graph, eta=0.5, seed=42).pair_resistances(u, v)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        graph = generators.random_weighted_graph(200, average_degree=6, seed=3)
        u, v = all_pairs(graph.n)
        a = SketchedResistanceOracle(graph, eta=0.5, seed=1).pair_resistances(u, v)
        b = SketchedResistanceOracle(graph, eta=0.5, seed=2).pair_resistances(u, v)
        assert not np.array_equal(a, b)


class TestSemantics:
    def test_cross_component_inf_and_ties_zero(self):
        graph = WeightedGraph(8)
        for a, b, w in [(0, 1, 1.0), (1, 2, 2.0), (4, 5, 1.0), (5, 6, 3.0)]:
            graph.add_edge(a, b, w)
        oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0)
        r = oracle.pair_resistances([0, 0, 3, 4], [2, 0, 7, 4])
        assert np.isfinite(r[0]) and r[0] > 0
        assert r[1] == 0.0
        assert np.isinf(r[2])
        assert r[3] == 0.0

    def test_empty_graph(self):
        oracle = SketchedResistanceOracle(WeightedGraph(4), eta=0.5, seed=0)
        r = oracle.pair_resistances([0, 1], [1, 1])
        assert np.isinf(r[0]) and r[1] == 0.0

    def test_validation(self):
        graph = path_graph(6)
        for bad_eta in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                SketchedResistanceOracle(graph, eta=bad_eta)
        with pytest.raises(ValueError):
            SketchedResistanceOracle(graph, eta=0.5, k_override=0)
        oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0)
        with pytest.raises(ValueError):
            oracle.pair_resistances([0], [6])
        with pytest.raises(ValueError):
            oracle.pair_resistances([0, 1], [1])

    def test_reuses_shared_grounded_solver(self):
        graph = generators.random_weighted_graph(120, average_degree=6, seed=5)
        grounded = GroundedLaplacianSolver(graph)
        oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0, grounded=grounded)
        u, v = all_pairs(graph.n)
        fresh = SketchedResistanceOracle(graph, eta=0.5, seed=0)
        np.testing.assert_array_equal(
            oracle.pair_resistances(u, v), fresh.pair_resistances(u, v)
        )

    def test_nbytes_tracks_embedding(self):
        graph = generators.random_weighted_graph(150, average_degree=6, seed=5)
        oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0)
        assert oracle.nbytes() >= graph.n * oracle.k * 4

    def test_k_override(self):
        graph = generators.random_weighted_graph(150, average_degree=6, seed=5)
        oracle = SketchedResistanceOracle(graph, eta=0.9, k_override=17)
        assert oracle.k == 17 and not oracle.exact


class TestApiKnob:
    def test_api_eta_routes_long_pair_lists_to_sketched_oracle(self):
        graph = generators.random_weighted_graph(300, average_degree=8, seed=7)
        rng = np.random.default_rng(1)
        pairs = [  # longer than the sketch dimension, so the build amortises
            (int(a), int(b)) for a, b in rng.integers(0, graph.n, (1200, 2))
        ]
        exact = api.effective_resistances(graph, pairs=pairs)
        approx = api.effective_resistances(graph, pairs=pairs, eta=0.5, seed=0)
        mask = np.isfinite(exact) & (exact > 0)
        assert np.all(np.abs(approx[mask] - exact[mask]) / exact[mask] <= 0.5)
        ties = np.asarray([a == b for a, b in pairs])
        np.testing.assert_array_equal(approx[ties], 0.0)

    def test_api_eta_short_pair_lists_answered_exactly(self):
        # fewer pairs than sketch rows: the one-shot facade must not pay a
        # k-solve sketch build, it answers exactly (satisfying any eta)
        graph = generators.random_weighted_graph(300, average_degree=8, seed=7)
        pairs = [(0, 10), (5, 250), (17, 17)]
        exact = api.effective_resistances(graph, pairs=pairs)
        approx = api.effective_resistances(graph, pairs=pairs, eta=0.5, seed=0)
        np.testing.assert_allclose(approx, exact, rtol=1e-9)

    def test_api_eta_with_edge_pairs_default(self):
        graph = generators.grid_graph(20, 20)
        exact = api.effective_resistances(graph)
        approx = api.effective_resistances(graph, eta=0.5, seed=0)
        assert approx.shape == exact.shape
        assert np.all(np.abs(approx - exact) / exact <= 0.5)

    def test_api_eta_validated_even_for_short_lists(self):
        graph = path_graph(8)
        with pytest.raises(ValueError):
            api.effective_resistances(graph, pairs=[(0, 1)], eta=2.0)

    def test_api_exact_path_unchanged_without_eta(self):
        graph = generators.grid_graph(6, 6)
        np.testing.assert_array_equal(
            api.effective_resistances(graph), api.effective_resistances(graph)
        )
