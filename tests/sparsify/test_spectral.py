"""Tests for spectral sparsification (Algorithms 4 and 5, Theorem 1.2)."""

import math

import numpy as np
import pytest
from reference_sparsify import reference_spectral_sparsify_apriori

from repro import core
from repro.graphs import generators, is_spectral_sparsifier, spectral_approximation_factor
from repro.sparsify import bundle_size, spectral, spectral_sparsify
from repro.sparsify.spectral import stretch_parameter
from repro.graphs.graph import WeightedGraph


class TestParameters:
    def test_bundle_size_formula(self):
        assert bundle_size(16, 1.0) == math.ceil(400 * 16)
        assert bundle_size(16, 0.5) == math.ceil(400 * 16 / 0.25)
        assert bundle_size(16, 1.0, scale=0.01) == math.ceil(4 * 16)

    def test_bundle_size_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            bundle_size(16, 0.0)

    def test_stretch_parameter(self):
        assert stretch_parameter(16) == 4
        assert stretch_parameter(1000) == 10


class TestAdHocSparsifier:
    def test_paper_parameters_give_valid_sparsifier(self):
        """With the paper's bundle size the output is a (1 +/- eps) sparsifier
        (at this scale it usually contains every edge, which is still valid)."""
        for g in (
            generators.random_weighted_graph(24, average_degree=6, max_weight=4, seed=1),
            generators.erdos_renyi(32, 0.4, max_weight=8, seed=1),
            generators.erdos_renyi(64, 0.4, max_weight=8, seed=1),
        ):
            result = spectral_sparsify(g, eps=0.5, seed=2)
            assert is_spectral_sparsifier(g, result.sparsifier, eps=0.5)  # slack 1e-7
            assert result.rounds > 0

    def test_sparsifier_edges_subset_with_power_of_four_weights(self):
        g = generators.random_weighted_graph(30, average_degree=8, max_weight=4, seed=3)
        result = spectral_sparsify(g, eps=0.5, seed=4, t_override=2)
        original = {e.key: e.weight for e in g.edges()}
        for edge in result.sparsifier.edges():
            assert edge.key in original
            ratio = edge.weight / original[edge.key]
            exponent = math.log(ratio, 4.0)
            assert exponent == pytest.approx(round(exponent), abs=1e-9)

    def test_ledger_holds_every_spanner_step_then_the_sampling(self):
        g = generators.random_weighted_graph(30, average_degree=8, seed=5)
        result = spectral_sparsify(g, eps=0.5, seed=6, t_override=2)
        *spanner_steps, sampling = result.ledger.entries
        assert sampling.operation == "sampling"
        steps = {"marking", "step2", "step3.1", "step3.2", "step4.1", "step4.2", "step4.3"}
        assert {entry.operation for entry in spanner_steps} == steps
        assert result.rounds == sum(entry.rounds for entry in result.ledger.entries)

    def test_iteration_count_is_log_m(self):
        g = generators.random_weighted_graph(30, average_degree=8, seed=5)
        result = spectral_sparsify(g, eps=0.5, seed=6, t_override=2)
        assert len(result.iterations) == max(1, math.ceil(math.log2(g.m)))

    def test_orientation_covers_every_sparsifier_edge(self):
        g = generators.random_weighted_graph(30, average_degree=8, seed=7)
        result = spectral_sparsify(g, eps=0.5, seed=8, t_override=2)
        sparsifier_edges = {e.key for e in result.sparsifier.edges()}
        assert set(result.orientation) == sparsifier_edges

    def test_small_t_reduces_size_on_dense_graphs(self):
        g = generators.erdos_renyi(40, 0.6, max_weight=2, seed=9)
        full = spectral_sparsify(g, eps=0.5, seed=10)
        small = spectral_sparsify(g, eps=0.5, seed=10, t_override=1)
        assert small.size < full.size
        assert full.size == g.m  # the paper-size bundle swallows the graph here

    def test_empty_graph_passthrough(self):
        g = WeightedGraph(5)
        result = spectral_sparsify(g, eps=0.5, seed=1)
        assert result.size == 0

    def test_reproducible_with_seed(self):
        g = generators.random_weighted_graph(25, average_degree=8, seed=11)
        a = spectral_sparsify(g, eps=0.5, seed=3, t_override=2)
        b = spectral_sparsify(g, eps=0.5, seed=3, t_override=2)
        assert a.sparsifier == b.sparsifier

    def test_size_bound_of_theorem(self):
        """|H| = O(n eps^-2 log^4 n); at small n the bound far exceeds m, so it
        must trivially hold -- the point is the inequality direction."""
        g = generators.erdos_renyi(32, 0.5, seed=12)
        eps = 0.5
        result = spectral_sparsify(g, eps=eps, seed=13)
        bound = g.n * (math.log2(g.n) ** 4) / eps**2
        assert result.size <= bound

    def test_rounds_scale_with_graph_weight_range(self):
        small_w = generators.random_weighted_graph(20, max_weight=2, seed=14)
        large_w = generators.random_weighted_graph(20, max_weight=2**12, seed=14)
        r_small = spectral_sparsify(small_w, eps=0.5, seed=15, t_override=1)
        r_large = spectral_sparsify(large_w, eps=0.5, seed=15, t_override=1)
        assert r_large.rounds >= r_small.rounds


class TestAprioriSparsifier:
    """Algorithm 4 (eager sampling, CONGEST only) lives in ``reference_sparsify``."""

    def test_valid_sparsifier_with_paper_parameters(self):
        g = generators.random_weighted_graph(24, average_degree=6, seed=16)
        sparsifier, _ = reference_spectral_sparsify_apriori(
            g, eps=0.5, rng=np.random.default_rng(17), t_override=bundle_size(g.n, 0.5)
        )
        assert is_spectral_sparsifier(g, sparsifier, eps=0.5)

    def test_weights_are_power_of_four_multiples(self):
        g = generators.random_weighted_graph(25, average_degree=8, max_weight=4, seed=18)
        sparsifier, _ = reference_spectral_sparsify_apriori(
            g, eps=0.5, rng=np.random.default_rng(19), t_override=2
        )
        original = {e.key: e.weight for e in g.edges()}
        for edge in sparsifier.edges():
            ratio = edge.weight / original[edge.key]
            exponent = math.log(ratio, 4.0)
            assert exponent == pytest.approx(round(exponent), abs=1e-9)

    def test_matches_adhoc_size_distribution_loosely(self):
        """Lemma 3.3 says the two algorithms have the same output distribution;
        compare the mean sparsifier size over several seeds as a smoke check."""
        g = generators.erdos_renyi(20, 0.7, max_weight=2, seed=20)
        adhoc = [spectral_sparsify(g, eps=0.5, seed=s, t_override=1).size for s in range(12)]
        apriori = [
            reference_spectral_sparsify_apriori(
                g, eps=0.5, rng=np.random.default_rng(s), t_override=1
            )[0].m
            for s in range(12)
        ]
        assert abs(np.mean(adhoc) - np.mean(apriori)) <= 0.35 * g.m


class TestQualityImprovesWithBundleSize:
    def test_larger_bundles_tighten_the_spectral_window(self, monkeypatch):
        g = generators.erdos_renyi(36, 0.7, max_weight=2, seed=21)
        monkeypatch.setattr(spectral, "stretch_parameter", lambda n: 2)
        widths = []
        for t in (1, 4, 16):
            result = spectral_sparsify(g, eps=0.5, seed=22, t_override=t)
            lo, hi = spectral_approximation_factor(g, result.sparsifier)
            widths.append(hi / max(lo, 1e-12))
        assert widths[-1] <= widths[0] + 1e-9


#: ``random_weighted_graph(n, degree, seed=7)`` sparsified at ``eps=0.5`` with
#: ``t_override=t`` and seed ``s``, keyed by the instance ``(n, degree, t, s)``
#: -> (rounds, sparsifier edges, max out-degree, spectral window).  The first
#: three are decided by the order in which the spanner / bundle / sparsify
#: layers draw their coins and by nothing else; the window is an eigenvalue
#: computation and may move by 1.5e-6.  The n = 1000 instance is the one the
#: ``construct`` workload of ``benchmarks/suite`` preprocesses, so its rounds
#: are that workload's ``congest.rounds_sparsify``.
SEEDED_STREAM = {
    (512, 8, 2, 11): (3791, 1982, 9, (0.48964, 1.520492)),
    (2000, 8, 2, 11): (6704, 7976, 12, (0.524965, 1.443056)),
    (1000, 32, 3, 7): (14707, 10086, 19, (0.0097154, 5.335089)),
}


@pytest.mark.parametrize("instance", sorted(SEEDED_STREAM), ids=lambda instance: str(instance[0]))
def test_seeded_stream_is_pinned(instance):
    """A change of any of these numbers is a change of the algorithm, not of speed."""
    n, degree, t, seed = instance
    rounds, edges, out_degree, window = SEEDED_STREAM[instance]
    graph = generators.random_weighted_graph(n, average_degree=degree, seed=7)
    result = spectral_sparsify(graph, eps=0.5, seed=seed, t_override=t)
    assert (result.rounds, result.size, result.max_out_degree()) == (rounds, edges, out_degree)
    lo, hi = spectral_approximation_factor(graph, result.sparsifier)
    assert abs(lo - window[0]) <= 1.5e-6 and abs(hi - window[1]) <= 1.5e-6, (lo, hi)


def test_construct_spanner_rounds_are_pinned():
    """The ``construct`` workload's spanner, whose rounds are its ``congest.rounds_spanner``."""
    graph = generators.random_weighted_graph(1000, average_degree=32, seed=7)
    assert core.spanner(graph, k=2, seed=7).rounds == 281
