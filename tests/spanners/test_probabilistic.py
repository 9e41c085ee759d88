"""Tests for the probabilistic spanner of Section 3.1."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import generators
from repro.spanners.probabilistic import (
    ProbabilisticSpanner,
    _resolve_connect,
    probabilistic_spanner,
)


def max_stretch(reference_graph, spanner_graph):
    dR = reference_graph.all_pairs_shortest_paths()
    dS = spanner_graph.all_pairs_shortest_paths()
    mask = np.isfinite(dR) & (dR > 0)
    if not np.any(mask):
        return 1.0
    assert np.all(np.isfinite(dS[mask])), "spanner must connect what the reference connects"
    return float(np.max(dS[mask] / dR[mask]))


class TestDeterministicCase:
    """With p === 1 the algorithm is the Baswana-Sen algorithm (Lemma 3.1)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stretch_bound(self, k):
        for seed in range(3):
            g = generators.random_weighted_graph(22, average_degree=6, max_weight=8, seed=seed)
            result = probabilistic_spanner(g, k=k, seed=seed + 50)
            assert len(result.f_minus) == 0
            stretch = max_stretch(g, result.spanner_graph(g))
            assert stretch <= 2 * k - 1 + 1e-9

    def test_unweighted_graph_stretch(self):
        g = generators.erdos_renyi(24, 0.4, max_weight=1, seed=11)
        result = probabilistic_spanner(g, k=3, seed=3)
        assert max_stretch(g, result.spanner_graph(g)) <= 5 + 1e-9

    def test_spanner_connected_when_input_connected(self):
        g = generators.random_weighted_graph(30, seed=13)
        result = probabilistic_spanner(g, k=4, seed=17)
        assert result.spanner_graph(g).is_connected()

    def test_size_smaller_than_complete_graph(self):
        g = generators.complete_graph(36)
        sizes = [
            len(probabilistic_spanner(g, k=2, seed=s).f_plus) for s in range(4)
        ]
        assert np.mean(sizes) < g.m

    def test_rounds_positive_and_recorded(self):
        g = generators.random_weighted_graph(20, seed=19)
        result = probabilistic_spanner(g, k=3, seed=23)
        assert result.rounds > 0
        assert len(result.broadcasts) > 0

    def test_k1_returns_whole_graph(self):
        g = generators.random_weighted_graph(15, seed=1)
        result = probabilistic_spanner(g, k=1, seed=2)
        assert result.f_plus == {e.key for e in g.edges()}

    def test_tree_input_is_preserved(self):
        # a tree is its own unique spanner: all edges must survive
        g = generators.path_graph(10)
        result = probabilistic_spanner(g, k=3, seed=3)
        assert result.f_plus == {e.key for e in g.edges()}

    @pytest.mark.parametrize("marked", [False, True])
    def test_uniform_marking_bits_keep_the_whole_graph(self, marked):
        """No cluster marked: every vertex leaves in phase 1 and connects to
        every neighbouring singleton.  All marked: the phase does nothing and
        the final step connects every vertex to every other cluster."""
        g = generators.complete_graph(6)
        bits = [{v: marked for v in range(6)}]
        result = probabilistic_spanner(g, k=2, marking_bits=bits)
        assert result.f_plus == {e.key for e in g.edges()}

    def test_marking_bits_decide_the_next_clustering(self):
        """Marked centres keep their clusters; every other vertex joins one or leaves."""
        g = generators.random_weighted_graph(24, average_degree=6, seed=14)
        marked = {v for v in range(g.n) if v % 4 == 0}
        bits = [{v: v in marked for v in range(g.n)}]
        result = probabilistic_spanner(g, k=3, seed=15, marking_bits=bits)
        after = result.clusters_per_phase[1]
        assert set(after.values()) <= marked
        assert all(after[c] == c for c in marked)

    def test_spanner_is_subgraph(self):
        g = generators.random_weighted_graph(30, seed=4)
        result = probabilistic_spanner(g, k=3, seed=5)
        assert result.f_plus <= {e.key for e in g.edges()}
        spanner = result.spanner_graph(g)
        assert all(spanner.weight(*key) == g.weight(*key) for key in result.f_plus)

    def test_fixed_seed_reproducible(self):
        g = generators.random_weighted_graph(20, seed=6)
        a = probabilistic_spanner(g, k=3, seed=9)
        b = probabilistic_spanner(g, k=3, seed=9)
        assert a.f_plus == b.f_plus
        assert a.charges == b.charges
        assert a.broadcasts == b.broadcasts


class TestProbabilisticCase:
    def test_partition_into_fplus_fminus(self):
        g = generators.random_weighted_graph(24, average_degree=7, seed=2)
        probs = {e.key: 0.5 for e in g.edges()}
        result = probabilistic_spanner(g, probabilities=probs, k=3, seed=5)
        assert result.f_plus.isdisjoint(result.f_minus)
        all_edges = {e.key for e in g.edges()}
        assert result.f_plus <= all_edges
        assert result.f_minus <= all_edges

    def test_per_vertex_views_consistent(self):
        g = generators.random_weighted_graph(20, seed=3)
        probs = {e.key: 0.6 for e in g.edges()}
        result = probabilistic_spanner(g, probabilities=probs, k=3, seed=7)
        for v in range(g.n):
            for u in result.f_plus_of[v]:
                assert tuple(sorted((u, v))) in result.f_plus
                assert v in result.f_plus_of[u]
            for u in result.f_minus_of[v]:
                assert tuple(sorted((u, v))) in result.f_minus
                assert v in result.f_minus_of[u]

    def test_zero_probability_puts_every_decided_edge_in_fminus(self):
        g = generators.random_weighted_graph(15, seed=4)
        probs = {e.key: 0.0 for e in g.edges()}
        result = probabilistic_spanner(g, probabilities=probs, k=2, seed=9)
        assert result.f_plus == set()
        assert len(result.f_minus) > 0

    def test_stretch_against_fplus_union_undecided(self):
        """Lemma 3.1: S = (V, F+) spans (V, F+ | E'') for any E'' inside E \\ F."""
        rng = np.random.default_rng(31)
        for seed in range(3):
            g = generators.random_weighted_graph(20, average_degree=6, seed=seed)
            probs = {e.key: 0.5 for e in g.edges()}
            result = probabilistic_spanner(g, probabilities=probs, k=3, seed=seed + 7)
            undecided = [e.key for e in g.edges() if e.key not in result.f]
            subset = [key for key in undecided if rng.random() < 0.5]
            reference = g.subgraph_with_edges(list(result.f_plus) + subset)
            assert max_stretch(reference, result.spanner_graph(g)) <= 5 + 1e-9

    def test_acceptance_rate_tracks_probability(self):
        """Each decided edge lands in F+ with its maintained probability."""
        g = generators.complete_graph(8)
        p = 0.3
        probs = {e.key: p for e in g.edges()}
        in_plus = 0
        decided = 0
        for seed in range(300):
            result = probabilistic_spanner(g, probabilities=probs, k=2, seed=seed)
            in_plus += len(result.f_plus)
            decided += len(result.f)
        assert decided > 0
        assert in_plus / decided == pytest.approx(p, abs=0.06)

    def test_orientation_covers_all_spanner_edges(self):
        g = generators.random_weighted_graph(25, seed=6)
        result = probabilistic_spanner(g, k=3, seed=8)
        assert set(result.orientation) == result.f_plus
        for key, (tail, head) in result.orientation.items():
            assert {tail, head} == set(key)

    def test_max_out_degree_reported(self):
        g = generators.random_weighted_graph(25, seed=10)
        result = probabilistic_spanner(g, k=3, seed=12)
        degrees = result.out_degrees()
        assert result.max_out_degree() == max(degrees.values())
        assert sum(degrees.values()) == len(result.f_plus)


def scalar_connect(p, starts, rng):
    """Algorithm 2 one group after the other: one draw per inspected candidate."""
    ends = np.append(starts[1:], p.size)
    accepted, rejected = [], []
    for start, end in zip(starts.tolist(), ends.tolist()):
        hit = -1
        for i in range(start, end):
            if rng.random() < p[i] or p[i] >= 1.0:
                hit = i
                break
            rejected.append(i)
        accepted.append(hit)
    return np.array(accepted, dtype=np.int64), np.array(rejected, dtype=np.int64)


class TestConnect:
    """``_resolve_connect``: every ``Connect`` group of one step at once."""

    def test_certain_candidate_accepts_the_first(self, rng):
        accepted, rejected = _resolve_connect(np.ones(3), np.array([0]), rng)
        assert accepted.tolist() == [0]
        assert rejected.size == 0

    def test_probability_zero_gives_bottom(self, rng):
        accepted, rejected = _resolve_connect(np.zeros(2), np.array([0]), rng)
        assert accepted.tolist() == [-1]
        assert rejected.tolist() == [0, 1]

    def test_empty_input_draws_nothing(self, rng):
        state = rng.bit_generator.state
        accepted, rejected = _resolve_connect(np.zeros(0), np.zeros(0, dtype=np.int64), rng)
        assert accepted.size == 0 and rejected.size == 0
        assert rng.bit_generator.state == state

    def test_candidates_after_the_acceptance_are_never_inspected(self, rng):
        # the first candidate never exists, the second always does
        twin = np.random.default_rng(12345)
        accepted, rejected = _resolve_connect(np.array([0.0, 1.0, 0.5]), np.array([0]), rng)
        assert accepted.tolist() == [1]
        assert rejected.tolist() == [0]
        twin.random(2)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_acceptance_rate_matches_probability(self):
        """A single candidate with probability p is accepted ~p of the time."""
        trials, p = 4000, 0.3
        accepted, _ = _resolve_connect(
            np.full(trials, p), np.arange(trials), np.random.default_rng(0)
        )
        assert np.mean(accepted >= 0) == pytest.approx(p, abs=0.03)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]), min_size=1, max_size=6),
        max_size=8,
    ),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_tried_candidates_are_a_prefix_of_the_scan_order(groups, seed):
    """Each group tries a prefix of its candidates: the rejected ones, then the
    accepted one, which every rejected one precedes -- and the generator ends
    where one scalar draw per inspected candidate leaves it."""
    p = np.array([q for group in groups for q in group])
    starts = np.cumsum([0] + [len(group) for group in groups[:-1]]).astype(np.int64)
    if not groups:
        starts = starts[:0]
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    accepted, rejected = _resolve_connect(p, starts, rng)
    want_accepted, want_rejected = scalar_connect(p, starts, twin)
    assert accepted.tolist() == want_accepted.tolist()
    assert rejected.tolist() == want_rejected.tolist()
    assert rng.bit_generator.state == twin.bit_generator.state
    ends = np.append(starts[1:], p.size)
    for start, end, hit in zip(starts.tolist(), ends.tolist(), accepted.tolist()):
        tried = rejected[(rejected >= start) & (rejected < end)].tolist()
        stop = end if hit < 0 else hit
        assert tried == list(range(start, stop))


class TestValidation:
    def test_invalid_k(self):
        g = generators.path_graph(4)
        with pytest.raises(ValueError):
            ProbabilisticSpanner(g, k=0)

    def test_invalid_probability(self):
        g = generators.path_graph(4)
        with pytest.raises(ValueError):
            ProbabilisticSpanner(g, probabilities={(0, 1): 2.0}, k=2)

    def test_negative_probability_array(self):
        g = generators.path_graph(4)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilisticSpanner(g, probabilities=np.array([0.5, -0.1, 0.5]), k=2)

    def test_probability_array_must_cover_every_edge(self):
        g = generators.path_graph(4)
        with pytest.raises(ValueError, match="shape"):
            ProbabilisticSpanner(g, probabilities=np.full(2, 0.5), k=2)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=5, max_value=16),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_fplus_always_spans_connected_input(n, k, seed):
    g = generators.random_weighted_graph(n, average_degree=4, seed=seed)
    result = probabilistic_spanner(g, k=k, seed=seed + 1)
    spanner = result.spanner_graph(g)
    assert spanner.is_connected()
    assert max_stretch(g, spanner) <= 2 * k - 1 + 1e-9
