"""The array executor against the frozen per-vertex executor, field by field.

``repro.spanners.probabilistic`` runs every step for all vertices at once and
promises the per-vertex executor's outputs *bit for bit* for every seed:
decisions, orientation, charged rounds, transcript, and the position the
generator is left at -- the sparsifier, kappa and every round count
downstream hang on that stream.  ``reference_executor.py`` is the per-vertex
implementation moved out of ``src/`` verbatim; these tests draw graphs,
probability columns, alive sub-views and marking bits and compare the two.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_executor import ReferenceProbabilisticSpanner

from repro.graphs import generators
from repro.graphs.graph import EdgeView, WeightedGraph
from repro.spanners.probabilistic import ProbabilisticSpanner

PROBABILITY_COLUMNS = ("none", "constant", "quarter-powers", "zeros", "ones", "dict")


def draw_graph(kind: str, n: int, degree: int, max_weight: int, seed: int):
    """Integer weights in ``[1, max_weight]``: small ranges force weight ties."""
    if kind == "grid":
        rows = max(2, int(np.sqrt(n)))
        return generators.grid_graph(rows, max(2, n // rows))
    if kind == "complete":
        return generators.complete_graph(min(n, 24))
    return generators.random_weighted_graph(
        n, average_degree=min(degree, n - 1), max_weight=max_weight, seed=seed
    )


def draw_probabilities(column: str, view: EdgeView, rng: np.random.Generator):
    m = view.base_m
    if column == "none":
        return None
    if column == "constant":
        return np.full(m, float(rng.choice([0.1, 0.5, 0.9])))
    if column == "quarter-powers":
        # what Algorithm 5 maintains: bundle edges at 1, the rest at 4^-i
        return 0.25 ** rng.integers(0, 4, size=m)
    if column == "zeros":
        return np.zeros(m)
    if column == "ones":
        return np.ones(m)
    # dict form: half the edges listed, the others default to 1
    return {view.edge_key(i): float(rng.random()) for i in range(0, m, 2)}


def assert_same_run(view, probabilities, k, seed, marking_bits=None, record=True):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new = ProbabilisticSpanner(
        view, probabilities, k=k, rng=rng_new, marking_bits=marking_bits, record_broadcasts=record
    ).run()
    ref = ReferenceProbabilisticSpanner(
        view, probabilities, k=k, rng=rng_ref, marking_bits=marking_bits, record_broadcasts=record
    ).run()
    assert set(new.f_plus_idx.tolist()) == ref.f_plus_idx
    assert set(new.f_minus_idx.tolist()) == ref.f_minus_idx
    assert new.f_plus_idx.size == len(ref.f_plus_idx)  # no index twice
    assert new.f_minus_idx.size == len(ref.f_minus_idx)
    assert new.f_plus == ref.f_plus
    assert new.f_minus == ref.f_minus
    assert new.f_plus_of == ref.f_plus_of
    assert new.f_minus_of == ref.f_minus_of
    assert new.orientation == ref.orientation
    assert new.rounds == ref.rounds
    assert new.clusters_per_phase == ref.clusters_per_phase
    assert new.broadcasts == ref.broadcasts
    assert record or new.broadcasts == []
    assert new.out_degrees() == ref.out_degrees()
    assert new.max_out_degree() == ref.max_out_degree()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return new


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["random", "random", "grid", "complete"]),
    n=st.integers(min_value=4, max_value=60),
    degree=st.integers(min_value=2, max_value=14),
    max_weight=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=5),
    column=st.sampled_from(PROBABILITY_COLUMNS),
    sub_view=st.booleans(),
    record=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_matches_per_vertex_executor(
    kind, n, degree, max_weight, k, column, sub_view, record, seed
):
    graph = draw_graph(kind, n, degree, max_weight, seed)
    rng = np.random.default_rng(seed + 1)
    view = EdgeView.from_graph(graph)
    if sub_view:
        view = view.subview(rng.random(view.base_m) < 0.7)
    probabilities = draw_probabilities(column, view, rng)
    assert_same_run(view, probabilities, k, seed + 2, record=record)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=40),
    k=st.integers(min_value=2, max_value=5),
    column=st.sampled_from(PROBABILITY_COLUMNS),
    listed_phases=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_explicit_marking_bits(n, k, column, listed_phases, seed):
    """Listed phases draw no marking coin; phases past the list fall back to the rng."""
    graph = generators.random_weighted_graph(n, average_degree=5, max_weight=3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    view = EdgeView.from_graph(graph)
    # centres missing from a phase's dict count as unmarked
    marking_bits = [
        {int(c): bool(rng.random() < 0.5) for c in range(n) if rng.random() < 0.8}
        for _ in range(min(listed_phases, k))
    ]
    probabilities = draw_probabilities(column, view, rng)
    assert_same_run(view, probabilities, k, seed + 2, marking_bits=marking_bits)


#: fixed graphs pinned beside the drawn ones: weight ties, a dense and a tree input
WORKLOADS = {
    "random-40": lambda: generators.random_weighted_graph(40, average_degree=6, max_weight=8, seed=3),
    "erdos-renyi-30": lambda: generators.erdos_renyi(30, 0.4, max_weight=5, seed=5),
    "complete-20": lambda: generators.complete_graph(20),
    "path-25": lambda: generators.path_graph(25),
}


@pytest.mark.parametrize("column", ["none", "quarter-powers"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_named_workload(k, name, column):
    view = EdgeView.from_graph(WORKLOADS[name]())
    for seed in range(4):
        probabilities = draw_probabilities(column, view, np.random.default_rng(seed))
        assert_same_run(view, probabilities, k, seed)


def test_named_marking_bits():
    view = EdgeView.from_graph(generators.random_weighted_graph(30, average_degree=5, seed=11))
    bits = [{v: v % 3 == 0 for v in range(30)}, {v: v % 5 == 0 for v in range(30)}]
    assert_same_run(view, None, 3, seed=1, marking_bits=bits)


def test_disconnected_graph():
    graph = WeightedGraph(12)
    for u, v, w in [(0, 1, 2.0), (1, 2, 1.0), (3, 4, 5.0), (5, 6, 1.5), (6, 7, 2.5)]:
        graph.add_edge(u, v, w)
    view = EdgeView.from_graph(graph)
    for seed in range(3):
        result = assert_same_run(view, None, 2, seed)
        assert result.f_plus == {e.key for e in graph.edges()}


@pytest.mark.parametrize("k", [1, 3])
def test_no_alive_edge(k):
    """Nothing to scan: every step charges its single round, no coin is flipped."""
    graph = generators.random_weighted_graph(12, seed=3)
    view = EdgeView.from_graph(graph)
    view = view.subview(np.zeros(view.base_m, dtype=bool))
    result = assert_same_run(view, None, k, seed=5)
    assert result.f_plus_idx.size == 0 and result.f_minus_idx.size == 0


def test_shared_generator_over_successive_runs():
    """Algorithm 3's usage: one generator, run after run on shrinking views."""
    graph = generators.random_weighted_graph(50, average_degree=10, max_weight=4, seed=9)
    view_new = view_ref = EdgeView.from_graph(graph)
    probabilities = np.full(view_new.base_m, 0.5)
    rng_new, rng_ref = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(4):
        new = ProbabilisticSpanner(view_new, probabilities, k=3, rng=rng_new).run()
        ref = ReferenceProbabilisticSpanner(view_ref, probabilities, k=3, rng=rng_ref).run()
        assert set(new.f_plus_idx.tolist()) == ref.f_plus_idx
        assert set(new.f_minus_idx.tolist()) == ref.f_minus_idx
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        alive = view_new.alive.copy()
        alive[new.f_plus_idx] = False
        alive[new.f_minus_idx] = False
        view_new = view_ref = view_new.subview(alive)


def test_other_bit_generators_end_where_scalar_draws_would():
    """The stream position is kept by state save / restore, not by ``advance``."""
    graph = generators.random_weighted_graph(40, average_degree=8, max_weight=3, seed=4)
    view = EdgeView.from_graph(graph)
    probabilities = np.full(view.base_m, 0.4)
    for bit_generator in (np.random.MT19937, np.random.Philox, np.random.SFC64):
        rng_new = np.random.Generator(bit_generator(11))
        rng_ref = np.random.Generator(bit_generator(11))
        new = ProbabilisticSpanner(view, probabilities, k=3, rng=rng_new).run()
        ref = ReferenceProbabilisticSpanner(view, probabilities, k=3, rng=rng_ref).run()
        assert new.f_plus == ref.f_plus and new.f_minus == ref.f_minus
        assert new.rounds == ref.rounds
        assert rng_new.random() == rng_ref.random()
