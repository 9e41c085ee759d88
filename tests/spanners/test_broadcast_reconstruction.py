"""The sampling outcome is recoverable from the broadcasts alone (Section 3.1).

A vertex never tells its neighbours which coins failed.  It broadcasts the
accepted connection ``(u, w)`` -- or bottom -- per ``Connect`` call, and every
receiver works the rest out by three rules:

1. accepted ``(u, w)``: the edge ``{sender, u}`` exists (``F+``);
2. every still-undeleted edge from the sender into the addressed cluster(s)
   that precedes ``(w, u)`` in scan order was tried first and failed (``F-``);
3. bottom: all of them failed.

These tests replay a run's transcript in order against nothing but the input
graph and the per-phase clusterings, rebuild ``F+`` / ``F-`` by those rules,
and demand the executor's own bookkeeping.  The addressed clusters of a step-2
broadcast are the marked ones, which a receiver knows as the clusters that
are still there in the next phase; step 3 only scans below the threshold the
sender's own step-2 broadcast of that phase announced.
"""

import math

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.graph import EdgeView, canonical_edge
from repro.spanners.probabilistic import ProbabilisticSpanner

NO_LIMIT = (math.inf, math.inf)


def replay(view: EdgeView, result):
    """Rebuild ``(F+, F-)`` from ``result.broadcasts`` by the receiver rules."""
    neighbours = {v: [] for v in range(view.n)}
    for i in view.alive_indices().tolist():
        a, b = view.edge_key(i)
        neighbours[a].append((float(view.w[i]), b))
        neighbours[b].append((float(view.w[i]), a))
    clusterings = result.clusters_per_phase
    f_plus, f_minus = set(), set()
    announced = {}  # (phase, sender) -> the (W_v, u) of its step-2 broadcast

    for record in result.broadcasts:
        sender, clustering = record.sender, clusterings[record.phase]
        connection = NO_LIMIT if record.accepted is None else (record.weight, record.accepted)
        limit = NO_LIMIT
        if record.step == "step2":
            addressed = set(clusterings[record.phase + 1].values())
            announced[(record.phase, sender)] = connection
        else:
            addressed = {record.target_cluster}
            if record.step.startswith("step3"):
                limit = announced[(record.phase, sender)]
        scanned = [
            (w, u)
            for w, u in neighbours[sender]
            if clustering.get(u) in addressed
            and (w, u) < limit
            and canonical_edge(sender, u) not in f_minus
        ]
        if record.accepted is not None:
            assert connection in scanned, "accepted a neighbour the receivers cannot place"
            assert clustering[record.accepted] == record.target_cluster
            if record.step == "step2":  # the sender joins the cluster it connected to
                assert clusterings[record.phase + 1][sender] == record.target_cluster
            f_plus.add(canonical_edge(sender, record.accepted))
        for w, u in scanned:
            if (w, u) < connection:
                key = canonical_edge(sender, u)
                assert key not in f_plus, "an edge known to exist was tried and failed"
                f_minus.add(key)
    return f_plus, f_minus


def run_and_replay(view, probabilities, k, seed):
    result = ProbabilisticSpanner(view, probabilities, k=k, seed=seed).run()
    f_plus, f_minus = replay(view, result)
    assert f_plus == result.f_plus
    assert f_minus == result.f_minus
    return result


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deterministic_input(k, seed):
    """``p === 1``: the transcript names every spanner edge and nothing fails."""
    graph = generators.random_weighted_graph(40, average_degree=7, max_weight=4, seed=seed)
    result = run_and_replay(EdgeView.from_graph(graph), None, k, seed + 10)
    assert result.f_minus == set()
    assert len(result.f_plus) > 0


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.7])
def test_constant_probability(k, p):
    graph = generators.random_weighted_graph(40, average_degree=8, max_weight=3, seed=k)
    view = EdgeView.from_graph(graph)
    result = run_and_replay(view, np.full(view.base_m, p), k, seed=k + 20)
    assert len(result.f_minus) > 0


@pytest.mark.parametrize("seed", range(6))
def test_sparsifier_style_probabilities_on_a_sub_view(seed):
    """Algorithm 5's inputs: probabilities 4^-i, certain edges among them, dead edges."""
    graph = generators.random_weighted_graph(50, average_degree=10, max_weight=5, seed=seed)
    rng = np.random.default_rng(seed)
    view = EdgeView.from_graph(graph)
    view = view.subview(rng.random(view.base_m) < 0.8)
    probabilities = 0.25 ** rng.integers(0, 3, size=view.base_m)
    result = run_and_replay(view, probabilities, k=3, seed=seed + 30)
    alive = {view.edge_key(i) for i in view.alive_indices().tolist()}
    assert result.f_plus | result.f_minus <= alive


def test_grid_with_unit_weights():
    """All weights tie: the scan order is decided by identifiers alone."""
    graph = generators.grid_graph(6, 7)
    view = EdgeView.from_graph(graph)
    run_and_replay(view, np.full(view.base_m, 0.5), k=3, seed=5)
