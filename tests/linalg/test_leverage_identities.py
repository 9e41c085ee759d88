"""Edge leverage scores read off the resistance oracles (Lemma 4.5, Algorithm 6).

The leverage score of row ``e`` of ``W^{1/2} B`` is ``sigma_e = w_e R(u_e, v_e)``,
so every oracle that answers edge resistances also answers leverage scores.
These tests hold the oracles that remain in ``src/`` -- the blocked sparse
solves (:func:`effective_resistances_sparse`), the dense grounded inverse
(:class:`ResistanceOracle`), the grounded factorisation and the JL-sketched
oracle -- to the identities the paper's sampling argument rests on:

* Foster's theorem: the scores sum to the rank ``n - c`` of ``W^{1/2} B``
  (``c`` connected components);
* every score lies in ``(0, 1]``, and equals ``1`` exactly on bridges;
* effective resistance is a metric and never grows when a weight grows
  (Rayleigh monotonicity);
* the sketch keeps every score within its accuracy bound ``eta``.
"""

import networkx as nx
import numpy as np
import pytest

import reference_dense
from reference_generators import barbell_graph, cycle_graph, path_graph, star_graph, to_networkx
from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.linalg.resistance import SketchedResistanceOracle
from repro.linalg.sparse_backend import (
    GroundedLaplacianSolver,
    ResistanceOracle,
    effective_resistances_sparse,
)


def two_components():
    """A weighted triangle and a weighted path that share no vertex."""
    graph = WeightedGraph(7)
    graph.add_edge(0, 1, 2.0)
    graph.add_edge(1, 2, 0.5)
    graph.add_edge(2, 0, 3.0)
    graph.add_edge(3, 4, 1.5)
    graph.add_edge(4, 5, 4.0)
    graph.add_edge(5, 6, 0.25)
    return graph


WORKLOADS = [
    ("path-12", lambda: path_graph(12, weight=2.5)),
    ("star-10", lambda: star_graph(10)),
    ("cycle-15", lambda: cycle_graph(15)),
    ("grid-6x6", lambda: generators.grid_graph(6, 6)),
    ("barbell-6-3", lambda: barbell_graph(6, 3)),
    ("random-60", lambda: generators.random_weighted_graph(60, average_degree=5, seed=3)),
    ("barabasi-albert-70", lambda: generators.barabasi_albert(70, attach=2, seed=5)),
    ("two-components", two_components),
]
IDS = [name for name, _ in WORKLOADS]
FACTORIES = [factory for _, factory in WORKLOADS]


def leverage_scores(graph):
    _u, _v, w = graph.edge_array()
    return w * effective_resistances_sparse(graph)


def all_pair_resistances(graph):
    """The ``n x n`` resistance matrix from the dense grounded inverse."""
    n = graph.n
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return ResistanceOracle(graph).pair_resistances(u.ravel(), v.ravel()).reshape(n, n)


def bridge_mask(graph):
    u, v, _ = graph.edge_array()
    bridges = {frozenset(edge) for edge in nx.bridges(to_networkx(graph))}
    return np.array([frozenset((int(a), int(b))) in bridges for a, b in zip(u, v)])


@pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
class TestLeverageIdentities:
    def test_scores_sum_to_rank(self, factory):
        """Foster's theorem: ``sum_e w_e R_e = n - c``."""
        graph = factory()
        rank = graph.n - len(graph.connected_components())
        assert leverage_scores(graph).sum() == pytest.approx(rank, rel=1e-9)

    def test_scores_in_unit_interval(self, factory):
        scores = leverage_scores(factory())
        assert np.all(scores > 0.0)
        assert np.all(scores <= 1.0 + 1e-12)

    def test_bridges_and_only_bridges_have_unit_score(self, factory):
        """An edge is a cut by itself exactly when all its current flows through it."""
        graph = factory()
        scores = leverage_scores(graph)
        bridges = bridge_mask(graph)
        np.testing.assert_allclose(scores[bridges], 1.0, rtol=1e-9)
        assert np.all(scores[~bridges] < 1.0 - 1e-9)

    def test_oracles_agree_on_every_edge(self, factory):
        graph = factory()
        u, v, _ = graph.edge_array()
        reference = reference_dense.effective_resistances(graph)
        np.testing.assert_allclose(effective_resistances_sparse(graph), reference, rtol=1e-8)
        np.testing.assert_allclose(
            ResistanceOracle(graph).pair_resistances(u, v), reference, rtol=1e-8
        )
        np.testing.assert_allclose(
            GroundedLaplacianSolver(graph).pair_resistances(u, v), reference, rtol=1e-8
        )

    def test_sketched_scores_within_eta(self, factory):
        graph = factory()
        u, v, w = graph.edge_array()
        eta = 0.5
        oracle = SketchedResistanceOracle(graph, eta=eta, seed=1)
        sketched = w * oracle.pair_resistances(u, v)
        exact = leverage_scores(graph)
        assert float(np.max(np.abs(sketched - exact) / exact)) <= eta
        if oracle.exact:  # the identity sketch promises more than eta
            np.testing.assert_allclose(sketched, exact, rtol=1e-9)

    def test_resistance_is_a_metric(self, factory):
        graph = factory()
        R = all_pair_resistances(graph)
        np.testing.assert_allclose(R, R.T, rtol=1e-9)
        np.testing.assert_array_equal(np.diag(R), 0.0)
        finite = np.isfinite(R)
        assert np.all(R[finite & ~np.eye(graph.n, dtype=bool)] > 0.0)
        # R[i, k] <= R[i, j] + R[j, k] for every triple (inf on the right
        # whenever i and k are in different components)
        through = R[:, :, None] + R[None, :, :]
        assert np.all(R[:, None, :] <= through + 1e-9 * (1.0 + through))

    def test_rayleigh_monotonicity(self, factory):
        """Raising one edge weight never raises any pair resistance."""
        graph = factory()
        u, v, w = graph.edge_array()
        before = all_pair_resistances(graph)
        heavier = graph.copy()
        heavier.add_edge(int(u[0]), int(v[0]), 4.0 * float(w[0]))
        after = all_pair_resistances(heavier)
        finite = np.isfinite(before)
        assert np.all(after[finite] <= before[finite] * (1.0 + 1e-9) + 1e-12)
        assert after[u[0], v[0]] < before[u[0], v[0]]


def test_sketched_scores_within_eta_past_the_identity_sketch():
    """A graph large enough that the sketch has fewer rows than edges."""
    graph = generators.random_weighted_graph(250, average_degree=8, seed=9)
    oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0)
    assert not oracle.exact and oracle.k < graph.m
    u, v, w = graph.edge_array()
    sketched = w * oracle.pair_resistances(u, v)
    exact = leverage_scores(graph)
    assert float(np.max(np.abs(sketched - exact) / exact)) <= 0.5
    assert sketched.sum() == pytest.approx(graph.n - 1, rel=0.5)


class TestClosedForms:
    """Resistances with a textbook closed form."""

    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_path_end_to_end_is_series_sum(self, n):
        graph = path_graph(n, weight=4.0)
        assert ResistanceOracle(graph).pair_resistances([0], [n - 1])[0] == pytest.approx(
            (n - 1) / 4.0, rel=1e-12
        )

    @pytest.mark.parametrize("n, k", [(3, 1), (8, 3), (15, 7)])
    def test_cycle_is_two_parallel_arcs(self, n, k):
        graph = cycle_graph(n)
        expected = k * (n - k) / n
        assert ResistanceOracle(graph).pair_resistances([0], [k])[0] == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("n", [3, 6, 20])
    def test_complete_graph_every_pair_is_two_over_n(self, n):
        graph = generators.complete_graph(n)
        np.testing.assert_allclose(effective_resistances_sparse(graph), 2.0 / n, rtol=1e-12)

    @pytest.mark.parametrize("n", [4, 9])
    def test_star_leaves_are_two_hops_in_series(self, n):
        graph = star_graph(n, weight=0.5)
        oracle = ResistanceOracle(graph)
        assert oracle.pair_resistances([1], [n - 1])[0] == pytest.approx(4.0, rel=1e-12)
        assert oracle.pair_resistances([0], [1])[0] == pytest.approx(2.0, rel=1e-12)
