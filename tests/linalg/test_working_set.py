"""The resistance oracles build in a bounded working set, with exact answers.

Both builders are guarded by their ``tracemalloc`` peak, not by a clock:

* the JL sketch solves its ``k`` rows in blocks of
  :func:`~repro.linalg.sparse_backend.block_columns` right-hand sides, so its
  float64 transients stay near :data:`~repro.linalg.sparse_backend.BLOCK_BYTES`
  per copy however large ``k`` is (one 434-column block on the 100 x 100
  grid peaked at 168 MB for a 19 MB result; 4 MiB blocks peak at 45.8 MB);
* the dense oracle is one in-place LAPACK Cholesky inverse, so it holds the
  reduced matrix plus ``S`` -- ``2 n^2`` doubles, 64 MB at ``n = 2000`` --
  where ``n / 512`` blocked ``splu`` solves peaked at 80.8 MB.

Block width must not change any answer, and the LAPACK oracle is pinned to
the dense ``pinv`` reference.
"""

import tracemalloc

import numpy as np
import pytest

import reference_dense
from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.linalg import sparse_backend
from repro.linalg.resistance import SketchedResistanceOracle
from repro.linalg.sparse_backend import (
    GroundedLaplacianSolver,
    NumericalHealthError,
    ResistanceOracle,
)

MB = 1e6


def traced_peak(build):
    """Peak traced allocation (bytes) while ``build()`` runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def several_components() -> WeightedGraph:
    """A weighted random graph, a grid, a weighted path and an isolated vertex."""
    parts = [
        generators.random_weighted_graph(30, average_degree=5, max_weight=8, seed=3),
        generators.grid_graph(4, 5),
    ]
    n = sum(p.n for p in parts) + 6 + 1
    graph = WeightedGraph(n)
    offset = 0
    for part in parts:
        for u, v, w in part.edge_list():
            graph.add_edge(offset + u, offset + v, w)
        offset += part.n
    for i in range(5):
        graph.add_edge(offset + i, offset + i + 1, 0.5 + i)
    return graph


class TestWorkingSetGuard:
    def test_sketch_build_peak(self):
        graph = generators.grid_graph(100, 100)
        grounded = GroundedLaplacianSolver(graph)
        graph.edge_array()
        peak = traced_peak(
            lambda: SketchedResistanceOracle(graph, eta=0.5, grounded=grounded)
        )
        # 45.8 MB measured (19 MB of it the float32 embedding); one block of
        # all k = 434 columns peaked at 168 MB
        assert peak < 57 * MB

    def test_dense_oracle_build_peak(self):
        graph = generators.random_weighted_graph(2000, 8.0, seed=7)
        graph.laplacian_csr()
        graph.connected_components()
        peak = traced_peak(lambda: ResistanceOracle(graph))
        # the reduced matrix plus S is 2 n^2 doubles (64 MB; 65.4 MB
        # measured); blocked splu solves into a separate inverse peaked at
        # 80.8 MB, so the bound leaves a quarter of n^2 doubles of slack
        assert peak < 2.25 * graph.n**2 * 8


class TestBlockWidthInvariance:
    def test_sketch_embedding_is_the_same_across_block_widths(self, monkeypatch):
        graph = generators.random_weighted_graph(400, average_degree=8, seed=4)
        grounded = GroundedLaplacianSolver(graph)
        one_block = SketchedResistanceOracle(graph, eta=0.5, seed=5, grounded=grounded)
        assert not one_block.exact
        assert one_block.k <= sparse_backend.block_columns(graph.n)
        monkeypatch.setattr(sparse_backend, "BLOCK_BYTES", 8 * graph.n * 50)
        assert one_block.k > 6 * sparse_backend.block_columns(graph.n)
        blocked = SketchedResistanceOracle(graph, eta=0.5, seed=5, grounded=grounded)
        assert blocked._embedding.dtype == np.float32
        scale = np.abs(one_block._embedding).max()
        np.testing.assert_allclose(
            blocked._embedding,
            one_block._embedding,
            atol=4 * np.finfo(np.float32).eps * scale,
        )

    def test_pair_resistances_span_several_blocks(self, monkeypatch, rng):
        graph = several_components()
        u = rng.integers(0, graph.n, size=60)
        v = rng.integers(0, graph.n, size=60)
        solver = GroundedLaplacianSolver(graph)
        full = solver.pair_resistances(u, v)
        monkeypatch.setattr(sparse_backend, "BLOCK_BYTES", 8 * graph.n * 4)
        np.testing.assert_allclose(solver.pair_resistances(u, v), full, atol=1e-12)


class TestCholeskyOracle:
    def test_matches_the_pinv_reference_on_several_components(self):
        graph = several_components()
        u, v = np.triu_indices(graph.n)
        got = ResistanceOracle(graph).pair_resistances(u, v)
        expected = reference_dense.pair_resistances(graph, u, v)
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        finite = np.isfinite(expected)
        np.testing.assert_allclose(got[finite], expected[finite], rtol=0, atol=1e-10)

    def test_inverse_is_symmetric_and_zero_at_the_grounded_vertices(self):
        graph = several_components()
        S = ResistanceOracle(graph)._S
        assert np.array_equal(S, S.T)
        grounded = [min(c) for c in graph.connected_components()]
        assert not S[grounded].any()

    def test_lapack_failure_is_a_numerical_health_error(self, monkeypatch):
        graph = generators.grid_graph(4, 4)
        monkeypatch.setattr(
            sparse_backend, "dpotrf", lambda a, **kwargs: (a, 3)
        )
        with pytest.raises(NumericalHealthError, match="info 3"):
            ResistanceOracle(graph)

    def test_non_finite_weights_are_refused(self):
        graph = generators.grid_graph(3, 3)
        graph.add_edge(0, 8, float("nan"))
        with pytest.raises(NumericalHealthError):
            ResistanceOracle(graph)
