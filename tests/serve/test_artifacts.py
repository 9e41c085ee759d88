"""ArtifactCache: hits, LRU eviction, byte accounting, invalidation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import generators
from repro.linalg.sparse_backend import GroundedLaplacianSolver
from repro.serve.artifacts import ArtifactCache, estimate_nbytes
from repro.solvers.laplacian import BCCLaplacianSolver


class CountingBuilder:
    def __init__(self, value_factory):
        self.calls = 0
        self._factory = value_factory

    def __call__(self):
        self.calls += 1
        return self._factory()


class TestEstimateNbytes:
    def test_ndarray_exact(self):
        x = np.zeros((10, 10))
        assert estimate_nbytes(x) == x.nbytes

    def test_sparse_matrix(self):
        m = sp.random(50, 50, density=0.1, format="csr", random_state=0)
        expected = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert estimate_nbytes(m) == expected

    def test_objects_with_nbytes_method(self):
        graph = generators.grid_graph(8, 8)
        solver = GroundedLaplacianSolver(graph)
        assert estimate_nbytes(solver) == solver.nbytes() > 0

    def test_solver_preprocessing(self):
        graph = generators.random_weighted_graph(40, seed=1)
        prep = BCCLaplacianSolver.prepare(graph, seed=0, t_override=2)
        assert estimate_nbytes(prep) == prep.nbytes() > 0

    def test_graph_scales_with_edges(self):
        small = generators.grid_graph(4, 4)
        big = generators.grid_graph(20, 20)
        assert estimate_nbytes(big) > estimate_nbytes(small) > 0

    def test_containers(self):
        x = np.zeros(1000)
        assert estimate_nbytes({"a": x}) > x.nbytes
        assert estimate_nbytes([x, x]) > x.nbytes


class TestArtifactCache:
    def test_miss_builds_then_hit_reuses(self):
        cache = ArtifactCache()
        builder = CountingBuilder(lambda: np.arange(100))
        value1, hit1 = cache.get_or_build("g", 0, "solver", (), builder)
        value2, hit2 = cache.get_or_build("g", 0, "solver", (), builder)
        assert (not hit1) and hit2
        assert builder.calls == 1
        assert value1 is value2
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_params_and_kind_are_part_of_identity(self):
        cache = ArtifactCache()
        builder = CountingBuilder(lambda: np.arange(10))
        cache.get_or_build("g", 0, "solver", (1,), builder)
        cache.get_or_build("g", 0, "solver", (2,), builder)
        cache.get_or_build("g", 0, "sparsifier", (1,), builder)
        assert builder.calls == 3

    def test_version_is_part_of_identity(self):
        cache = ArtifactCache()
        builder = CountingBuilder(lambda: np.arange(10))
        cache.get_or_build("g", 0, "solver", (), builder)
        _, hit = cache.get_or_build("g", 1, "solver", (), builder)
        assert not hit
        assert builder.calls == 2

    def test_lru_eviction_order(self):
        cache = ArtifactCache(max_bytes=int(estimate_nbytes(np.arange(10)) * 2.5))
        builder = CountingBuilder(lambda: np.arange(10))
        cache.get_or_build("a", 0, "k", (), builder)
        cache.get_or_build("b", 0, "k", (), builder)
        cache.get_or_build("a", 0, "k", (), builder)  # touch a -> b is LRU
        cache.get_or_build("c", 0, "k", (), builder)  # evicts b
        assert cache.contains("a", 0, "k")
        assert not cache.contains("b", 0, "k")
        assert cache.contains("c", 0, "k")
        assert cache.stats.evictions == 1

    def test_lru_eviction_by_bytes(self):
        entry_bytes = estimate_nbytes(np.zeros(1000))
        cache = ArtifactCache(max_bytes=int(entry_bytes * 2.5))
        builder = CountingBuilder(lambda: np.zeros(1000))
        for key in ("a", "b", "c"):
            cache.get_or_build(key, 0, "k", (), builder)
        assert len(cache) == 2
        assert not cache.contains("a", 0, "k")
        assert cache.total_bytes <= cache.max_bytes

    def test_oversized_entry_is_kept_until_next_insert(self):
        cache = ArtifactCache(max_bytes=64)
        cache.get_or_build("big", 0, "k", (), lambda: np.zeros(1000))
        assert len(cache) == 1  # never evict the most recent insert
        cache.get_or_build("big2", 0, "k", (), lambda: np.zeros(1000))
        assert len(cache) == 1
        assert cache.contains("big2", 0, "k")

    def test_invalidate_graph_all_versions(self):
        cache = ArtifactCache()
        builder = CountingBuilder(lambda: np.arange(10))
        cache.get_or_build("g", 0, "solver", (), builder)
        cache.get_or_build("g", 1, "solver", (), builder)
        cache.get_or_build("h", 0, "solver", (), builder)
        dropped = cache.invalidate_graph("g")
        assert dropped == 2
        assert len(cache) == 1
        assert cache.contains("h", 0, "solver")
        assert cache.stats.invalidations == 2

    def test_invalidate_graph_keep_current_version(self):
        cache = ArtifactCache()
        builder = CountingBuilder(lambda: np.arange(10))
        cache.get_or_build("g", 0, "solver", (), builder)
        cache.get_or_build("g", 3, "solver", (), builder)
        dropped = cache.invalidate_graph("g", keep_version=3)
        assert dropped == 1
        assert cache.contains("g", 3, "solver")
        assert not cache.contains("g", 0, "solver")

    def test_total_bytes_tracks_removals(self):
        cache = ArtifactCache()
        cache.get_or_build("g", 0, "k", (), lambda: np.zeros(1000))
        before = cache.total_bytes
        assert before >= 8000
        cache.invalidate_graph("g")
        assert cache.total_bytes == 0
        cache.get_or_build("g", 0, "k", (), lambda: np.zeros(1000))
        cache.clear()
        assert cache.total_bytes == 0 and len(cache) == 0

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_bytes=0)
