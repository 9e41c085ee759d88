"""Absorbing an edge mutation costs work proportional to the delta, by count.

A served mutation stream on grid-100x100 (add, reweight up, reweight down,
remove; sketched ``eta = 0.5`` and exact pair queries after each) beside
solves on a small random graph mutated the same way.  No wall clock: the
test counts the calls that would bring back per-record O(m) or O(u) work --
a sort of the weight dict to rebuild a registered graph's ``edge_array``, a
replay of the Kane-Nelson draws to recover a sketch column, an
``np.outer`` temporary per rank-1 correction in ``sparse_backend`` -- and
asserts there are none once the artifacts are warm.
"""

import sys

import numpy as np
from reference_generators import edge_list

from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.linalg import jl, sparse_backend
from repro.linalg.resistance import SketchedResistanceOracle
from repro.serve import LaplacianService


def test_mutation_stream_does_no_per_record_rebuild_work(monkeypatch):
    grid = generators.grid_graph(100, 100)
    small = generators.random_weighted_graph(200, 8.0, seed=3)
    service = LaplacianService(t_override=2, auto_flush=False)
    try:
        keys = {"grid": service.register(grid, name="grid")}
        keys["small"] = service.register(small, name="small")
        rng = np.random.default_rng(5)

        def pairs(graph, count):
            u = rng.integers(0, graph.n, count)
            v = (u + 1 + rng.integers(0, graph.n - 1, count)) % graph.n
            return list(zip(u.tolist(), v.tolist()))

        def serve():
            service.effective_resistances(keys["grid"], pairs(grid, 32), eta=0.5)
            service.effective_resistances(keys["grid"], pairs(grid, 4))
            service.effective_resistances(keys["small"], pairs(small, 4))
            service.solve(keys["small"], rng.normal(size=small.n))

        serve()  # warm: sketch, grounded solvers, dense oracle, preprocessing

        counts = {"sort": 0, "floyd": 0, "outer": 0, "sketch_build": 0}
        sort, floyd, outer = WeightedGraph._sorted_edge_arrays, jl._floyd_distinct_rows, np.outer
        sketch_init = SketchedResistanceOracle.__init__

        def counting_sort(self):
            counts["sort"] += self is grid or self is small
            return sort(self)

        def counting_floyd(*args):
            counts["floyd"] += 1
            return floyd(*args)

        def counting_outer(*args, **kwargs):
            counts["outer"] += sys._getframe(1).f_globals.get("__name__") == sparse_backend.__name__
            return outer(*args, **kwargs)

        def counting_sketch(self, *args, **kwargs):
            counts["sketch_build"] += 1
            return sketch_init(self, *args, **kwargs)

        monkeypatch.setattr(WeightedGraph, "_sorted_edge_arrays", counting_sort)
        monkeypatch.setattr(jl, "_floyd_distinct_rows", counting_floyd)
        monkeypatch.setattr(np, "outer", counting_outer)
        monkeypatch.setattr(SketchedResistanceOracle, "__init__", counting_sketch)

        before = service.metrics_snapshot()["cache"]["repairs"]
        # edges and chords off vertex 0 (the grounded one), as most mutations are
        edge = next(e[:2] for e in edge_list(small) if e[0] > 0)
        chord = next((1, v) for v in range(2, small.n) if not small.has_edge(1, v))
        for graph, (a, b), chord in ((grid, (1, 2), (1, 203)), (small, edge, chord)):
            weight = graph.weight(a, b)
            graph.add_edge(*chord, 1.5)  # add
            serve()
            graph.add_edge(a, b, weight + 0.75)  # reweight up
            serve()
            graph.add_edge(a, b, 0.5 * weight)  # reweight down
            serve()
            graph.remove_edge(*chord)  # remove
            serve()
        assert service.metrics_snapshot()["cache"]["repairs"] > before
    finally:
        service.close()
    assert counts == {"sort": 0, "floyd": 0, "outer": 0, "sketch_build": 0}
