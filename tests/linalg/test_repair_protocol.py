"""The artifact repair protocol: one ``apply_delta`` on every repairable class.

The serving tier repairs a stale cached artifact by handing it the mutation
delta and nothing class-specific (``QueryPlanner._try_lazy_repair``).  This
suite pins that contract at the artifact level, with one uniform call for
all four classes: an accepted delta leaves the artifact agreeing with a
from-scratch build to 1e-8, and every refusal is a plain ``False`` -- never
an exception, never a class-specific pre-check on the caller's side.  The
per-record primitives underneath (``apply_update`` / ``append_edge`` /
``repair_edge`` / ``apply_insertion``) are covered by
``tests/linalg/test_low_rank_repair.py``.
"""

import numpy as np
import pytest

from reference_generators import edge_list, path_graph
from repro.graphs import generators
from repro.linalg.resistance import SketchedResistanceOracle
from repro.linalg.sparse_backend import (
    GroundedLaplacianSolver,
    RepairableGroundedSolver,
    ResistanceOracle,
)
from repro.solvers.laplacian import BCCLaplacianSolver

TOL = 1e-8


def build_grounded(graph):
    return RepairableGroundedSolver(graph)


def build_dense(graph):
    return ResistanceOracle(graph)


def build_sketch(graph, **kwargs):
    # n = 40: the sketch dimension reaches m, so the identity sketch is used
    # and repaired answers are comparable to exact ones at 1e-8
    return SketchedResistanceOracle(graph, eta=0.5, seed=0, **kwargs)


def build_preprocessing(graph):
    return BCCLaplacianSolver.prepare(graph, seed=0, t_override=2)


BUILDERS = {
    "grounded": build_grounded,
    "resistance_oracle": build_dense,
    "sketched_resistance": build_sketch,
    "preprocessing": build_preprocessing,
}


def base_graph():
    return generators.random_weighted_graph(40, average_degree=6, seed=21)


def apply_delta(artifact, graph, version, solver=None):
    """The one call shape the planner uses, for any artifact class.

    ``solver`` stands in for the graph's cached grounded solver; like the
    planner's, it absorbs the delta first.  Returns ``(verdict, steps)``.
    """
    delta = tuple(graph.delta_since(version))
    if solver is None:
        solver = RepairableGroundedSolver(graph)  # "rebuilt": empty update log
    else:
        solver.apply_delta(
            delta, graph=graph, grounded=lambda: solver, on_step=lambda step: None
        )
    steps = []
    verdict = artifact.apply_delta(
        delta, graph=graph, grounded=lambda: solver, on_step=steps.append
    )
    return verdict, steps


def mixed_mutation(graph, rng, ops):
    """Seeded add / reweight-up / remove on ``graph`` (journalled)."""
    for op in ops:
        if op == "add":
            while True:
                u, v = (int(x) for x in rng.integers(0, graph.n, 2))
                if u != v and not graph.has_edge(u, v):
                    break
            graph.add_edge(u, v, float(rng.uniform(0.5, 2.0)))
            continue
        edges = edge_list(graph)
        u, v, w = edges[int(rng.integers(0, len(edges)))]
        if op == "update":
            graph.add_edge(u, v, w + float(rng.uniform(0.1, 1.0)))
        else:
            graph.remove_edge(u, v)
            if not graph.is_connected():  # keep it a non-bridge removal
                graph.add_edge(u, v, w)


def assert_matches_fresh(kind, artifact, graph):
    rng = np.random.default_rng(5)
    if kind == "preprocessing":
        b = rng.normal(size=graph.n)
        b -= b.mean()
        solver = BCCLaplacianSolver(graph, preprocessing=artifact)
        got = solver.solve(b, eps=1e-12).solution
        want = GroundedLaplacianSolver(graph).solve(b)
        np.testing.assert_allclose(got - got.mean(), want - want.mean(), atol=TOL)
        return
    pu = rng.integers(0, graph.n, 64)
    pv = rng.integers(0, graph.n, 64)
    want = GroundedLaplacianSolver(graph).pair_resistances(pu, pv)
    np.testing.assert_allclose(artifact.pair_resistances(pu, pv), want, atol=TOL)


@pytest.mark.parametrize("kind", list(BUILDERS))
def test_accepted_delta_matches_from_scratch_build(kind):
    graph = base_graph()
    artifact = BUILDERS[kind](graph)
    solver = RepairableGroundedSolver(graph)
    version = graph.version
    # preprocessing absorbs weight increases only; everything else takes the
    # full mix, removal included
    ops = ("add", "update", "add") if kind == "preprocessing" else (
        "add", "update", "remove", "add"
    )
    mixed_mutation(graph, np.random.default_rng(33), ops)
    delta = graph.delta_since(version)
    assert [record.op for record in delta] == list(ops)
    verdict, steps = apply_delta(artifact, graph, version, solver)
    assert verdict is True
    assert steps == list(range(len(delta)))  # the fault seam saw every record
    assert_matches_fresh(kind, artifact, graph)


def exhausted_grounded(graph):
    return RepairableGroundedSolver(graph, max_updates=1)


def exhausted_dense(graph):
    oracle = ResistanceOracle(graph)
    oracle.max_updates = 1
    return oracle


def exhausted_preprocessing(graph):
    artifact = build_preprocessing(graph)
    artifact.grounded.max_updates = 1
    return artifact


@pytest.mark.parametrize(
    "build", [exhausted_grounded, exhausted_dense, exhausted_preprocessing]
)
def test_budget_exhausted_up_front_refuses_before_any_work(build):
    graph = base_graph()
    artifact = build(graph)
    version = graph.version
    mixed_mutation(graph, np.random.default_rng(3), ("add", "add"))
    verdict, steps = apply_delta(artifact, graph, version)
    assert verdict is False
    assert steps == []  # refused on the length of the delta alone


@pytest.mark.parametrize("build", [build_grounded, build_dense, build_sketch])
def test_cross_component_insertion_refuses(build):
    graph = generators.grid_graph(3, 3)
    graph.remove_edge(0, 1)
    graph.remove_edge(0, 3)  # vertex 0 is now its own component
    artifact = build(graph)
    solver = RepairableGroundedSolver(graph)
    version = graph.version
    graph.add_edge(0, 4, 1.0)
    verdict, _ = apply_delta(artifact, graph, version, solver)
    assert verdict is False


def test_bridge_removal_refuses_on_dense_oracle_and_regrounds_the_solver():
    graph = path_graph(6)
    dense = build_dense(graph)
    grounded = build_grounded(graph)
    version = graph.version
    graph.remove_edge(2, 3)
    assert apply_delta(dense, graph, version)[0] is False
    assert apply_delta(grounded, graph, version)[0] is True
    fresh = GroundedLaplacianSolver(graph)
    pu, pv = np.array([0, 0, 3, 1]), np.array([2, 5, 5, 4])
    np.testing.assert_allclose(
        grounded.pair_resistances(pu, pv), fresh.pair_resistances(pu, pv), atol=TOL
    )


def test_sketch_refuses_when_grounded_log_is_shorter_than_delta():
    graph = base_graph()
    sketch = build_sketch(graph)
    version = graph.version
    mixed_mutation(graph, np.random.default_rng(3), ("add",))
    verdict, steps = apply_delta(sketch, graph, version)  # solver was "rebuilt"
    assert verdict is False
    assert steps == []


def test_sketch_refuses_when_eta_effective_exceeds_its_keyed_eta():
    graph = base_graph()
    sketch = build_sketch(graph, k_override=8)  # 8 rows cannot honour eta past m
    assert not sketch.exact
    solver = RepairableGroundedSolver(graph)
    version = graph.version
    mixed_mutation(graph, np.random.default_rng(3), ("add",))
    verdict, steps = apply_delta(sketch, graph, version, solver)
    assert steps == [0]  # the append itself went through ...
    assert sketch.eta_effective > sketch.eta
    assert verdict is False  # ... and the widened bound is what refuses


@pytest.mark.parametrize(
    "cls,build",
    [
        (ResistanceOracle, build_dense),
        (SketchedResistanceOracle, lambda graph: build_sketch(graph, k_override=8)),
    ],
)
def test_read_only_shared_memory_view_refuses(cls, build):
    graph = base_graph()
    arrays, meta = build(graph).share_arrays()
    views = {name: array.copy() for name, array in arrays.items()}
    for view in views.values():
        view.flags.writeable = False
    attached = cls.from_shared(views, meta)
    solver = RepairableGroundedSolver(graph)
    version = graph.version
    mixed_mutation(graph, np.random.default_rng(3), ("update",))
    verdict, _ = apply_delta(attached, graph, version, solver)
    assert verdict is False


def test_weight_decrease_refuses_on_preprocessing():
    graph = base_graph()
    artifact = build_preprocessing(graph)
    version = graph.version
    u, v, w = edge_list(graph)[0]
    graph.add_edge(u, v, 0.5 * w)
    verdict, _ = apply_delta(artifact, graph, version)
    assert verdict is False
