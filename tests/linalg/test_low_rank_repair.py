"""Low-rank repair primitives: repaired state == from-scratch rebuild (1e-8).

Covers the three repairable artifact families of the serving layer --
:class:`RepairableGroundedSolver` (Sherman-Morrison on the grounded ``splu``
factorisation), :class:`ResistanceOracle.apply_update` (rank-1 on the stored
grounded inverse) and :class:`SketchedResistanceOracle.append_edge` (embedding
row-append) -- plus the refusal conditions that force a rebuild: bridge
removal, cross-component insertion, exhausted update budgets.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference_generators import barbell_graph, edge_list, path_graph, watts_strogatz
from reference_repair import SequentialRepairableSolver, kane_nelson_built_columns, updates_applied
from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.linalg.jl import resistance_sketch_dimension, resistance_sketch_eta
from repro.linalg.resistance import SketchedResistanceOracle
from repro.linalg.sparse_backend import (
    GroundedLaplacianSolver,
    RepairableGroundedSolver,
    ResistanceOracle,
    default_update_budget,
)

TOL = 1e-8


def workloads():
    return [
        ("random", generators.random_weighted_graph(240, average_degree=6, seed=3)),
        ("barabasi-albert", generators.barabasi_albert(240, attach=3, seed=11)),
        ("watts-strogatz", watts_strogatz(240, k=6, beta=0.2, seed=13)),
        ("grid", generators.grid_graph(15, 16)),
    ]


def mutate(graph, rng, ops=("add", "update", "remove")):
    """Apply one random repairable mutation; return (u, v, weight_delta)."""
    op = rng.choice(ops)
    if op == "add":
        while True:
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u != v and not graph.has_edge(u, v):
                break
        w = float(rng.uniform(0.5, 2.0))
        graph.add_edge(u, v, w)
        return u, v, w
    edges = edge_list(graph)
    u, v, w = edges[int(rng.integers(0, len(edges)))]
    if op == "update":
        new_w = w + float(rng.uniform(0.1, 1.0))
        graph.add_edge(u, v, new_w)
        return u, v, new_w - w
    graph.remove_edge(u, v)
    return u, v, -w


@pytest.mark.parametrize("name,graph", workloads())
def test_repaired_solver_matches_rebuild(name, graph):
    rng = np.random.default_rng(17)
    solver = RepairableGroundedSolver(graph)
    applied = 0
    for _ in range(8):
        u, v, delta = mutate(graph, rng)
        if solver.apply_update(u, v, delta):
            applied += 1
        else:
            # a refused mutation (e.g. a bridge removal on the grid) must
            # leave the solver untouched: undo it on the graph and move on
            if delta < 0 and not graph.has_edge(u, v):
                graph.add_edge(u, v, -delta)
            elif delta > 0 and graph.has_edge(u, v):
                prev = graph.weight(u, v) - delta
                if prev > 0:
                    graph.add_edge(u, v, prev)
                else:
                    graph.remove_edge(u, v)
    assert applied >= 5  # the workloads are dense enough that most ops repair
    fresh = GroundedLaplacianSolver(graph)

    b = rng.normal(size=graph.n)
    b -= b.mean()
    np.testing.assert_allclose(solver.solve(b), fresh.solve(b), atol=TOL)

    B = rng.normal(size=(graph.n, 4))
    B -= B.mean(axis=0)
    np.testing.assert_allclose(solver.solve_many(B), fresh.solve_many(B), atol=TOL)

    pu = rng.integers(0, graph.n, 64)
    pv = rng.integers(0, graph.n, 64)
    np.testing.assert_allclose(
        solver.pair_resistances(pu, pv), fresh.pair_resistances(pu, pv), atol=TOL
    )


def test_bridge_removal_is_refused():
    graph = path_graph(20)
    solver = RepairableGroundedSolver(graph)
    # every path edge is a bridge: the Sherman-Morrison denominator vanishes
    assert not solver.apply_update(5, 6, -1.0)
    assert updates_applied(solver) == 0
    # the refusal left the solver serving the unmutated graph exactly
    fresh = GroundedLaplacianSolver(graph)
    b = np.random.default_rng(0).normal(size=graph.n)
    b -= b.mean()
    np.testing.assert_allclose(solver.solve(b), fresh.solve(b), atol=TOL)


def test_near_bridge_removal_is_refused_by_conditioning_guard():
    # two cliques joined by one heavy edge plus one feather-weight edge: the
    # heavy edge carries essentially all of R(u, v), so removing it drives
    # the denominator 1 - w R(u, v) to ~0 even though it is not a cut edge
    graph = barbell_graph(6, 1)
    u, v = 5, 6
    feather = 1e-12
    graph.add_edge(4, 7, feather)
    solver = RepairableGroundedSolver(graph)
    assert not solver.apply_update(u, v, -graph.weight(u, v))


def test_cross_component_insertion_is_refused():
    graph = WeightedGraph(6, edges=[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
    solver = RepairableGroundedSolver(graph)
    assert not solver.apply_update(2, 3, 1.0)  # would merge the components
    assert solver.apply_update(0, 2, 1.0)  # within-component add is fine


def test_update_budget_forces_refusal():
    graph = generators.random_weighted_graph(64, average_degree=6, seed=1)
    solver = RepairableGroundedSolver(graph, max_updates=3)
    rng = np.random.default_rng(2)
    accepted = 0
    for _ in range(5):
        u, v, delta = mutate(graph, rng, ops=("add",))
        if solver.apply_update(u, v, delta):
            accepted += 1
    assert accepted == 3
    assert solver.update_budget_remaining == 0
    assert default_update_budget(10_000) == 100  # the O(sqrt(n)) default


def test_repaired_solver_nbytes_accounts_for_updates():
    graph = generators.grid_graph(8, 8)
    solver = RepairableGroundedSolver(graph)
    base = solver.nbytes()
    assert solver.apply_update(0, 9, 1.0)
    assert solver.nbytes() > base


@pytest.mark.parametrize("name,graph", workloads())
def test_dense_oracle_repair_matches_rebuild(name, graph):
    rng = np.random.default_rng(23)
    oracle = ResistanceOracle(graph)
    applied = 0
    for _ in range(6):
        u, v, delta = mutate(graph, rng, ops=("add", "update"))
        assert oracle.apply_update(u, v, delta)
        applied += 1
    assert oracle._repairs == applied
    fresh = ResistanceOracle(graph)
    pu = rng.integers(0, graph.n, 64)
    pv = rng.integers(0, graph.n, 64)
    np.testing.assert_allclose(
        oracle.pair_resistances(pu, pv), fresh.pair_resistances(pu, pv), atol=TOL
    )


def test_dense_oracle_refusals():
    graph = WeightedGraph(4, edges=[(0, 1, 1.0), (2, 3, 1.0)])
    oracle = ResistanceOracle(graph)
    assert not oracle.apply_update(1, 2, 1.0)  # cross-component
    path = path_graph(6)
    path_oracle = ResistanceOracle(path)
    assert not path_oracle.apply_update(2, 3, -1.0)  # bridge removal
    budget = ResistanceOracle(generators.grid_graph(4, 4))
    budget.max_updates = 1
    assert budget.apply_update(0, 5, 1.0)
    assert not budget.apply_update(1, 6, 1.0)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: generators.random_weighted_graph(400, average_degree=8, seed=5),
        lambda: generators.barabasi_albert(400, attach=4, seed=7),
        lambda: watts_strogatz(400, k=8, beta=0.2, seed=9),
        lambda: generators.grid_graph(20, 20),
    ],
)
def test_sketched_append_respects_eta_on_all_pairs(factory):
    graph = factory()
    eta = 0.5
    grounded = RepairableGroundedSolver(graph)
    oracle = SketchedResistanceOracle(graph, eta=eta, seed=0, grounded=grounded)
    assert not oracle.exact  # the workloads are big enough to actually sketch
    rng = np.random.default_rng(31)
    for _ in range(4):
        u, v, w = mutate(graph, rng, ops=("add",))
        assert grounded.apply_update(u, v, w)
        assert oracle.append_edge(u, v, w, grounded)
    assert oracle.appended == 4
    exact = GroundedLaplacianSolver(graph)
    pu = rng.integers(0, graph.n, 512)
    pv = rng.integers(0, graph.n, 512)
    truth = exact.pair_resistances(pu, pv)
    approx = oracle.pair_resistances(pu, pv)
    positive = np.isfinite(truth) & (truth > 0)
    rel = np.abs(approx[positive] - truth[positive]) / truth[positive]
    assert rel.max() <= oracle.eta_effective
    np.testing.assert_array_equal(approx[pu == pv], 0.0)


def test_sketched_append_exact_mode_stays_exact():
    graph = path_graph(12)  # k >= m: identity sketch
    grounded = RepairableGroundedSolver(graph)
    oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0, grounded=grounded)
    assert oracle.exact
    k_before = oracle.k
    graph.add_edge(0, 7, 1.3)
    assert grounded.apply_update(0, 7, 1.3)
    assert oracle.append_edge(0, 7, 1.3, grounded)
    assert oracle.exact and oracle.k == k_before + 1
    assert oracle.eta_effective == 0.0
    fresh = GroundedLaplacianSolver(graph)
    pu = np.arange(graph.n - 1)
    pv = np.arange(1, graph.n)
    np.testing.assert_allclose(
        oracle.pair_resistances(pu, pv), fresh.pair_resistances(pu, pv), atol=TOL
    )


def test_sketched_append_refuses_cross_component():
    graph = WeightedGraph(8, edges=[(0, 1, 1.0), (1, 2, 1.0), (4, 5, 1.0), (5, 6, 1.0)])
    grounded = RepairableGroundedSolver(graph)
    oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0, grounded=grounded)
    assert not oracle.append_edge(2, 4, 1.0, grounded)
    assert oracle.appended == 0


class TestSplitRegrounding:
    """Bridge removals with ``split_side``: re-ground instead of refusing."""

    @pytest.mark.parametrize("side_of", ["u", "v"])
    def test_split_removal_matches_fresh_factorisation(self, side_of):
        graph = path_graph(30)
        solver = RepairableGroundedSolver(graph)
        graph.remove_edge(12, 13)
        side = set(range(13)) if side_of == "u" else set(range(13, 30))
        assert solver.apply_update(12, 13, -1.0, split_side=side)
        assert updates_applied(solver) == 2  # regulariser + removal
        fresh = GroundedLaplacianSolver(graph)
        rng = np.random.default_rng(41)
        pu = rng.integers(0, graph.n, 128)
        pv = rng.integers(0, graph.n, 128)
        truth = fresh.pair_resistances(pu, pv)
        assert np.any(np.isinf(truth))  # the probe really crosses the split
        np.testing.assert_allclose(
            solver.pair_resistances(pu, pv), truth, atol=TOL
        )

    def test_split_removal_composes_with_later_updates(self):
        graph = path_graph(24)
        solver = RepairableGroundedSolver(graph)
        graph.remove_edge(10, 11)
        assert solver.apply_update(10, 11, -1.0, split_side=set(range(11, 24)))
        # keep mutating on both sides of the split: a within-component add
        # and a reweight, absorbed as ordinary rank-1 updates
        graph.add_edge(2, 8, 1.5)
        assert solver.apply_update(2, 8, 1.5)
        graph.add_edge(15, 16, 3.0)  # was 1.0
        assert solver.apply_update(15, 16, 2.0)
        fresh = GroundedLaplacianSolver(graph)
        pu = np.arange(graph.n - 1)
        pv = np.arange(1, graph.n)
        np.testing.assert_allclose(
            solver.pair_resistances(pu, pv), fresh.pair_resistances(pu, pv), atol=TOL
        )

    def test_split_needs_two_slots(self):
        graph = path_graph(12)
        solver = RepairableGroundedSolver(graph, max_updates=1)
        assert not solver.apply_update(5, 6, -1.0, split_side=set(range(6, 12)))
        assert updates_applied(solver) == 0

    def test_non_bridge_removal_ignores_split_side(self):
        graph = generators.grid_graph(6, 6)  # every edge sits on a cycle
        solver = RepairableGroundedSolver(graph)
        w = graph.weight(0, 1)
        graph.remove_edge(0, 1)
        # split_side offered but the rank-1 path succeeds: one slot, no
        # regulariser, and still exact
        assert solver.apply_update(0, 1, -w, split_side={0})
        assert updates_applied(solver) == 1
        fresh = GroundedLaplacianSolver(graph)
        rng = np.random.default_rng(43)
        pu = rng.integers(0, graph.n, 64)
        pv = rng.integers(0, graph.n, 64)
        np.testing.assert_allclose(
            solver.pair_resistances(pu, pv), fresh.pair_resistances(pu, pv), atol=TOL
        )


class TestSketchRepairEdge:
    """Reweights/removals repair the column in place; eta does not widen."""

    def test_reweight_and_removal_stay_within_eta(self):
        graph = generators.random_weighted_graph(400, average_degree=8, seed=5)
        grounded = RepairableGroundedSolver(graph)
        oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0, grounded=grounded)
        assert not oracle.exact
        eta_built = oracle.eta_effective

        u, v, w = edge_list(graph)[7]
        graph.add_edge(u, v, w + 1.3)
        assert grounded.apply_update(u, v, 1.3)
        assert oracle.repair_edge(u, v, w, w + 1.3, grounded)

        ru, rv, rw = edge_list(graph)[19]
        graph.remove_edge(ru, rv)
        assert grounded.apply_update(ru, rv, -rw)
        assert oracle.repair_edge(ru, rv, rw, 0.0, grounded)

        assert oracle.reweighted == 1 and oracle.removed == 1
        # the mixed contract: only insertions widen the bound
        assert oracle.eta_effective == eta_built

        exact = GroundedLaplacianSolver(graph)
        rng = np.random.default_rng(47)
        pu = rng.integers(0, graph.n, 512)
        pv = rng.integers(0, graph.n, 512)
        truth = exact.pair_resistances(pu, pv)
        approx = oracle.pair_resistances(pu, pv)
        positive = np.isfinite(truth) & (truth > 0)
        rel = np.abs(approx[positive] - truth[positive]) / truth[positive]
        assert rel.max() <= oracle.eta_effective

    def test_retired_column_refuses_further_repair(self):
        graph = generators.grid_graph(20, 20)
        grounded = RepairableGroundedSolver(graph)
        oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0, grounded=grounded)
        u, v, w = edge_list(graph)[3]
        graph.remove_edge(u, v)
        assert grounded.apply_update(u, v, -w)
        assert oracle.repair_edge(u, v, w, 0.0, grounded)
        # the column is retired: further repairs of the same edge must not
        # resurrect it through the repair path (the serving layer re-inserts
        # via append_edge with a fresh column instead)
        assert not oracle.repair_edge(u, v, w, 2.0 * w, grounded)
        assert oracle.removed == 1 and oracle.reweighted == 0

    def test_exact_mode_repair_matches_fresh(self):
        graph = generators.grid_graph(4, 4)  # small enough for identity sketch
        grounded = RepairableGroundedSolver(graph)
        oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0, grounded=grounded)
        assert oracle.exact
        u, v, w = edge_list(graph)[5]
        graph.add_edge(u, v, w + 0.7)
        assert grounded.apply_update(u, v, 0.7)
        assert oracle.repair_edge(u, v, w, w + 0.7, grounded)
        assert oracle.eta_effective == 0.0
        fresh = GroundedLaplacianSolver(graph)
        rng = np.random.default_rng(53)
        pu = rng.integers(0, graph.n, 64)
        pv = rng.integers(0, graph.n, 64)
        np.testing.assert_allclose(
            oracle.pair_resistances(pu, pv), fresh.pair_resistances(pu, pv), atol=TOL
        )


def test_eta_effective_widens_with_ambient_dimension():
    m = 5000
    eta = 0.25
    k = resistance_sketch_dimension(m, eta)
    # the inverse is consistent: at the built ambient dimension the bound is
    # no looser than eta, and it is monotone in the ambient dimension
    at_build = resistance_sketch_eta(k, m)
    assert at_build is not None and at_build <= eta
    widened = resistance_sketch_eta(k, 2 * m)
    assert widened is not None and widened >= at_build
    assert resistance_sketch_dimension(2 * m, widened) <= k
    # a hopeless k honours no bound at all
    assert resistance_sketch_eta(1, 10**9) is None


# -- the blocked Woodbury step against the frozen sequential loop -------------------


def random_connected_graph(n, rng):
    """A random spanning tree plus chords: bridges and cycles side by side."""
    graph = WeightedGraph(n)
    for v in range(1, n):
        graph.add_edge(int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0)))
    for _ in range(int(rng.integers(0, n))):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            graph.add_edge(u, v, float(rng.uniform(0.5, 2.0)))
    return graph


def side_after_removal(graph, u, v):
    """Component of ``v`` once ``{u, v}`` is removed (graph left unchanged)."""
    w = graph.weight(u, v)
    graph.remove_edge(u, v)
    side = next(c for c in graph.connected_components() if v in c)
    graph.add_edge(u, v, w)
    return side


def reduced_outputs(solver, rhs):
    return [solver._reduced_solve(r.copy()) for r in rhs]


def assert_blocked_matches(blocked, sequential, graph, rng):
    """1e-12 against the sequential loop, 1e-8 against a fresh factorisation."""
    k = blocked._keep_idx.size
    rhs = [rng.normal(size=k), rng.normal(size=(k, 3))]
    for got, want in zip(reduced_outputs(blocked, rhs), reduced_outputs(sequential, rhs)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    B = rng.normal(size=(graph.n, 3))
    for component in graph.connected_components():
        rows = sorted(component)
        B[rows] -= B[rows].mean(axis=0)
    fresh = GroundedLaplacianSolver(graph)
    want = fresh.solve_many(B)
    scale = np.abs(want).max()
    np.testing.assert_allclose(blocked.solve_many(B), want, rtol=0, atol=1e-8 * scale)
    np.testing.assert_allclose(blocked.solve(B[:, 0]), want[:, 0], rtol=0, atol=1e-8 * scale)
    got_log, want_log = blocked.update_log(), sequential.update_log()
    assert len(got_log) == len(want_log)
    for got, want in zip(got_log, want_log):
        assert got[:3] == want[:3] and got[4] == want[4]
        np.testing.assert_allclose(got[3], want[3], rtol=0, atol=1e-12 * np.abs(want[3]).max())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=28),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ops=st.lists(
        st.sampled_from(["add", "reweight", "remove", "split", "refused-split"]),
        min_size=1,
        max_size=14,
    ),
)
@example(n=6, seed=1, ops=["split"] * 5 + ["add"])  # the splits leave no edge
def test_blocked_corrections_match_sequential_reference(n, seed, ops):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(n, rng)
    blocked = RepairableGroundedSolver(graph, max_updates=16)
    sequential = SequentialRepairableSolver(graph, max_updates=16)

    def both(u, v, delta, split_side=None):
        accepted = blocked.apply_update(u, v, delta, split_side=split_side)
        assert sequential.apply_update(u, v, delta, split_side=split_side) == accepted
        return accepted

    for op in ops:
        if blocked.update_budget_remaining < 2:
            break
        labels = blocked.component_labels()
        edges = edge_list(graph)
        if not edges:
            continue
        u, v, w = edges[int(rng.integers(0, len(edges)))]
        if op == "add":
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u == v or graph.has_edge(u, v) or labels[u] != labels[v]:
                continue
            w = float(rng.uniform(0.5, 2.0))
            graph.add_edge(u, v, w)
            assert both(u, v, w)
        elif op == "reweight":
            new = w * float(rng.uniform(0.3, 3.0))
            graph.add_edge(u, v, new)
            assert both(u, v, new - w)
        elif op == "remove":
            if u in side_after_removal(graph, u, v):
                graph.remove_edge(u, v)
                assert both(u, v, -w)
        elif op == "split":
            side = side_after_removal(graph, u, v)
            if u in side:
                continue
            graph.remove_edge(u, v)
            assert not both(u, v, -w)  # the denominator guard sees the bridge
            assert both(u, v, -w, split_side=side)
        else:
            # a bridge of the grounded component offered with a wrong side:
            # the grounded endpoint alone.  The regulariser then pins the
            # wrong vertices, the second denominator check refuses, and the
            # rollback must leave every later solve bit-identical.
            side = side_after_removal(graph, u, v)
            if u in side or labels[u] != labels[0]:
                continue
            near = u if 0 not in side else v
            if near == 0:
                continue
            assert not both(u, v, -w)
            k = blocked._keep_idx.size
            rhs = [rng.normal(size=k), rng.normal(size=(k, 3))]
            before = reduced_outputs(blocked, rhs)
            assert not both(u, v, -w, split_side={near})
            for got, want in zip(reduced_outputs(blocked, rhs), before):
                assert np.array_equal(got, want)
        assert_blocked_matches(blocked, sequential, graph, rng)


@pytest.mark.parametrize("name,graph", workloads())
def test_dense_oracle_blas_update_matches_outer_product(name, graph):
    rng = np.random.default_rng(29)
    oracle = ResistanceOracle(graph)
    for _ in range(6):
        u, v, delta = mutate(graph, rng, ops=("add", "update"))
        S = oracle._S.copy()
        y = S[:, u] - S[:, v]
        expected = S - np.outer((delta / (1.0 + delta * (y[u] - y[v]))) * y, y)
        assert oracle.apply_update(u, v, delta)
        assert oracle._S.flags.c_contiguous
        np.testing.assert_allclose(
            oracle._S, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
        )


@pytest.mark.parametrize(
    "factory",
    [
        lambda: generators.random_weighted_graph(400, average_degree=8, seed=5),
        lambda: generators.grid_graph(20, 20),
    ],
)
def test_stored_sketch_columns_equal_replayed_draws(factory):
    graph = factory()
    oracle = SketchedResistanceOracle(graph, eta=0.5, seed=0)
    assert not oracle.exact
    expected = kane_nelson_built_columns(oracle.k, graph.m, oracle.seed_bits, range(graph.m))
    stored = np.column_stack([oracle._built_column(index) for index in range(graph.m)])
    np.testing.assert_array_equal(stored, expected)
