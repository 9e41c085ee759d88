"""Chaos suite: a seeded mutate/query workload under a randomized FaultPlan.

The three invariants the resilience layer promises, asserted under fire:

* **no hang** -- every ticket is done within a bounded wait;
* **no silent wrong answer** -- every solve ticket that *resolved* meets its
  ``eps`` contract in the ``L_G``-norm against an exact factorisation (a
  repaired preprocessing and a rebuilt one are both valid eps-approximations,
  up to ~1e-7 apart at ``eps = 1e-6``, so comparing them to each other would
  test nothing the contract promises), and every resistance ticket matches a
  fault-free recompute (fresh service, rebuilt artifacts) to 1e-8;
* **no unfailed ticket** -- a ticket either resolves or carries an error;
  failures are loud (typed exceptions) and ledgered (``failures_total``).

Everything is driven by one seed, so a failing run replays exactly.  The
suite is marked ``chaos``: CI runs it as its own job step, and the fast
signal (``-m "not slow and not chaos"``) skips it.
"""

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.laplacian import laplacian_norm
from repro.linalg.sparse_backend import GroundedLaplacianSolver
from repro.serve import FaultPlan, LaplacianService, ResiliencePolicy, resistance_batch_query, solve_query

pytestmark = pytest.mark.chaos

#: bounded wait proving "no hang" -- generous next to the ~ms workload
TICKET_TIMEOUT_SECONDS = 60.0


def make_service(**kwargs):
    kwargs.setdefault("t_override", 2)
    kwargs.setdefault("auto_flush", False)
    return LaplacianService(**kwargs)


def _mutate(graph, rng):
    """Add one random edge not already present (keeps deltas repairable)."""
    for _ in range(64):
        u, v = rng.integers(0, graph.n, size=2)
        if u != v and not graph.has_edge(int(u), int(v)):
            graph.add_edge(int(u), int(v), float(rng.integers(1, 5)))
            return


def _fault_free_answers(graph, solve_rhs, pair_lists):
    """Exact solutions, and resistances from a fresh, unarmed service."""
    exact = GroundedLaplacianSolver(graph)
    solutions = [exact.solve(b - b.mean()) for b in solve_rhs]
    verifier = make_service()
    key = verifier.register(graph)
    resistances = [
        np.asarray(verifier.effective_resistances(key, pairs))
        for pairs in pair_lists
    ]
    return solutions, resistances


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_workload_contains_failures(seed):
    workload_rng = np.random.default_rng(1000 + seed)
    graph = generators.random_weighted_graph(40, average_degree=6, seed=seed)
    service = make_service(
        resilience=ResiliencePolicy(
            max_retries=2,
            backoff_base_seconds=0.001,
            backoff_max_seconds=0.01,
            breaker_threshold=2,
            breaker_ttl_seconds=0.05,
            seed=seed,
        ),
    )
    injector = service.arm_faults(FaultPlan.chaos(seed=seed))
    key = service.register(graph)

    total_failed = 0
    for round_index in range(4):
        solve_rhs = [workload_rng.normal(size=graph.n) for _ in range(6)]
        pair_lists = [
            [
                (int(a), int(b))
                for a, b in workload_rng.integers(0, graph.n, size=(5, 2))
                if a != b
            ]
            or [(0, 1)]
            for _ in range(2)
        ]
        tickets = [service.submit(solve_query(key, b)) for b in solve_rhs]
        tickets += [
            service.submit(resistance_batch_query(key, pairs))
            for pairs in pair_lists
        ]
        service.flush()

        # no hang, no unfailed ticket: every ticket is done, and carries
        # either a value or a raised error
        outcomes = []
        for ticket in tickets:
            assert ticket.done(), f"round {round_index}: ticket left unresolved"
            try:
                outcomes.append(ticket.result(timeout=TICKET_TIMEOUT_SECONDS))
            except TimeoutError:
                pytest.fail(f"round {round_index}: ticket hung")
            except Exception:
                outcomes.append(None)
                total_failed += 1

        # no silent wrong answer: surviving solves meet eps in the L-norm,
        # surviving resistances match a fault-free rebuild
        expected_solutions, expected_resistances = _fault_free_answers(
            graph, solve_rhs, pair_lists
        )
        L = graph.laplacian_csr()
        for outcome, exact in zip(outcomes[: len(solve_rhs)], expected_solutions):
            if outcome is not None:
                report = outcome.value
                error = laplacian_norm(L, report.solution - exact)
                assert error <= report.eps * laplacian_norm(L, exact)
        for outcome, want in zip(outcomes[len(solve_rhs):], expected_resistances):
            if outcome is not None:
                np.testing.assert_allclose(
                    np.asarray(outcome.value), want, atol=1e-8, rtol=1e-8
                )

        # mutate between rounds so staleness + repair-crash rules exercise
        _mutate(graph, workload_rng)

    snapshot = service.metrics_snapshot()
    assert snapshot["failures_total"] == total_failed
    # the plan actually fired (otherwise this test proves nothing)
    assert injector.fired_total > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_with_latency_and_deadline(seed):
    """Latency chaos under a deadline: late answers resolve, misses count."""
    workload_rng = np.random.default_rng(2000 + seed)
    graph = generators.random_weighted_graph(30, average_degree=5, seed=seed)
    service = make_service(
        resilience=ResiliencePolicy(
            deadline_seconds=0.02,
            backoff_base_seconds=0.001,
            breaker_ttl_seconds=0.05,
            seed=seed,
        ),
    )
    service.arm_faults(
        FaultPlan.chaos(seed=seed, delay_seconds=0.01)
    )
    key = service.register(graph)
    tickets = [
        service.submit(solve_query(key, workload_rng.normal(size=graph.n)))
        for _ in range(8)
    ]
    service.flush()
    for ticket in tickets:
        assert ticket.done()
        try:
            result = ticket.result(timeout=TICKET_TIMEOUT_SECONDS)
        except Exception:
            continue
        assert np.all(np.isfinite(result.value.solution))
    # the injected per-query delays exceed the deadline: misses were counted
    assert service.metrics_snapshot()["deadline_misses"] > 0
