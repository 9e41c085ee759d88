"""Shutdown races: close() vs inflight flushes, late tickets, interrupts."""

import threading
import time

import numpy as np
import pytest

from repro.graphs import generators
from repro.serve import (
    FaultPlan,
    FaultRule,
    LaplacianService,
    solve_query,
)


@pytest.fixture
def graph():
    return generators.random_weighted_graph(40, average_degree=6, seed=17)


def make_service(**kwargs):
    kwargs.setdefault("t_override", 2)
    kwargs.setdefault("auto_flush", False)
    return LaplacianService(**kwargs)


class TestCloseDuringFlush:
    def test_close_concurrent_with_inflight_flush(self, graph, rng):
        """close() while another thread's flush is executing must neither hang
        nor strand a ticket: execution is serialised behind the execute lock,
        and close()'s own flush drains whatever is still pending."""
        service = make_service()
        # slow every batch down so close() reliably overlaps execution
        service.arm_faults(FaultPlan((FaultRule(op="execute", fail=False, delay_seconds=0.05),)))
        key = service.register(graph)
        tickets = [
            service.submit(solve_query(key, rng.normal(size=graph.n)))
            for _ in range(6)
        ]
        flusher = threading.Thread(target=service.flush)
        flusher.start()
        time.sleep(0.01)  # land close() inside the inflight execution window
        service.close()
        flusher.join(timeout=30.0)
        assert not flusher.is_alive()
        for ticket in tickets:
            assert ticket.done()
            assert np.all(np.isfinite(ticket.result(timeout=5.0).value.solution))

    def test_submit_after_close_rejected(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(solve_query(key, rng.normal(size=graph.n)))

    def test_close_idempotent(self, graph):
        service = make_service()
        service.register(graph)
        service.close()
        service.close()  # second close: no hang, no error


class TestLateTickets:
    def test_result_timeout_then_late_resolution(self, graph, rng):
        """A ticket whose result() times out is not poisoned: once the flush
        lands, the same ticket resolves normally."""
        service = make_service()
        key = service.register(graph)
        ticket = service.submit(solve_query(key, rng.normal(size=graph.n)))
        with pytest.raises(TimeoutError, match=str(ticket.query.query_id)):
            ticket.result(timeout=0.01)  # nothing has flushed yet
        assert not ticket.done()
        service.flush()
        report = ticket.result(timeout=5.0).value
        assert np.all(np.isfinite(report.solution))

    def test_waiter_blocked_in_result_is_released_by_flush(self, graph, rng):
        service = make_service()
        key = service.register(graph)
        ticket = service.submit(solve_query(key, rng.normal(size=graph.n)))
        seen = {}

        def wait():
            seen["value"] = ticket.result(timeout=30.0).value

        waiter = threading.Thread(target=wait)
        waiter.start()
        time.sleep(0.02)
        service.flush()
        waiter.join(timeout=30.0)
        assert not waiter.is_alive()
        assert np.all(np.isfinite(seen["value"].solution))


class TestInterruptContainment:
    def test_keyboard_interrupt_unblocks_every_waiter(self, graph, rng, monkeypatch):
        """KeyboardInterrupt mid-flush must propagate to the flushing caller
        AND fail every undelivered ticket, so threads blocked in result()
        wake instead of waiting forever on work that will never finish."""
        service = make_service()
        key = service.register(graph)
        tickets = [
            service.submit(solve_query(key, rng.normal(size=graph.n)))
            for _ in range(4)
        ]

        def interrupted(batch):
            raise KeyboardInterrupt()

        monkeypatch.setattr(service.planner, "execute_batch", interrupted)
        with pytest.raises(KeyboardInterrupt):
            service.flush()
        for ticket in tickets:
            assert ticket.done()
            with pytest.raises(KeyboardInterrupt):
                ticket.result(timeout=1.0)

    def test_keyboard_interrupt_skips_bisection(self, graph, rng, monkeypatch):
        # bisection catches Exception only: an interrupt must not trigger
        # O(log n) pointless re-executions on its way out
        service = make_service()
        key = service.register(graph)
        for _ in range(8):
            service.submit(solve_query(key, rng.normal(size=graph.n)))
        calls = []

        def interrupted(batch):
            calls.append(batch.size)
            raise KeyboardInterrupt()

        monkeypatch.setattr(service.planner, "execute_batch", interrupted)
        with pytest.raises(KeyboardInterrupt):
            service.flush()
        assert calls == [8]  # one attempt, no splitting
