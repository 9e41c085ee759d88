"""The per-graph mutation journal behind incremental artifact repair."""

import numpy as np
import pytest

from reference_generators import graph_from_edges
from repro.graphs.graph import JOURNAL_LIMIT, MutationRecord, WeightedGraph


def test_add_edge_records_pure_insertion():
    g = WeightedGraph(4)
    v0 = g.version
    g.add_edge(2, 1, 1.5)
    delta = g.delta_since(v0)
    assert delta == [
        MutationRecord(version=v0 + 1, op="add", u=1, v=2, weight=1.5, prev_weight=None)
    ]
    assert delta[0].weight_delta == 1.5


def test_overwrite_records_update_with_previous_weight():
    g = graph_from_edges(4, [(0, 1, 2.0)])
    v0 = g.version
    g.add_edge(0, 1, 5.0)
    (record,) = g.delta_since(v0)
    assert record.op == "update"
    assert record.prev_weight == 2.0
    assert record.weight == 5.0
    assert record.weight_delta == 3.0


def test_remove_edge_records_removal():
    g = graph_from_edges(4, [(0, 1, 2.0)])
    v0 = g.version
    g.remove_edge(1, 0)
    (record,) = g.delta_since(v0)
    assert record.op == "remove"
    assert record.weight is None
    assert record.prev_weight == 2.0
    assert record.weight_delta == -2.0


def test_delta_since_current_version_is_empty():
    g = graph_from_edges(3, [(0, 1, 1.0)])
    assert g.delta_since(g.version) == []


def test_delta_since_future_version_is_unavailable():
    g = WeightedGraph(3)
    assert g.delta_since(g.version + 1) is None


def test_delta_spans_multiple_mutations_in_order():
    g = WeightedGraph(5)
    v0 = g.version
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(0, 1, 3.0)
    g.remove_edge(1, 2)
    delta = g.delta_since(v0)
    assert [r.op for r in delta] == ["add", "add", "update", "remove"]
    assert [r.version for r in delta] == [v0 + 1, v0 + 2, v0 + 3, v0 + 4]
    # a delta from a mid-point only contains the tail
    assert [r.op for r in g.delta_since(v0 + 2)] == ["update", "remove"]


def test_bulk_add_edges_shares_one_version():
    g = WeightedGraph(6)
    v0 = g.version
    g.add_edges([0, 1, 2], [3, 4, 5], [1.0, 2.0, 3.0])
    delta = g.delta_since(v0)
    assert g.version == v0 + 1
    assert len(delta) == 3
    assert all(r.version == g.version for r in delta)
    assert all(r.op == "add" for r in delta)


def test_bulk_add_edges_duplicate_pair_last_wins_in_journal():
    g = WeightedGraph(4)
    v0 = g.version
    g.add_edges([0, 0], [1, 1], [1.0, 7.0])
    delta = g.delta_since(v0)
    assert [r.op for r in delta] == ["add", "update"]
    assert delta[-1].weight == 7.0
    assert g.weight(0, 1) == 7.0


def test_journal_window_overflow_reports_unavailable():
    g = graph_from_edges(2, [(0, 1, 1.0)])
    v0 = g.version
    for i in range(JOURNAL_LIMIT + 10):
        g.add_edge(0, 1, 1.0 + i)
    assert g.delta_since(v0) is None  # reaches past the retained window
    # but a recent version is still fully reconstructible
    recent = g.version - 5
    delta = g.delta_since(recent)
    assert len(delta) == 5
    assert all(r.op == "update" for r in delta)


def test_giant_bulk_mutation_drops_the_journal():
    n = 200
    g = graph_from_edges(n, [(0, 1, 1.0)])
    v0 = g.version
    rng = np.random.default_rng(0)
    u = rng.integers(0, n - 1, JOURNAL_LIMIT + 100)
    v = u + 1  # guaranteed distinct endpoints
    g.add_edges(u, v, 1.0)
    assert g.delta_since(v0) is None
    assert g.delta_since(g.version) == []
    # and journalling resumes afterwards
    v1 = g.version
    g.add_edge(0, 199, 2.0)
    assert len(g.delta_since(v1)) == 1


def test_mixed_traffic_at_exactly_the_window_boundary():
    """Complete-or-None at the 1024-record edge under mixed op traffic.

    A consumer that snapshotted ``version`` and then let exactly
    ``JOURNAL_LIMIT`` mixed records land must still get the full delta; one
    more record anywhere in the mix (bulk ``add_edges`` sharing a version,
    scalar ``remove_edge``) must flip the answer to ``None`` -- never a
    truncated list missing the overflowed record.
    """
    n = JOURNAL_LIMIT + 50
    g = graph_from_edges(n, [(0, 1, 1.0), (1, 2, 1.0)])
    v0 = g.version
    # JOURNAL_LIMIT records exactly: one removal, one bulk batch of 7
    # (one shared version, 7 records), then scalar adds for the rest
    g.remove_edge(0, 1)
    g.add_edges(range(2, 9), range(3, 10), [1.0] * 7)
    for i in range(JOURNAL_LIMIT - 8):
        g.add_edge(10 + i, 11 + i, 1.0)
    delta = g.delta_since(v0)
    assert delta is not None and len(delta) == JOURNAL_LIMIT
    assert delta[0].op == "remove"
    # the 1025th record evicts the removal: the same request now rebuilds
    g.add_edge(0, 1, 2.0)
    assert g.delta_since(v0) is None
    # while a request from just past the eviction point stays complete
    tail = g.delta_since(v0 + 1)
    assert tail is not None and len(tail) == JOURNAL_LIMIT


def test_overflow_is_complete_or_none_under_concurrent_mutation():
    """The serving tier reads deltas on its flush thread while user threads
    mutate: an overflowing journal must never hand the reader a truncated
    delta (or blow up iterating a deque that mutated underneath it)."""
    import threading

    g = graph_from_edges(64, [(0, 1, 1.0)])
    stop = threading.Event()
    problems = []

    def mutate():
        i = 0
        while not stop.is_set():
            g.add_edge(0, 1, 1.0 + (i % 97))
            if i % 5 == 0:
                g.remove_edge(0, 1)
                g.add_edge(0, 1, 1.0)
            i += 1

    def read():
        while not stop.is_set():
            v = g.version
            delta = g.delta_since(v)
            if delta is None:
                continue  # overflowed past v: the honest rebuild answer
            versions = [r.version for r in delta]
            if any(x < v + 1 for x in versions):
                problems.append(("stale record", v, versions[:3]))
            if versions != sorted(versions):
                problems.append(("out of order", v, versions[:3]))

    threads = [threading.Thread(target=mutate), threading.Thread(target=read)]
    for t in threads:
        t.start()
    stop_timer = threading.Timer(1.0, stop.set)
    stop_timer.start()
    for t in threads:
        t.join(timeout=30)
    stop_timer.cancel()
    stop.set()
    assert not problems, problems[:5]


def test_copy_carries_the_journal():
    g = WeightedGraph(4)
    v0 = g.version
    g.add_edge(0, 1, 1.0)
    h = g.copy()
    assert h.delta_since(v0) == g.delta_since(v0)
    h.add_edge(2, 3, 1.0)
    assert len(h.delta_since(v0)) == 2
    assert len(g.delta_since(v0)) == 1  # the copy's journal is private


def test_failed_mutations_do_not_journal():
    g = graph_from_edges(4, [(0, 1, 1.0)])
    v0 = g.version
    with pytest.raises(ValueError):
        g.add_edge(0, 0, 1.0)
    with pytest.raises(ValueError):
        g.add_edge(0, 2, -1.0)
    with pytest.raises(KeyError):
        g.remove_edge(2, 3)
    assert g.delta_since(v0) == []
    assert g.version == v0
