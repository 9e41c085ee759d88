"""The test traffic harness: deterministic traces, report invariants, answer comparison."""

import numpy as np
import pytest
from traffic import TrafficConfig, compare_answers, generate_trace, run_trace

from repro.graphs import generators
from repro.serve import LaplacianService

SIZES = [30, 24]


def make_graphs():
    """Fresh identical graph objects per service, so replays stay independent."""
    return [
        generators.grid_graph(5, 6),
        generators.random_weighted_graph(24, average_degree=4, seed=5),
    ]


def make_service():
    service = LaplacianService(t_override=2)
    keys = [service.register(g, name=f"g{i}") for i, g in enumerate(make_graphs())]
    return service, keys


class TestGenerateTrace:
    def test_same_config_produces_identical_trace(self):
        config = TrafficConfig(seed=11, queries=60, clients=3)
        first = generate_trace(SIZES, config)
        second = generate_trace(SIZES, config)
        assert first.events == second.events
        assert first.n_graphs == second.n_graphs == len(SIZES)

    def test_different_seed_produces_different_trace(self):
        first = generate_trace(SIZES, TrafficConfig(seed=1, queries=60))
        second = generate_trace(SIZES, TrafficConfig(seed=2, queries=60))
        assert first.events != second.events

    def test_events_are_well_formed(self):
        config = TrafficConfig(seed=3, queries=80, clients=4)
        trace = generate_trace(SIZES, config)
        kinds = {kind for kind, _ in config.mix}
        assert len(trace.events) == config.queries
        for event in trace.events:
            assert event.kind in kinds
            assert 0 <= event.graph < len(SIZES)
            assert event.client == event.index % config.clients
            payload = event.payload_dict()
            n = SIZES[event.graph]
            if event.kind == "resistance":
                assert 0 <= payload["u"] < n and 0 <= payload["v"] < n
                assert payload["u"] != payload["v"]
            elif event.kind == "resistance_batch":
                assert all(0 <= u < n and 0 <= v < n for u, v in payload["pairs"])
            elif event.kind == "mutate":
                assert payload["weight"] > 0

    def test_zipf_popularity_is_heavy_tailed(self):
        trace = generate_trace([40] * 6, TrafficConfig(seed=9, queries=300, zipf_alpha=1.4))
        counts = np.bincount([e.graph for e in trace.events], minlength=6)
        assert counts.max() > 2 * np.median(counts)


class TestRunTrace:
    def test_report_accounts_for_every_event(self):
        service, keys = make_service()
        trace = generate_trace(SIZES, TrafficConfig(seed=7, queries=30, clients=3))
        report = run_trace(service, keys, SIZES, trace, concurrent=True)
        assert report.events_total == 30
        assert report.ok + report.shed + report.failed == report.events_total
        assert report.failed == 0
        assert report.seconds > 0
        assert report.throughput > 0
        service.close()

    def test_sequential_replays_match_across_services(self):
        trace = generate_trace(SIZES, TrafficConfig(seed=13, queries=25, clients=2))
        service_a, keys_a = make_service()
        service_b, keys_b = make_service()
        report_a = run_trace(
            service_a, keys_a, SIZES, trace, concurrent=False, record_answers=True
        )
        report_b = run_trace(
            service_b, keys_b, SIZES, trace, concurrent=False, record_answers=True
        )
        compared, worst = compare_answers(report_a, report_b, atol=1e-8)
        assert compared > 0
        assert worst <= 1e-8
        service_a.close()
        service_b.close()

    def test_compare_answers_raises_on_divergence(self):
        service, keys = make_service()
        trace = generate_trace(
            SIZES, TrafficConfig(seed=17, queries=10, mix=(("solve", 1.0),))
        )
        report = run_trace(
            service, keys, SIZES, trace, concurrent=False, record_answers=True
        )
        tampered_index = next(iter(report.answers))
        import copy

        other = copy.deepcopy(report)
        other.answers[tampered_index] = (
            np.asarray(other.answers[tampered_index], dtype=float) + 1.0
        )
        with pytest.raises(AssertionError):
            compare_answers(report, other, atol=1e-8)
        service.close()

    def test_mutations_are_applied_to_the_registered_graph(self):
        service, keys = make_service()
        trace = generate_trace(
            SIZES, TrafficConfig(seed=23, queries=12, mix=(("mutate", 1.0),))
        )
        versions_before = [service.registry.get(k).graph.version for k in keys]
        report = run_trace(service, keys, SIZES, trace, concurrent=False)
        assert report.ok == 12
        versions_after = [service.registry.get(k).graph.version for k in keys]
        assert sum(versions_after) > sum(versions_before)
        service.close()
