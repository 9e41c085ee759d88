"""Smoke tests of the benchmark suite itself (``--smoke`` sizes, seconds in total)."""

import json
import re

import pytest

from . import metrics
from .compare import judge
from .run import ROOT, finish_per_layer, run_one
from .trace import TARGETS, Tracer, instrument, patch_sites, root_coverage

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
IN_PROCESS = tuple(name for name in metrics.WORKLOAD_NAMES if name != "cluster-read")


def check_end_to_end(workload):
    record = run_one(workload, seed=7, seconds=metrics.RUN_SECONDS, smoke=True, traced=False)
    assert record["failed"] == 0 and not record["failed_checks"]
    assert record["checks_run"] > 0
    expected = {m.name for m in metrics.END_TO_END if workload in m.workloads}
    assert set(record["end_to_end"]) == expected
    for name, metric in record["end_to_end"].items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(metric["unit"])
        assert metric["value"] > 0 or name == "failed_share"
    for name, (q, _) in metrics.TAILS.items():
        if name in expected:
            assert metrics.samples_beyond(record["end_to_end"][name]["samples"], q) >= 10
    assert set(metrics.DRIVER_END_TO_END) <= expected


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_end_to_end_metrics_emitted(workload):
    check_end_to_end(workload)


@pytest.mark.cluster
def test_end_to_end_metrics_emitted_cluster():
    import multiprocessing
    from multiprocessing import resource_tracker

    check_end_to_end("cluster-read")
    # neither a worker nor CPython's shared-memory helper outlives the run
    assert not multiprocessing.active_children()
    assert resource_tracker._resource_tracker._pid is None


@pytest.mark.parametrize("workload", ("construct", "flow"))
def test_per_layer_metrics_emitted(workload):
    record = run_one(workload, seed=7, seconds=metrics.RUN_SECONDS, smoke=True, traced=True)
    finish_per_layer(record, None, 0.0)
    assert "end_to_end" not in record
    assert list(record["per_layer"]) == [name for name, _, _ in metrics.PER_LAYER]
    for name, metric in record["per_layer"].items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(metric["unit"])
    assert record["trace"]["coverage"] >= 0.9
    assert (ROOT / record["trace"]["file"]).stat().st_size > 0


def test_benchmark_json_matches_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/suite"]
    assert declared["run_seconds"] == metrics.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == list(metrics.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert [m["name"] for m in declared["end_to_end"]] == list(metrics.DRIVER_END_TO_END)
    for metric in declared["end_to_end"]:
        catalogue = metrics.END_TO_END_BY_NAME[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (
            catalogue.unit,
            catalogue.better,
            catalogue.bound,
        )
        assert 0 < metric["bound"] <= 0.25
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        metrics.PER_LAYER
    )


def test_self_time_is_duration_minus_union_of_children():
    tracer = Tracer()
    root = tracer.add("op.x", 0.0, 10.0)
    a = tracer.add("a", 1.0, 4.0, parent=root)
    tracer.add("b", 3.0, 6.0, parent=root)  # overlaps a: the union counts 3-4 once
    tracer.add("a", 8.0, 9.0, parent=root)
    tracer.add("c", 1.5, 2.5, parent=a)
    assert tracer.self_seconds() == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    summary = tracer.summary()
    assert (summary["a"].count, summary["a"].total_s, summary["a"].self_s) == (2, 4.0, 3.0)
    assert root_coverage(tracer) == pytest.approx(0.6)


def patched_attributes():
    return {
        (owner, attr): vars(owner)[attr]
        for _, module, attribute in TARGETS
        for owner, attr in patch_sites(module, attribute)
    }


def test_instrument_restores_every_patched_attribute():
    before = patched_attributes()
    assert len(before) >= len(TARGETS)
    tracer = Tracer()
    with instrument(tracer):
        assert all(vars(owner)[attr] is not raw for (owner, attr), raw in before.items())
    assert patched_attributes() == before
    with pytest.raises(RuntimeError):
        with instrument(tracer):
            raise RuntimeError("mid-run failure")
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in before.items())


def test_compare_judges_by_bound_and_spread():
    steady = {"value": 10.0, "runs": [9.9, 10.0, 10.1]}
    assert judge(steady, {"value": 10.5, "runs": [10.4, 10.5, 10.6]}, "lower", 0.1)[0] == "ok"
    assert judge(steady, {"value": 12.0, "runs": [11.9, 12.0, 12.1]}, "lower", 0.1)[0] == "regressed"
    assert judge(steady, {"value": 8.0, "runs": [7.9, 8.0, 8.1]}, "higher", 0.1)[0] == "regressed"
    noisy = {"value": 10.0, "runs": [8.0, 10.0, 12.0]}
    assert judge(noisy, {"value": 10.2, "runs": [10.1, 10.2, 10.3]}, "lower", 0.1)[0] == "unresolved"
    assert judge(noisy, {"value": 5.0, "runs": [4.0, 5.0, 6.0]}, "lower", 0.1)[0] == "ok"
