"""E-sparsify-pipeline -- end-to-end sparsify + certify trajectory benchmark.

Times ``spectral_sparsify`` followed by sparse certification at
``n in {512, 2000}`` and appends the measurements to the
``BENCH_sparsify.json`` trajectory file at the repo root (pre-vectorisation
~1.9s / ~18.9s end to end, array-native outer loops ~0.6s / ~3.5s,
step-parallel spanner executor ~0.1s / ~1.1s).

Times are recorded, not gated -- ``benchmarks/suite`` is where speed is
judged.  What this script gates is the *random stream*: ``rounds``,
``sparsifier_edges``, ``max_out_degree`` and ``spectral_window`` of a seeded
case are decided by the order in which the spanner / bundle / sparsify layers
draw their coins and by nothing else, so they must equal the latest record of
the same ``(n, eps, t_override)``.  Run as a script (CI does), it exits
non-zero when one of them moved: an exact, noise-free check that a
performance change left the algorithm alone.  A deliberate change of the
stream is re-baselined by committing the record the failing run appended.

Runs both as a pytest-benchmark module and as a plain script:

    PYTHONPATH=src python benchmarks/bench_sparsify_pipeline.py
"""

import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.graphs import generators
from repro.graphs.laplacian import spectral_approximation_factor
from repro.sparsify import spectral_sparsify

#: benchmark sizes; the larger one is infeasible for the dense certifier path
SIZES = (512, 2000)

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_sparsify.json"

#: what identifies a workload in the trajectory
WORKLOAD_KEY = ("n", "eps", "t_override")

#: outputs the random stream decides: a change here is a change of algorithm
STREAM_FIELDS = ("rounds", "sparsifier_edges", "max_out_degree", "spectral_window")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_case(n: int, seed: int = 7, eps: float = 0.5, t_override: int = 2) -> dict:
    """Sparsify + certify one seeded random graph; return the measurements."""
    graph = generators.random_weighted_graph(n, average_degree=8, seed=seed)
    result, sparsify_seconds = _timed(
        lambda: spectral_sparsify(graph, eps=eps, seed=seed + 4, t_override=t_override)
    )
    (lo, hi), certify_seconds = _timed(
        lambda: spectral_approximation_factor(graph, result.sparsifier)
    )
    return {
        "n": n,
        "m": graph.m,
        "eps": eps,
        "t_override": t_override,
        "sparsifier_edges": result.size,
        "sparsify_seconds": round(sparsify_seconds, 4),
        "certify_seconds": round(certify_seconds, 4),
        "total_seconds": round(sparsify_seconds + certify_seconds, 4),
        "spectral_window": [round(lo, 6), round(hi, 6)],
        "max_out_degree": result.max_out_degree(),
        "rounds": result.rounds,
    }


def load_trajectory() -> list:
    if not TRAJECTORY_PATH.exists():
        return []
    try:
        return json.loads(TRAJECTORY_PATH.read_text())
    except json.JSONDecodeError:
        return []


def append_trajectory(cases: list) -> list:
    """Append the measured cases to the BENCH_sparsify.json trajectory.

    The trajectory is a flat list with one record per measured case (tagged
    with a shared timestamp), so the pytest-parametrized runs and the script
    path produce identical schemas and a consumer can plot per-``n`` series
    with a simple filter.
    """
    trajectory = load_trajectory()
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    records = [{"timestamp": timestamp, **case} for case in cases]
    trajectory.extend(records)
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
    return records


def stream_drift(case: dict, trajectory: list) -> list:
    """Stream-decided fields of ``case`` that differ from the latest record of its workload.

    The window is an eigenvalue computation recorded to six digits: it may
    differ by one unit of the last digit, not more.
    """
    same = [
        record
        for record in trajectory
        if all(record.get(key) == case[key] for key in WORKLOAD_KEY)
    ]
    if not same:
        return []
    last = same[-1]
    drift = []
    for field in STREAM_FIELDS:
        if field == "spectral_window":
            moved = any(abs(a - b) > 1.5e-6 for a, b in zip(last[field], case[field]))
        else:
            moved = last[field] != case[field]
        if moved:
            drift.append(
                f"n={case['n']}: {field} {last[field]} -> {case[field]} "
                f"(record of {last['timestamp']})"
            )
    return drift


@pytest.mark.parametrize("n", SIZES)
def test_sparsify_and_certify_pipeline(benchmark, n):
    case = {}

    def run():
        case.clear()
        case.update(run_case(n))
        return case

    benchmark.pedantic(run, rounds=1, iterations=1)
    for key, value in case.items():
        benchmark.extra_info[key] = value
    drift = stream_drift(case, load_trajectory())
    append_trajectory([case])
    assert not drift, drift
    lo, hi = case["spectral_window"]
    # the sparsifier must at least be non-degenerate at these parameters
    assert lo > 0 and hi < float("inf")


def main():
    trajectory = load_trajectory()
    cases = [run_case(n) for n in SIZES]
    records = append_trajectory(cases)
    for case in cases:
        print(
            f"n={case['n']} m={case['m']}: sparsify {case['sparsify_seconds']:.2f}s, "
            f"certify {case['certify_seconds']:.2f}s, window {case['spectral_window']}, "
            f"rounds {case['rounds']}, edges {case['sparsifier_edges']}, "
            f"max out-degree {case['max_out_degree']}"
        )
    print(f"appended {len(records)} records to {TRAJECTORY_PATH.name}")
    drift = [line for case in cases for line in stream_drift(case, trajectory)]
    for line in drift:
        print(f"STREAM DRIFT {line}")
    print("FAIL" if drift else "PASS")
    sys.exit(1 if drift else 0)


if __name__ == "__main__":
    main()
