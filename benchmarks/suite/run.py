"""Runner of the whole-stack benchmark suite.

    python benchmarks/suite/run.py --workload all --seed 7 [--trace] [--smoke]
    python benchmarks/suite/run.py --workload flow --seed 7 --seconds 15 --trace 0
    python benchmarks/suite/run.py --compare A.json B.json

One (workload, traced or not) run happens in this process: one client thread,
closed loop, BLAS pinned to one thread.  ``--workload all``, ``--trace both``
(what a bare ``--trace`` means) and ``--repeat`` start one such process per
run, so that peak RSS, caches and allocator state of one run never leak into
the next, and merge what they write.  Every invocation prints each metric by
name with its unit, writes one JSON document under ``out/``, and ends with one
JSON line: ``correct`` / ``attempted`` / ``failed`` / ``metrics`` -- the
end-to-end metrics ``BENCHMARK.json`` lists when untraced, every per-layer
metric when traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
OUT_DIR = SUITE_DIR / "out"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_SECONDS = 900


def bootstrap() -> None:
    """Pin BLAS threads and make ``repro`` and the ``suite`` package importable.

    Runs before numpy is imported.  The script's own directory leaves
    ``sys.path``: it holds a ``trace.py`` that would shadow the stdlib module.
    """
    for variable in BLAS_VARIABLES:
        os.environ[variable] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} not found: the suite runs from a checkout of the repo")
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != SUITE_DIR]
    sys.path[:0] = [str(ROOT / "src"), str(SUITE_DIR.parent)]


# -- environment -----------------------------------------------------------------------


def environment(seed: int, seconds: int, smoke: bool, loadavg_start: float) -> Dict[str, Any]:
    import networkx
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {variable: os.environ.get(variable) for variable in BLAS_VARIABLES},
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg()[0],
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    }


def peak_rss_mb() -> float:
    """Max of this process and its waited-for children (Linux reports KiB)."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


# -- one run ---------------------------------------------------------------------------


def span_cost_seconds(pairs: int = 20000) -> float:
    """What one recorded span costs, measured on a scratch tracer."""
    from suite.trace import Tracer

    scratch = Tracer()
    start = time.perf_counter()
    for _ in range(pairs):
        scratch.end(scratch.begin("calibration"))
    return (time.perf_counter() - start) / pairs


def run_one(workload: str, seed: int, seconds: int, smoke: bool, traced: bool) -> Dict[str, Any]:
    """Run one workload once in this process; returns its result record."""
    from suite import metrics
    from suite.trace import Tracer, instrument, root_coverage

    # a user's first query pays for importing repro, numpy and scipy: set-up
    import_start = time.perf_counter()
    from suite.workloads import RUNNERS, sizes_for

    import_s = time.perf_counter() - import_start
    tracer = Tracer(enabled=traced)
    sizes = sizes_for(seconds, smoke)
    if traced:
        with instrument(tracer):
            run = RUNNERS[workload](tracer, sizes, seed)
    else:
        run = RUNNERS[workload](tracer, sizes, seed)

    record: Dict[str, Any] = {
        "traced": traced,
        "ops_sha": run.ops_sha,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks_run": len(run.checks),
        "failed_checks": [f"{c.name}: {c.detail}" for c in run.checks if not c.ok],
        "measured_s": run.measured_s,
        "loadavg_end": os.getloadavg()[0],
        "raw": run.raw,
    }
    if not traced:  # end-to-end metrics are never taken from a traced run
        values = dict(run.end_to_end)
        values["setup_s"] += import_s
        values["peak_rss_mb"] = peak_rss_mb()
        values["failed_share"] = run.failed / run.attempted
        record["end_to_end"] = {
            metric.name: {
                "value": values[metric.name],
                "unit": metric.unit,
                "samples": run.samples.get(metric.name),
            }
            for metric in metrics.END_TO_END
            if workload in metric.workloads
        }
        return record

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"{workload}.trace.jsonl"
    tracer.write_jsonl(trace_file)
    summary = tracer.summary()
    layer = dict(run.layer)
    for name, (span_name, field) in metrics.SPAN_METRICS.items():
        if span_name in summary:
            layer[name] = float(getattr(summary[span_name], field))
    cost = span_cost_seconds()
    record["trace"] = {
        "file": str(trace_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "span_cost_us": cost * 1e6,
        #: share of the op root spans that instrumented child spans explain
        "coverage": root_coverage(tracer),
        "overhead_estimate_share": len(tracer.spans) * cost / run.measured_s,
    }
    record["per_layer"] = layer
    return record


def finish_per_layer(record: Dict[str, Any], untraced_measured_s: Optional[float], loadavg: float):
    """Fill the ``bench.*`` metrics and zero the layers the workload never entered."""
    from suite import metrics

    layer = record["per_layer"]
    trace = record["trace"]
    if untraced_measured_s:
        trace["overhead_basis"] = "untraced-run"
        layer["bench.tracing_overhead_share"] = record["measured_s"] / untraced_measured_s - 1.0
    else:
        trace["overhead_basis"] = "span-cost"
        layer["bench.tracing_overhead_share"] = trace["overhead_estimate_share"]
    layer["bench.loadavg_start"] = loadavg
    record["per_layer"] = {
        name: {"value": float(layer.get(name, 0.0)), "unit": unit}
        for name, unit, _ in metrics.PER_LAYER
    }


# -- documents -------------------------------------------------------------------------


def default_out(workload: str, seed: int, smoke: bool, traced_only: bool = False) -> Path:
    """Where a document goes; a traced-only one never replaces the untraced one it reads."""
    suffix = ("-smoke" if smoke else "") + ("-traced" if traced_only else "")
    return OUT_DIR / f"result-{workload}-seed{seed}{suffix}.json"


def merge(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the untraced and traced records of one workload into one entry.

    End-to-end values become the median over the untraced records, with every
    run kept (``--compare`` reads the spread off them); per-layer values are
    the last traced record's.
    """
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    entry: Dict[str, Any] = {
        "ops_sha": records[0]["ops_sha"],
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "checks_run": sum(r["checks_run"] for r in records),
        "failed_checks": [line for r in records for line in r["failed_checks"]],
    }
    if len({r["ops_sha"] for r in records}) != 1:
        entry["failed_checks"].append("ops_sha differs between runs of one seed")
    if untraced:
        entry["raw"] = untraced[-1]["raw"]
        entry["measured_s"] = statistics.median(r["measured_s"] for r in untraced)
        entry["end_to_end"] = {}
        for name, first in untraced[0]["end_to_end"].items():
            runs = [r["end_to_end"][name]["value"] for r in untraced]
            metric = {**first, "value": statistics.median(runs), "runs": runs}
            if len(runs) > 1:
                metric["q1"], _, metric["q3"] = statistics.quantiles(runs, n=4)
            entry["end_to_end"][name] = metric
    if traced:
        entry["per_layer"] = traced[-1]["per_layer"]
        entry["trace"] = traced[-1]["trace"]
    return entry


def stored_untraced_seconds(workload: str, ops_sha: str, config: Dict[str, Any]) -> Optional[float]:
    """Measured seconds of an earlier untraced run over the very same op list."""
    for name in (workload, "all"):
        try:
            stored = json.loads(default_out(name, config["seed"], config["smoke"]).read_text())
            entry = stored["workloads"][workload]
            if entry["ops_sha"] == ops_sha and stored["env"]["seconds"] == config["seconds"]:
                return entry["measured_s"]
        except (OSError, KeyError, ValueError):
            continue
    return None


def report(workload: str, entry: Dict[str, Any]) -> None:
    print(f"== {workload}  ops_sha {entry['ops_sha'][:12]}")
    for name, metric in entry.get("end_to_end", {}).items():
        samples = f"  n={metric['samples']}" if metric.get("samples") else ""
        runs = f"  runs={len(metric['runs'])}" if len(metric.get("runs", ())) > 1 else ""
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}{samples}{runs}")
    for name, metric in entry.get("per_layer", {}).items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    if "trace" in entry:
        trace = entry["trace"]
        covered = "n/a" if trace["coverage"] is None else f"{trace['coverage']:.1%}"
        print(
            f"  trace: {trace['spans']} spans -> {trace['file']}; op time explained by "
            f"child spans {covered}; overhead basis {trace['overhead_basis']}"
        )
    print(
        f"  verification: {entry['checks_run']} checks, {entry['failed']} of "
        f"{entry['attempted']} ops failed"
    )
    for line in entry["failed_checks"]:
        print(f"    FAILED {line}")


def final_line(document: Dict[str, Any], single: Optional[str]) -> str:
    """The line a driver parses: last on stdout, exactly four keys for one workload."""
    from suite import metrics

    entries = document["workloads"]
    line: Dict[str, Any] = {
        "correct": all(not e["failed"] and not e["failed_checks"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": {},
    }
    if single is None:
        line["result"] = document["path"]
        return json.dumps(line)
    entry = entries[single]
    for name in metrics.DRIVER_END_TO_END if "end_to_end" in entry else ():
        metric = entry["end_to_end"][name]
        line["metrics"][name] = {"value": metric["value"], "unit": metric["unit"]}
    for name, metric in entry.get("per_layer", {}).items():
        line["metrics"][name] = {"value": metric["value"], "unit": metric["unit"]}
    return json.dumps(line)


# -- orchestration ---------------------------------------------------------------------


def child_record(workload: str, args, traced: bool) -> Dict[str, Any]:
    """One run in a fresh interpreter; returns the record it wrote."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        path = Path(scratch) / "record.json"
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1" if traced else "0",
            "--record", str(path),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_SECONDS)
        if done.returncode != 0 or not path.exists():
            sys.stderr.write(done.stdout + done.stderr)
            raise RuntimeError(f"{workload} run exited with code {done.returncode}")
        return json.loads(path.read_text())


def main(argv: Optional[List[str]] = None) -> int:
    from suite import metrics
    from suite.compare import compare

    loadavg_start = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=metrics.RUN_SECONDS,
                        help="nominal length of a measured region; scales passes and op counts")
    parser.add_argument("--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
                        help="0 untraced, 1 traced only, both (bare --trace): untraced then traced")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, about a second per run")
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", type=Path, help="result document (default under out/)")
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), type=Path,
                        help="judge B against A with the bounds of BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json")
    if args.seconds < 1 or args.repeat < 1:
        parser.error("--seconds and --repeat must be at least 1")

    config = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke}
    OUT_DIR.mkdir(exist_ok=True)
    names = metrics.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    in_process = len(names) == 1 and len(modes) == 1 and args.repeat == 1

    document: Dict[str, Any] = {"schema": 1, "workloads": {}}
    for workload in names:
        records = []
        for traced in modes:
            for _ in range(1 if traced else args.repeat):
                if in_process:
                    records.append(run_one(workload, args.seed, args.seconds, args.smoke, traced))
                else:
                    records.append(child_record(workload, args, traced))
        if args.record:  # a child of an orchestrating run: hand the raw record back
            args.record.write_text(json.dumps(records[0]))
            return 0
        for record in records:
            if record["traced"]:
                untraced = [r["measured_s"] for r in records if not r["traced"]]
                finish_per_layer(
                    record,
                    statistics.median(untraced)
                    if untraced
                    else stored_untraced_seconds(workload, record["ops_sha"], config),
                    loadavg_start,
                )
        document["workloads"][workload] = merge(records)
        report(workload, document["workloads"][workload])
    document["env"] = environment(args.seed, args.seconds, args.smoke, loadavg_start)

    out = args.out or default_out(args.workload, args.seed, args.smoke, args.trace == "1")
    document["path"] = str(out)
    out.write_text(json.dumps(document, indent=1))
    print(f"wrote {out}")
    print(final_line(document, None if args.workload == "all" else args.workload))
    return 0


if __name__ == "__main__":  # cluster workers re-import this file as __mp_main__
    bootstrap()
    # a terminated run must still unwind: the workloads stop and reap their
    # worker and helper processes in ``finally`` blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
