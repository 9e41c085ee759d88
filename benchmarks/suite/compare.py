"""``run.py --compare A.json B.json``: is B no worse than A, metric by metric?

One row per (metric, workload).  A bounded metric is *regressed* when B's
median is worse than A's by more than its bound, and *unresolved* when either
side's own run-to-run spread (interquartile range over median, needs
``--repeat``) is wider than the bound -- unless every run of B beats every
run of A.  Exact metrics and the named counts must be identical.  Exit code 0
only when every row is ok.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .metrics import END_TO_END, EXACT_COUNTS, WORKLOAD_NAMES, spread


def load_bounds(benchmark_json: Path) -> Dict[str, float]:
    """Catalogue bounds, overridden by whatever BENCHMARK.json states."""
    bounds = {metric.name: metric.bound for metric in END_TO_END}
    try:
        declared = json.loads(benchmark_json.read_text())["end_to_end"]
    except (OSError, KeyError, ValueError):
        return bounds
    bounds.update({metric["name"]: metric["bound"] for metric in declared})
    return bounds


def judge(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Tuple[str, float]:
    """Status and the share by which B is worse than A (negative = better)."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    runs_a, runs_b = a.get("runs", [a["value"]]), b.get("runs", [b["value"]])
    widest = max(spread(runs_a) or 0.0, spread(runs_b) or 0.0)
    if widest > bound:
        clear_win = max(sign * r for r in runs_b) < min(sign * r for r in runs_a)
        return ("ok" if clear_win else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(path_a: Path, path_b: Path, benchmark_json: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    bounds = load_bounds(benchmark_json)
    same_inputs = all(a["env"][key] == b["env"][key] for key in ("seed", "seconds", "smoke"))
    rows: List[Tuple[str, str, str, str]] = []
    for workload in WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        if same_inputs:
            same = wa["ops_sha"] == wb["ops_sha"]
            rows.append((workload, "ops_sha", "ok" if same else "differs", ""))
        for metric in END_TO_END:
            ma = wa.get("end_to_end", {}).get(metric.name)
            mb = wb.get("end_to_end", {}).get(metric.name)
            if ma is None or mb is None:
                continue
            if metric.exact and same_inputs:
                status = "ok" if ma["value"] == mb["value"] else "differs"
                detail = f"{ma['value']:g} -> {mb['value']:g} (exact)"
            else:
                bound = bounds[metric.name]
                status, worse = judge(ma, mb, metric.better, bound)
                detail = f"{ma['value']:.6g} -> {mb['value']:.6g} {metric.unit} ({worse:+.1%}, bound {bound:.0%})"
            rows.append((workload, metric.name, status, detail))
        for name in EXACT_COUNTS if same_inputs else ():
            ca: Optional[Dict[str, Any]] = wa.get("per_layer", {}).get(name)
            cb: Optional[Dict[str, Any]] = wb.get("per_layer", {}).get(name)
            if ca is None or cb is None:
                continue
            status = "ok" if ca["value"] == cb["value"] else "differs"
            rows.append((workload, name, status, f"{ca['value']:g} -> {cb['value']:g} (exact)"))
    for workload, name, status, detail in rows:
        print(f"{status:10s} {workload:13s} {name:30s} {detail}")
    bad = sum(status != "ok" for _, _, status, _ in rows)
    print(f"{len(rows)} rows, {bad} not ok")
    return 1 if bad or not rows else 0
