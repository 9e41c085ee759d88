"""In-memory span tracer and the monkeypatch table that feeds it.

The suite measures every layer from outside: :func:`instrument` wraps a fixed
table of public entry points of ``repro`` for the duration of one traced run
and restores them afterwards, and the wrappers record spans into a
:class:`Tracer`.  Nothing under ``src/`` knows it is being traced.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
span that was open on the same thread when this one started (``-1`` for a
root), ``op`` is whatever the runner set as the current operation id, so all
spans of one benchmark op share it.  Spans live in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

# span record layout (a list, not an object: begin/end sit inside sub-ms ops)
NAME, START, END, PARENT, OP = range(5)


@dataclass
class SpanStats:
    """Aggregate of every span sharing one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans; disabled tracers cost one attribute test per call."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        #: id of the benchmark op being driven; copied onto every new span
        self.op: Any = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span on the calling thread; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened by the matching :meth:`begin`."""
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the body as one span (no-op when the tracer is disabled)."""
        if not self.enabled:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (verification runs under this)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def add(self, name: str, start: float, end: float, parent: int = -1, op: Any = None) -> int:
        """Append a finished span with explicit times (tests build trees with it)."""
        with self._lock:
            self.spans.append([name, float(start), float(end), parent, op])
            return len(self.spans) - 1

    # -- analysis --------------------------------------------------------------

    def self_seconds(self) -> List[float]:
        """Per-span self time: duration minus the union of its child intervals."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span[PARENT] >= 0 and span[END] is not None:
                children.setdefault(span[PARENT], []).append((span[START], span[END]))
        result = []
        for index, span in enumerate(self.spans):
            if span[END] is None:
                result.append(0.0)
                continue
            lo, hi = span[START], span[END]
            covered = 0.0
            cursor = lo
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, cursor), min(end, hi)
                if end > start:
                    covered += end - start
                    cursor = end
            result.append((hi - lo) - covered)
        return result

    def summary(self) -> Dict[str, SpanStats]:
        """Count, total and self seconds per span name."""
        stats: Dict[str, SpanStats] = {}
        for span, self_s in zip(self.spans, self.self_seconds()):
            if span[END] is None:
                continue
            entry = stats.setdefault(span[NAME], SpanStats())
            entry.count += 1
            entry.total_s += span[END] - span[START]
            entry.self_s += self_s
        return stats

    def write_jsonl(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        epoch = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                if span[END] is None:
                    continue
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START] - epoch,
                            "end": span[END] - epoch,
                            "parent": span[PARENT],
                            "op": span[OP],
                        }
                    )
                    + "\n"
                )


#: (span name, module, attribute).  ``Class.method`` attributes are patched on
#: the class; plain functions are patched in every loaded ``repro`` module that
#: imported them by name.  Beyond the entry points the issue lists, the table
#: holds ``BCCLaplacianSolver.prepare`` / ``solve_many`` (without them
#: ``solvers.prepare_self_s`` has no span to be the self time of) and the two
#: uninstrumented halves of ``min_cost_max_flow`` (LP assembly and the exact
#: fallback), so that a flow op's own self time stays below a tenth of it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("spanners.spanner", "repro.spanners.probabilistic", "probabilistic_spanner"),
    ("spanners.bundle", "repro.spanners.bundle", "bundle_spanner"),
    ("sparsify.sparsify", "repro.sparsify.spectral", "spectral_sparsify"),
    ("graphs.certify", "repro.graphs.laplacian", "spectral_approximation_factor"),
    ("linalg.factorise", "repro.linalg.sparse_backend", "GroundedLaplacianSolver.__init__"),
    ("linalg.splu_solve", "repro.linalg.sparse_backend", "GroundedLaplacianSolver.solve"),
    ("linalg.splu_solve", "repro.linalg.sparse_backend", "GroundedLaplacianSolver.solve_many"),
    ("linalg.pair_query", "repro.linalg.sparse_backend", "GroundedLaplacianSolver.pair_resistances"),
    ("linalg.oracle_build", "repro.linalg.sparse_backend", "ResistanceOracle.__init__"),
    ("linalg.pair_query", "repro.linalg.sparse_backend", "ResistanceOracle.pair_resistances"),
    ("linalg.sketch_build", "repro.linalg.resistance", "SketchedResistanceOracle.__init__"),
    ("linalg.pair_query", "repro.linalg.resistance", "SketchedResistanceOracle.pair_resistances"),
    ("solvers.prepare", "repro.solvers.laplacian", "BCCLaplacianSolver.prepare"),
    ("solvers.solve_many", "repro.solvers.laplacian", "BCCLaplacianSolver.solve_many"),
    ("solvers.chebyshev", "repro.solvers.chebyshev", "preconditioned_chebyshev"),
    ("lp.ipm", "repro.lp.barrier_ipm", "BarrierIPM.solve"),
    ("lp.gram", "repro.lp.gram", "GramSolverBridge.__call__"),
    ("flow.phase1", "repro.flow.baselines", "edmonds_karp_max_flow"),
    ("flow.exact_fallback", "repro.flow.baselines", "successive_shortest_paths"),
    ("flow.build_lp", "repro.flow.lp_formulation", "build_fixed_value_lp"),
    ("registry.register", "repro.serve.registry", "GraphRegistry.register"),
    ("artifacts.get_or_build", "repro.serve.artifacts", "ArtifactCache.get_or_build"),
    ("planner.plan", "repro.serve.planner", "QueryPlanner.plan"),
    ("planner.execute", "repro.serve.planner", "QueryPlanner.execute_batch"),
    ("service.submit", "repro.serve.service", "LaplacianService.submit"),
    ("service.flush", "repro.serve.service", "LaplacianService.flush"),
)


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


def patch_sites(module_name: str, attribute: str) -> List[Tuple[Any, str]]:
    """Every ``(owner, attr)`` that :func:`instrument` rebinds for one target."""
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        return [(getattr(module, class_name), method)]
    original = getattr(module, attribute)
    return [
        (candidate, attribute)
        for name, candidate in list(sys.modules.items())
        if candidate is not None
        and (name == "repro" or name.startswith("repro."))
        and vars(candidate).get(attribute) is original
    ]


@contextmanager
def instrument(tracer: Tracer, targets=TARGETS) -> Iterator[None]:
    """Wrap every target for the duration of the block; always restores."""
    patched: List[Tuple[Any, str, Any]] = []
    try:
        for span_name, module_name, attribute in targets:
            for owner, attr in patch_sites(module_name, attribute):
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement: Any = type(raw)(_traced(tracer, span_name, raw.__func__))
                else:
                    replacement = _traced(tracer, span_name, raw)
                patched.append((owner, attr, raw))
                setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


def root_coverage(tracer: Tracer, prefix: str = "op.") -> Optional[float]:
    """Share of the op root spans' time that instrumented child spans explain."""
    total = unexplained = 0.0
    for span, self_s in zip(tracer.spans, tracer.self_seconds()):
        if span[END] is not None and span[PARENT] < 0 and span[NAME].startswith(prefix):
            total += span[END] - span[START]
            unexplained += self_s
    return None if total <= 0.0 else 1.0 - unexplained / total
