"""Output verification, always outside the timed intervals.

A failed check counts one failed op in ``failed_share``.  Callers pause the
tracer around these functions: the references below use the same public
classes the workloads measure and must not show up as layer time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from repro.flow.baselines import successive_shortest_paths
from repro.graphs.laplacian import laplacian_norm
from repro.linalg.sparse_backend import GroundedLaplacianSolver, laplacian_csr
from repro.serve import LaplacianService

#: exact answers (resistances; repaired vs rebuilt; cluster vs in-process)
ATOL = 1e-8
STRETCH_SAMPLE = 200
DIFFERENTIAL_PAIRS = 32


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _agree(got, want, atol: float = ATOL) -> Tuple[bool, float]:
    got, want = np.atleast_1d(np.asarray(got, float)), np.atleast_1d(np.asarray(want, float))
    worst = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    return worst <= atol, worst


# -- construct ---------------------------------------------------------------------


def spanner_stretch(graph, spanner, rng: np.random.Generator) -> float:
    """Max ``d_spanner(u, v) / w(u, v)`` over sampled edges the spanner dropped."""
    u, v, w = graph.edge_array()
    kept = np.fromiter(
        ((int(a), int(b)) in spanner.f_plus for a, b in zip(u, v)), dtype=bool, count=u.size
    )
    dropped = np.flatnonzero(~kept)
    if dropped.size == 0:
        return 1.0
    dropped = rng.choice(dropped, min(STRETCH_SAMPLE, dropped.size), replace=False)
    lengths = sp.csr_matrix((w[kept], (u[kept], v[kept])), shape=(graph.n, graph.n))
    sources, position = np.unique(u[dropped], return_inverse=True)
    distance = dijkstra(lengths, directed=False, indices=sources)
    return float(np.max(distance[position, v[dropped]] / w[dropped]))


def construct_checks(graph, spanner, solver, reports, eps: float, rng) -> Tuple[List[Check], float]:
    stretch = spanner_stretch(graph, spanner, rng)
    bound = 2 * spanner.k - 1
    error = max(report.measured_relative_error for report in reports)
    prepared = solver.prepared
    lo, hi = prepared.scale / prepared.kappa, prepared.scale
    return [
        Check("spanner stretch", stretch <= bound + 1e-9, f"{stretch:.4f} <= {bound}"),
        Check("solve error", all(r.error_bound_holds for r in reports), f"{error:.3e} <= {eps:g}"),
        Check("sparsifier window", lo > 0.0 and math.isfinite(hi), f"[{lo:.4g}, {hi:.4g}]"),
    ], stretch


# -- flow --------------------------------------------------------------------------


def flow_checks(network, results: Dict[str, Any]) -> List[Check]:
    value, cost, _ = successive_shortest_paths(network)
    return [
        Check(
            f"flow exact ({path})",
            math.isclose(result.value, value, abs_tol=1e-6)
            and math.isclose(result.cost, cost, abs_tol=1e-6),
            f"value {result.value:g}/{value:g} cost {result.cost:g}/{cost:g}",
        )
        for path, result in results.items()
    ]


# -- serving -----------------------------------------------------------------------


class Reference:
    """Fresh ``GroundedLaplacianSolver`` per (graph, version), built on demand."""

    def __init__(self, graphs: Dict[str, Any], eta: float):
        self.graphs = graphs
        self.eta = eta
        self._built: Dict[str, Tuple[int, GroundedLaplacianSolver, Any]] = {}
        self.solve_error_max = 0.0
        self.eta_error_max = 0.0

    def _current(self, name: str):
        graph = self.graphs[name]
        built = self._built.get(name)
        if built is None or built[0] != graph.version:
            built = (graph.version, GroundedLaplacianSolver(graph), laplacian_csr(graph))
            self._built[name] = built
        return built[1], built[2]

    def check(self, index: int, op, value) -> Check:
        solver, L = self._current(op.graph)
        label = f"op {index} ({op.graph}/{op.kind})"
        if op.kind == "solve":
            exact = solver.solve(op.payload - op.payload.mean())
            error = laplacian_norm(L, exact - value.solution) / max(
                laplacian_norm(L, exact), 1e-300
            )
            self.solve_error_max = max(self.solve_error_max, error)
            return Check(label, error <= value.eps + 1e-9, f"{error:.3e} <= {value.eps:g}")
        pairs = np.atleast_2d(np.asarray(op.payload))
        exact = solver.pair_resistances(pairs[:, 0], pairs[:, 1])
        if op.kind == "eta":
            error = float(np.max(np.abs(np.asarray(value) - exact) / exact))
            self.eta_error_max = max(self.eta_error_max, error)
            return Check(label, error <= self.eta, f"{error:.3e} <= {self.eta}")
        ok, worst = _agree(value, exact)
        return Check(label, ok, f"{worst:.3e} <= {ATOL:g}")


def differential_checks(service, keys, graphs, pairs, t_override: int) -> List[Check]:
    """The lazily repaired service against one that only ever rebuilds."""
    rebuilt = LaplacianService(t_override=t_override, auto_flush=False, repair=False)
    try:
        checks = []
        for name, graph in graphs.items():
            key = rebuilt.register(graph.copy(), name=name)
            ok, worst = _agree(
                service.effective_resistances(keys[name], pairs[name]),
                rebuilt.effective_resistances(key, pairs[name]),
            )
            checks.append(Check(f"repaired == rebuilt ({name})", ok, f"{worst:.3e} <= {ATOL:g}"))
        return checks
    finally:
        rebuilt.close()


def cluster_checks(ops: Sequence, kept: Dict[int, Any], graphs, make_query, t_override) -> List[Check]:
    """Sampled cluster answers against the in-process service on the same ops.

    Resistance ops only: they need the grounded / oracle / sketch artifacts
    (seconds to build here), not the solver preprocessing; sampled solves are
    already held to their error bound by :class:`Reference`.
    """
    local = LaplacianService(t_override=t_override, auto_flush=False)
    try:
        keys = {name: local.register(graph, name=name) for name, graph in graphs.items()}
        worst_by_kind: Dict[str, float] = {}
        for index, remote in sorted(kept.items()):
            op = ops[index]
            if op.kind == "solve":
                continue
            ticket = local.submit(make_query(op, keys))
            local.flush()
            _, worst = _agree(remote.value, ticket.result().value)
            worst_by_kind[op.kind] = max(worst_by_kind.get(op.kind, 0.0), worst)
        return [
            Check(f"cluster == in-process ({kind})", worst <= ATOL, f"{worst:.3e} <= {ATOL:g}")
            for kind, worst in sorted(worst_by_kind.items())
        ]
    finally:
        local.close()
