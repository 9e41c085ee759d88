"""Facade functions over the subsystem packages."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.flow.mincostflow import MinCostFlowResult
from repro.flow.mincostflow import min_cost_max_flow as _min_cost_max_flow
from repro.graphs.digraph import FlowNetwork
from repro.graphs.graph import WeightedGraph
from repro.linalg.sparse_backend import GroundedLaplacianSolver
from repro.lp.barrier_ipm import BarrierIPM
from repro.lp.lee_sidford import LeeSidfordSolver
from repro.lp.problem import LPProblem, LPSolution
from repro.solvers.laplacian import BCCLaplacianSolver, LaplacianSolveReport
from repro.spanners.probabilistic import SpannerResult, probabilistic_spanner
from repro.sparsify.spectral import SparsifierResult, spectral_sparsify


def spanner(
    graph: WeightedGraph,
    k: int = 2,
    probabilities: Optional[Dict[Tuple[int, int], float]] = None,
    seed: Optional[int] = None,
) -> SpannerResult:
    """Compute a ``(2k-1)``-spanner with probabilistic edges (Section 3.1).

    With ``probabilities=None`` this is a plain Baswana-Sen-style spanner; with
    probabilities the result partitions the decided edges into ``F+`` and
    ``F-`` as required by the sparsification framework.
    """
    return probabilistic_spanner(graph, probabilities=probabilities, k=k, seed=seed)


def spectral_sparsifier(
    graph: WeightedGraph,
    eps: float = 0.5,
    seed: Optional[int] = None,
    **kwargs,
) -> SparsifierResult:
    """Compute a ``(1 +/- eps)``-spectral sparsifier in the Broadcast CONGEST
    model (Theorem 1.2).  Extra keyword arguments are experiment knobs
    (``t_override``, ``bundle_scale``, ``k_override``)."""
    return spectral_sparsify(graph, eps=eps, seed=seed, **kwargs)


def solve_laplacian(
    graph: WeightedGraph,
    b: np.ndarray,
    eps: float = 1e-6,
    seed: Optional[int] = None,
    solver: Optional[BCCLaplacianSolver] = None,
    **kwargs,
) -> LaplacianSolveReport:
    """Solve ``L_G x = b`` up to relative error ``eps`` in the ``L_G``-norm
    (Theorem 1.3).  Pass an existing :class:`BCCLaplacianSolver` to reuse its
    preprocessing across right-hand sides."""
    if solver is None:
        solver = BCCLaplacianSolver(graph, seed=seed, **kwargs)
    return solver.solve(b, eps=eps)


def solve_many(
    graph: WeightedGraph,
    rhs: Sequence[np.ndarray],
    eps: float = 1e-6,
    seed: Optional[int] = None,
    solver: Optional[BCCLaplacianSolver] = None,
    **kwargs,
) -> List[LaplacianSolveReport]:
    """Solve ``L_G x = b`` for every ``b`` in ``rhs`` with ONE blocked
    Chebyshev iteration (Theorem 1.3 amortised over instances).

    All instances share the preprocessing sparsifier and advance in lockstep
    on an ``(n, k)`` block, so at ``k`` right-hand sides the per-instance cost
    is a fraction of ``k`` separate :func:`solve_laplacian` calls.  Pass an
    existing :class:`BCCLaplacianSolver` (e.g. one holding cached
    preprocessing from the serving layer) to skip preprocessing entirely.
    """
    if solver is None:
        solver = BCCLaplacianSolver(graph, seed=seed, **kwargs)
    return solver.solve_many(list(rhs), eps=eps)


def effective_resistances(
    graph: WeightedGraph,
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
    solver=None,
    eta: Optional[float] = None,
    seed: Optional[int] = 0,
) -> np.ndarray:
    """Effective resistances, batched through one Laplacian factorisation.

    With ``pairs=None`` this returns the resistance of every edge in
    canonical order (like
    :func:`repro.graphs.laplacian.effective_resistances`).  With an iterable
    of ``(u, v)`` vertex pairs -- which need not be edges -- all queries are
    answered from a single factorisation: ``u == v`` pairs report ``0`` and
    cross-component pairs ``inf``.  Pass ``solver`` to reuse an already-built
    :class:`GroundedLaplacianSolver`,
    :class:`~repro.linalg.sparse_backend.ResistanceOracle` or
    :class:`~repro.linalg.resistance.SketchedResistanceOracle` (the serving
    layer caches one per graph); anything with a ``pair_resistances(u, v)``
    method works.

    ``eta`` is the approximate-resistance knob: a float in ``(0, 1)``
    accepts relative error ``eta`` (with high probability over ``seed``),
    served from one JL-sketched oracle of ``k = O(eta^-2 log m)`` rows --
    ``k`` blocked solves of build work and ``O(n k)`` memory instead of one
    solve per pair.  The one-shot facade only pays that build when the pair
    list is long enough to beat per-pair solves (``> k`` pairs); shorter
    lists are answered exactly, which trivially satisfies ``eta``.  For a
    reusable sketch across calls build a
    :class:`~repro.linalg.resistance.SketchedResistanceOracle` once and pass
    it as ``solver`` (its own accuracy contract then applies; ``eta`` is
    ignored).
    """
    if pairs is None:
        u, v, _ = graph.edge_array()
        if u.size == 0:
            return np.zeros(0)
    else:
        pair_array = np.asarray(list(pairs), dtype=np.int64)
        if pair_array.size == 0:
            return np.zeros(0)
        if pair_array.ndim != 2 or pair_array.shape[1] != 2:
            raise ValueError(f"pairs must be (u, v) tuples, got shape {pair_array.shape}")
        u, v = pair_array[:, 0], pair_array[:, 1]
    if solver is not None:
        return solver.pair_resistances(u, v)
    if eta is not None:
        from repro.linalg.jl import resistance_sketch_dimension
        from repro.linalg.resistance import SketchedResistanceOracle

        if u.size > resistance_sketch_dimension(graph.m, eta):
            oracle = SketchedResistanceOracle(graph, eta=eta, seed=seed)
            return oracle.pair_resistances(u, v)
        # fall through: fewer pairs than sketch rows, exact per-pair solves
        # are cheaper than the build and exact answers satisfy any eta
    return GroundedLaplacianSolver(graph).pair_resistances(u, v)


def solve_lp(
    problem: LPProblem,
    x0: np.ndarray,
    eps: float = 1e-6,
    engine: str = "barrier",
    seed: Optional[int] = None,
    **kwargs,
) -> LPSolution:
    """Solve ``min c^T x, A^T x = b, l <= x <= u`` from the interior point ``x0``
    (Theorem 1.4).  ``engine`` selects the primal-dual barrier IPM (default) or
    the faithful Lee-Sidford weighted path following (``"lee-sidford"``)."""
    if engine == "barrier":
        return BarrierIPM(problem, **kwargs).solve(x0, eps=eps)
    if engine == "lee-sidford":
        return LeeSidfordSolver(problem, seed=seed, **kwargs).solve(x0, eps=eps)
    raise ValueError(f"unknown engine {engine!r}; use 'barrier' or 'lee-sidford'")


def min_cost_max_flow(
    network: FlowNetwork,
    seed: Optional[int] = None,
    service=None,
    **kwargs,
) -> MinCostFlowResult:
    """Exact minimum cost maximum ``s``-``t`` flow (Theorem 1.1).

    Pass ``service`` (a :class:`~repro.serve.service.LaplacianService`) to
    route the solve through the serving tier: the network is registered (a
    content-level no-op when already registered) and the pipeline consumes
    cached artifacts -- the phase-1 max flow and every Newton system's gram
    factorisation -- so repeated solves of the same network run warm.
    """
    if service is not None:
        key = service.register(network)
        return service.min_cost_flow(key, seed=seed, **kwargs)
    return _min_cost_max_flow(network, seed=seed, **kwargs)
