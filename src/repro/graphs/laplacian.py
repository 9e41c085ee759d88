"""Laplacian and incidence matrices, spectral comparisons (Section 2.2).

The Laplacian of a weighted graph ``G = (V, E, w)`` is ``L = B^T W B`` where
``B`` is the edge-vertex incidence matrix and ``W`` the diagonal weight matrix.
A reweighted subgraph ``H`` is a ``(1 +/- eps)``-spectral sparsifier of ``G``
when ``(1-eps) x^T L_H x <= x^T L_G x <= (1+eps) x^T L_H x`` for all ``x``
(Definition 2.1).  The helpers below verify that relation via generalised
eigenvalues restricted to the space orthogonal to the all-ones kernel.

One path
--------
Every kernel here is a thin front over :mod:`repro.linalg.sparse_backend`:
CSR matrices built from the cached edge arrays of
:meth:`WeightedGraph.edge_array`, effective resistances from one grounded
``splu`` factorisation and batched solves, and the spectral certification trio
(``spectral_approximation_factor`` / ``is_spectral_sparsifier``) from
``scipy.sparse.linalg.eigsh`` over two grounded factorisations -- at every
graph size.  The textbook ``pinv`` /
``eigh`` formulas these kernels are pinned to (1e-8) are the test oracle
``tests/linalg/reference_dense.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.linalg import sparse_backend

#: eigensolver slack on each side of a certified ``(1 +/- eps)`` window; the
#: library's :func:`is_spectral_sparsifier` and the served ``certify`` both
#: accept ``1 - eps - slack <= lo`` and ``hi <= 1 + eps + slack``
CERTIFICATION_SLACK = 1e-7


def laplacian_norm(L, x: np.ndarray) -> float:
    """The ``||x||_L = sqrt(x^T L x)`` norm used in Theorems 1.3 and 2.3.

    ``L`` may be a dense array or a scipy sparse matrix.
    """
    x = np.asarray(x, dtype=float)
    value = float(x @ (L @ x))
    return float(np.sqrt(max(0.0, value)))


def effective_resistances(graph: WeightedGraph) -> np.ndarray:
    """Effective resistance of every edge (ordered as ``graph.edges()``).

    Factorises the grounded Laplacian once and batch-solves ``L x_e = chi_e``
    (no ``n x n`` dense matrix is ever formed).
    """
    return sparse_backend.effective_resistances_sparse(graph)


def spectral_approximation_factor(
    graph: WeightedGraph,
    sparsifier: WeightedGraph,
    graph_solver=None,
    sparsifier_solver=None,
) -> Tuple[float, float]:
    """Return ``(lambda_min, lambda_max)`` with ``lambda_min L_H <= L_G <= lambda_max L_H``.

    A ``(1 +/- eps)``-sparsifier in the sense of Definition 2.1 has
    ``lambda_min >= 1 - eps`` and ``lambda_max <= 1 + eps``.

    Degenerate sparsifiers are reported honestly rather than certified: an
    empty sparsifier of a non-empty graph is ``(0.0, inf)``, and so is one
    whose component partition differs from the graph's (``L_H`` then has
    kernel directions on which ``L_G`` is positive -- e.g. a disconnected
    sparsifier of a connected graph -- so no finite ``lambda_max`` exists;
    ``lambda_min`` is not computed).  Otherwise one vertex per component is
    grounded and both pencil extremes come from ``scipy.sparse.linalg.eigsh``
    (:func:`~repro.linalg.sparse_backend.pencil_extreme_eigenvalues`; pencils
    of at most ``DENSE_EIG_FALLBACK`` unknowns go to LAPACK, which ARPACK's
    ``k < n`` requires).

    That inverts both grounded Laplacians.  A caller that already holds a
    :class:`~repro.linalg.sparse_backend.GroundedLaplacianSolver` of either
    graph passes it as ``graph_solver`` / ``sparsifier_solver`` and that
    matrix is not factorised again.
    """
    if graph.n != sparsifier.n:
        raise ValueError("graph and sparsifier must share the vertex set")
    if graph.m == 0:
        # L_G = 0: the inequalities of Definition 2.1 hold with (0, 0) for a
        # non-empty H and with equality (1, 1) when H is empty too.
        return (1.0, 1.0) if sparsifier.m == 0 else (0.0, 0.0)
    if sparsifier.m == 0:
        return (0.0, float("inf"))
    components = graph.connected_components()
    partition_g = {frozenset(c) for c in components}
    partition_h = {frozenset(c) for c in sparsifier.connected_components()}
    if partition_g != partition_h:
        return (0.0, float("inf"))
    return sparse_backend.pencil_extreme_eigenvalues(
        graph,
        sparsifier,
        components=components,
        graph_solver=graph_solver,
        sparsifier_solver=sparsifier_solver,
    )


def is_spectral_sparsifier(graph: WeightedGraph, sparsifier: WeightedGraph, eps: float) -> bool:
    """Whether ``sparsifier`` is a ``(1 +/- eps)``-spectral sparsifier of ``graph``,
    up to :data:`CERTIFICATION_SLACK` on each side of the window."""
    slack = CERTIFICATION_SLACK
    lo, hi = spectral_approximation_factor(graph, sparsifier)
    return lo >= 1.0 - eps - slack and hi <= 1.0 + eps + slack
