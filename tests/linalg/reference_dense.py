"""Dense ``pinv`` / ``eigh`` linear algebra, frozen as a test oracle.

``src/`` has one linear-algebra implementation
(``repro.linalg.sparse_backend``: grounded ``splu`` factorisations and
``eigsh``).  This module keeps the ``O(n^3)`` textbook formulas it is pinned
against -- ``tests/linalg/test_sparse_backend.py`` and
``tests/linalg/test_sparse_certification.py`` to 1e-8 -- and shares no code
with it beyond the CSR Laplacian ``laplacian_matrix`` densifies.
They were ``src/``'s dense fork (resistances, solves, certification) until
that fork was deleted.  The matrix helpers only tests use live here too:
``laplacian_matrix``, ``laplacian_pseudoinverse``, the edge-sum ``laplacian_quadratic_form``,
``condition_number`` (``kappa`` of a pencil's extremes) and
``is_symmetric_diagonally_dominant``.

The one place the two certifiers differ by design: for a sparsifier whose
component partition differs from the graph's, this reference still reports
the restricted ``lambda_min`` next to ``lambda_max = inf`` while ``src/``
returns ``(0.0, inf)`` without computing it.  Every *decision*
(``is_spectral_sparsifier``, ``relative_condition_number``) agrees.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph


def laplacian_matrix(graph: WeightedGraph) -> np.ndarray:
    """Dense Laplacian matrix ``L`` of ``graph`` (Section 2.2)."""
    return graph.laplacian_csr().toarray()


def laplacian_pseudoinverse(graph: WeightedGraph) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the Laplacian."""
    return np.linalg.pinv(laplacian_matrix(graph))


def laplacian_quadratic_form(graph: WeightedGraph, x: np.ndarray) -> float:
    """``x^T L x = sum_e w_e (x_u - x_v)^2`` over the edge columns (no matrix)."""
    u, v, w = graph.edge_array()
    x = np.asarray(x, dtype=float)
    diff = x[u] - x[v]
    return float(np.dot(w, diff * diff))


def is_symmetric_diagonally_dominant(M: np.ndarray, tol: float = 1e-9) -> bool:
    """Check that ``M`` is symmetric and (weakly) diagonally dominant."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    if not np.allclose(M, M.T, atol=tol):
        return False
    off_diag = np.sum(np.abs(M), axis=1) - np.abs(np.diag(M))
    return bool(np.all(np.diag(M) >= off_diag - tol))


def solve(graph: WeightedGraph, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solution ``L^+ b`` (``b`` a vector or an ``(n, k)`` block)."""
    return laplacian_pseudoinverse(graph) @ b


def effective_resistances(graph: WeightedGraph) -> np.ndarray:
    """Resistance of every edge, read off the pseudoinverse."""
    u, v, _ = graph.edge_array()
    return pair_resistances(graph, u, v)


def pair_resistances(graph: WeightedGraph, u, v) -> np.ndarray:
    """Resistance of arbitrary pairs: ``inf`` across components, ``0`` on ties."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    labels = np.empty(graph.n, dtype=np.int64)
    for i, component in enumerate(graph.connected_components()):
        labels[sorted(component)] = i
    Lplus = np.linalg.pinv(laplacian_matrix(graph))
    resistances = Lplus[u, u] + Lplus[v, v] - 2.0 * Lplus[u, v]
    resistances[labels[u] != labels[v]] = np.inf
    resistances[u == v] = 0.0
    return resistances


def _restricted_generalised_eigenvalues(
    L_G: np.ndarray, L_H: np.ndarray, tol: float = 1e-9
) -> Tuple[np.ndarray, float]:
    """Eigenvalues of ``pinv(L_H) L_G`` restricted to the image of ``L_H``.

    Both matrices are Laplacians of graphs on the same vertex set, so their
    common kernel contains the all-ones vector; we project it out.  Also
    returns the largest Rayleigh quotient of ``L_G`` over the *remaining*
    kernel of ``L_H`` (beyond the all-ones direction): a strictly positive
    value there means no finite ``hi`` satisfies ``L_G <= hi L_H`` -- e.g. a
    disconnected sparsifier of a connected graph.
    """
    n = L_G.shape[0]
    ones = np.ones((n, 1)) / np.sqrt(n)
    projector = np.eye(n) - ones @ ones.T
    A = projector @ L_G @ projector
    B = projector @ L_H @ projector
    # Work in the eigenbasis of B restricted to its image.  Thresholds are
    # relative to each matrix's own spectral scale so the certification stays
    # scale-invariant (a uniformly tiny-weight graph is still a perfect
    # sparsifier of itself).
    eigvals, eigvecs = np.linalg.eigh(B)
    scale_B = float(np.max(np.abs(eigvals)))
    keep = eigvals > tol * scale_B if scale_B > 0 else np.zeros_like(eigvals, dtype=bool)
    scale_A = float(np.max(np.abs(A))) if A.size else 0.0
    # Energy of L_G on ker(L_H) beyond the all-ones direction.  The projector
    # already removed the ones vector, on which A is zero as well, so any
    # leaked energy here witnesses a direction where L_H vanishes but L_G
    # does not.
    V0 = eigvecs[:, ~keep]
    kernel_leak = 0.0
    if V0.shape[1]:
        kernel_leak = float(np.max(np.linalg.eigvalsh(V0.T @ A @ V0)))
    if not np.any(keep):
        return np.array([]), kernel_leak
    V = eigvecs[:, keep]
    D_inv_sqrt = np.diag(1.0 / np.sqrt(eigvals[keep]))
    M = D_inv_sqrt @ V.T @ A @ V @ D_inv_sqrt
    leak_significant = kernel_leak > tol * scale_A
    return np.linalg.eigvalsh(M), kernel_leak if leak_significant else 0.0


def spectral_approximation_factor(
    graph: WeightedGraph, sparsifier: WeightedGraph
) -> Tuple[float, float]:
    """``(lambda_min, lambda_max)`` with ``lambda_min L_H <= L_G <= lambda_max L_H``."""
    if graph.n != sparsifier.n:
        raise ValueError("graph and sparsifier must share the vertex set")
    eigs, kernel_leak = _restricted_generalised_eigenvalues(
        laplacian_matrix(graph), laplacian_matrix(sparsifier)
    )
    if eigs.size == 0:
        if graph.m == 0 and sparsifier.m == 0:
            # Both Laplacians are identically zero: every inequality of
            # Definition 2.1 holds with equality.
            return (1.0, 1.0)
        # L_H is (numerically) zero on the whole non-trivial space while L_G
        # is not: nothing is certified.
        return (0.0, float("inf"))
    lo, hi = float(np.min(eigs)), float(np.max(eigs))
    if kernel_leak > 0.0:
        hi = float("inf")
    return lo, hi


def is_spectral_sparsifier(
    graph: WeightedGraph, sparsifier: WeightedGraph, eps: float, slack: float = 1e-7
) -> bool:
    lo, hi = spectral_approximation_factor(graph, sparsifier)
    return lo >= 1.0 - eps - slack and hi <= 1.0 + eps + slack


def condition_number(lo: float, hi: float) -> float:
    """``kappa`` with ``A <= B <= kappa A`` (Theorem 2.3) from ``lo A_H <= A_G <= hi A_H``."""
    if lo <= 0 or not np.isfinite(hi):
        return float("inf")
    return float(hi / lo)


def relative_condition_number(graph: WeightedGraph, preconditioner: WeightedGraph) -> float:
    return condition_number(*spectral_approximation_factor(graph, preconditioner))
