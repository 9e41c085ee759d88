"""Laplacian and incidence matrices, spectral comparisons (Section 2.2).

The Laplacian of a weighted graph ``G = (V, E, w)`` is ``L = B^T W B`` where
``B`` is the edge-vertex incidence matrix and ``W`` the diagonal weight matrix.
A reweighted subgraph ``H`` is a ``(1 +/- eps)``-spectral sparsifier of ``G``
when ``(1-eps) x^T L_H x <= x^T L_G x <= (1+eps) x^T L_H x`` for all ``x``
(Definition 2.1).  The helpers below verify that relation via generalised
eigenvalues restricted to the space orthogonal to the all-ones kernel.

Backend selection
-----------------
The hot kernels (``laplacian_matrix``, ``incidence_matrix``,
``laplacian_quadratic_form``, ``effective_resistances``) are vectorised over
the cached edge arrays of :meth:`WeightedGraph.edge_array` and accept a
``backend`` keyword:

* ``'dense'`` -- numpy arrays / the dense pseudoinverse reference.
* ``'sparse'`` -- ``scipy.sparse`` CSR matrices and one-factorisation batched
  solves from :mod:`repro.linalg.sparse_backend` (the path that scales to
  ``n >= 10^4``).
* ``'auto'`` -- sparse above ``sparse_backend.DENSE_BACKEND_LIMIT`` vertices,
  dense below.

Matrix-returning helpers default to ``'dense'`` so existing callers keep
receiving ``np.ndarray``; pure-number helpers (quadratic form, effective
resistances, and the spectral certification trio
``spectral_approximation_factor`` / ``is_spectral_sparsifier`` /
``relative_condition_number``) default to ``'auto'``.  The sparse
certification path solves the grounded generalized eigenproblem with
``scipy.sparse.linalg.eigsh`` over two grounded ``splu`` factorisations
instead of a dense ``eigh``, removing the ``O(n^3)`` bottleneck at
``n >= 2000``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.linalg import sparse_backend
from repro.linalg.sparse_backend import resolve_backend


def laplacian_matrix(graph: WeightedGraph, backend: str = "dense"):
    """Laplacian matrix ``L`` of ``graph`` (Section 2.2).

    Returns a dense ``np.ndarray`` for ``backend='dense'`` (the default, and
    what ``'auto'`` resolves to at small ``n``) and a ``scipy.sparse`` CSR
    matrix for ``backend='sparse'``.
    """
    if resolve_backend(graph, backend) == "sparse":
        return sparse_backend.laplacian_csr(graph)
    return sparse_backend.laplacian_csr(graph).toarray()


def incidence_matrix(graph: WeightedGraph, backend: str = "dense"):
    """Edge-vertex incidence matrix ``B`` (m x n) and weight vector ``w``.

    Edge orientation is from the smaller to the larger endpoint id (head = the
    larger id), which is immaterial for ``L = B^T W B``.  ``backend='sparse'``
    returns ``B`` as a CSR matrix.
    """
    B, w = sparse_backend.incidence_csr(graph)
    if resolve_backend(graph, backend) == "sparse":
        return B, w
    return B.toarray(), w


def laplacian_quadratic_form(graph: WeightedGraph, x: np.ndarray) -> float:
    """``x^T L_G x = sum_{(u,v) in E} w(u,v) (x_u - x_v)^2`` without forming L."""
    return sparse_backend.laplacian_quadratic_form_vectorized(graph, x)


def laplacian_pseudoinverse(graph: WeightedGraph) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the Laplacian (dense; for verification)."""
    return np.linalg.pinv(laplacian_matrix(graph))


def laplacian_norm(L, x: np.ndarray) -> float:
    """The ``||x||_L = sqrt(x^T L x)`` norm used in Theorems 1.3 and 2.3.

    ``L`` may be a dense array or a scipy sparse matrix.
    """
    x = np.asarray(x, dtype=float)
    value = float(x @ (L @ x))
    return float(np.sqrt(max(0.0, value)))


def effective_resistances(graph: WeightedGraph, backend: str = "auto") -> np.ndarray:
    """Effective resistance of every edge (ordered as ``graph.edges()``).

    The dense path computes the pseudoinverse once and reads all resistances
    off it with fancy indexing; the sparse path factorises the grounded
    Laplacian once and batch-solves ``L x_e = chi_e`` (no ``n x n`` dense
    matrix is ever formed), which is the scalable route for ``n >= 10^3``.
    """
    if resolve_backend(graph, backend) == "sparse":
        return sparse_backend.effective_resistances_sparse(graph)
    if graph.m == 0:
        return np.zeros(0)
    u, v, _ = graph.edge_array()
    Lplus = laplacian_pseudoinverse(graph)
    return Lplus[u, u] + Lplus[v, v] - 2.0 * Lplus[u, v]


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


def _spectral_approximation_factor_sparse(
    graph: WeightedGraph,
    sparsifier: WeightedGraph,
    graph_solver=None,
    sparsifier_solver=None,
) -> Tuple[float, float]:
    """Sparse certification: reduced generalized eigenproblem via ARPACK.

    Degenerate-sparsifier semantics match the dense reference's *decisions*:
    an empty sparsifier of a non-empty graph is ``(0.0, inf)``, and a
    sparsifier whose component partition differs from the graph's (extra
    kernel directions) gets ``lambda_max = inf``.  In the latter case the
    dense path still reports the restricted ``lambda_min``; the sparse path
    returns ``(0.0, inf)`` without computing it -- certification and
    condition numbers agree (``False`` / ``inf`` on both).
    """
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


def spectral_approximation_factor(
    graph: WeightedGraph,
    sparsifier: WeightedGraph,
    backend: str = "auto",
    graph_solver=None,
    sparsifier_solver=None,
) -> Tuple[float, float]:
    """Return ``(lambda_min, lambda_max)`` with ``lambda_min L_H <= L_G <= lambda_max L_H``.

    A ``(1 +/- eps)``-sparsifier in the sense of Definition 2.1 has
    ``lambda_min >= 1 - eps`` and ``lambda_max <= 1 + eps``.

    Degenerate sparsifiers are reported honestly rather than certified: if
    ``L_H`` restricted to the non-trivial space is zero (empty sparsifier, or
    all sparsifier edges inside isolated cliques of a larger vertex set) the
    result is ``(0.0, inf)``, and if ``L_H`` merely has extra kernel
    directions on which ``L_G`` is positive (disconnected sparsifier of a
    connected graph) ``lambda_max`` is ``inf``.

    ``backend='dense'`` is the ``np.linalg.eigh`` reference (``O(n^3)`` time,
    ``O(n^2)`` memory); ``backend='sparse'`` grounds one vertex per component
    and reads both pencil extremes off ``scipy.sparse.linalg.eigsh``, which is
    what keeps certification tractable at ``n >= 2000``.  ``'auto'`` (the
    default) resolves by graph size like every other backend switch.

    The sparse path inverts both grounded Laplacians.  A caller that already
    holds a :class:`~repro.linalg.sparse_backend.GroundedLaplacianSolver` of
    either graph passes it as ``graph_solver`` / ``sparsifier_solver`` and that
    matrix is not factorised again (see
    :func:`~repro.linalg.sparse_backend.pencil_extreme_eigenvalues`); the
    dense path ignores both.
    """
    if graph.n != sparsifier.n:
        raise ValueError("graph and sparsifier must share the vertex set")
    if resolve_backend(graph, backend) == "sparse":
        return _spectral_approximation_factor_sparse(
            graph, sparsifier, graph_solver, sparsifier_solver
        )
    L_G = laplacian_matrix(graph)
    L_H = laplacian_matrix(sparsifier)
    eigs, kernel_leak = _restricted_generalised_eigenvalues(L_G, L_H)
    if eigs.size == 0:
        if graph.m == 0 and sparsifier.m == 0:
            # Both Laplacians are identically zero: every inequality of
            # Definition 2.1 holds with equality, so the empty sparsifier of
            # an empty graph is (trivially) perfect.
            return (1.0, 1.0)
        # L_H is (numerically) zero on the whole non-trivial space while L_G
        # is not: nothing is certified.  Returning (1.0, 1.0) here -- as the
        # seed implementation did -- would vacuously accept a degenerate
        # sparsifier.
        return (0.0, float("inf"))
    lo, hi = float(np.min(eigs)), float(np.max(eigs))
    if kernel_leak > 0.0:
        hi = float("inf")
    return lo, hi


def is_spectral_sparsifier(
    graph: WeightedGraph,
    sparsifier: WeightedGraph,
    eps: float,
    slack: float = 1e-7,
    backend: str = "auto",
) -> bool:
    """Whether ``sparsifier`` is a ``(1 +/- eps)``-spectral sparsifier of ``graph``."""
    lo, hi = spectral_approximation_factor(graph, sparsifier, backend=backend)
    return lo >= 1.0 - eps - slack and hi <= 1.0 + eps + slack


def relative_condition_number(
    graph: WeightedGraph, preconditioner: WeightedGraph, backend: str = "auto"
) -> float:
    """``kappa`` with ``A <= B <= kappa A`` as used in Theorem 2.3 (A = L_G, B ~ L_H)."""
    lo, hi = spectral_approximation_factor(graph, preconditioner, backend=backend)
    if lo <= 0 or not np.isfinite(hi):
        return float("inf")
    return float(hi / lo)


def is_symmetric_diagonally_dominant(M: np.ndarray, tol: float = 1e-9) -> bool:
    """Check that ``M`` is symmetric and (weakly) diagonally dominant."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    if not np.allclose(M, M.T, atol=tol):
        return False
    off_diag = np.sum(np.abs(M), axis=1) - np.abs(np.diag(M))
    return bool(np.all(np.diag(M) >= off_diag - tol))


def graph_from_laplacian(L: np.ndarray, tol: float = 1e-12) -> WeightedGraph:
    """Reconstruct a weighted graph from a Laplacian matrix (for round-tripping)."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    graph = WeightedGraph(n)
    weights = -np.triu(L, k=1)
    rows, cols = np.nonzero(weights > tol)
    graph.add_edges(rows, cols, weights[rows, cols])
    return graph
