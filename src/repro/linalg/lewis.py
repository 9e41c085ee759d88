"""Regularised ell_p Lewis weights (Definition 4.3, Algorithms 7 and 8, Lemma 4.6).

The ell_p Lewis weights of a full-rank ``M in R^{m x n}`` are the unique
``w > 0`` with ``w = sigma(W^{1/2 - 1/p} M)``; equivalently
``w_i = tau_i(w)^{p/2}`` with ``tau_i(w) = m_i^T (M^T W^{1-2/p} M)^{-1} m_i``.
The LP solver uses the *regularised* weights ``g(x) = w_p(M_x) + c0`` with
``p = 1 - 1/log(4m)`` and ``c0 = n/(2m)``.

``compute_apx_weights`` follows the structure of Algorithm 7 -- a damped
fixed-point iteration in which every leverage-score computation is performed by
the JL-sketched ``ComputeLeverageScores`` -- using the Cohen-Peng contraction
``w <- w^{1-p/2} sigma(W^{1/2-1/p} M)^{p/2}``, which converges geometrically for
``p < 4`` from any positive start.  (The exact update of Lee-Sidford is an
equivalent damped step; the contraction form is used here for numerical
robustness at float64, see ``docs/substitutions.md``, 5.)  ``compute_initial_weights`` mirrors
Algorithm 8's homotopy from ``p = 2`` down to the target ``p``; because the
contraction is global the homotopy is optional (``faithful=False`` skips it)
but its ``O(sqrt(n) log(mn))`` outer-iteration count is what enters the round
accounting of Lemma 4.6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.congest.ledger import CommunicationPrimitives
from repro.linalg.leverage import (
    approximate_edge_leverage_scores,
    approximate_leverage_scores,
    exact_leverage_scores,
)


def lewis_p_parameter(m: int) -> float:
    """The paper's choice ``p = 1 - 1/log(4m)`` (Definition 4.3)."""
    m = max(2, int(m))
    return 1.0 - 1.0 / math.log(4 * m)


def lewis_regularisation(m: int, n: int) -> float:
    """The regularisation constant ``c0 = n / (2m)`` (Definition 4.3)."""
    return float(n) / (2.0 * float(m))


def _reweighted(M, w: np.ndarray, p: float):
    """``W^{1/2 - 1/p} M`` for dense or scipy-sparse ``M``."""
    scale = w ** (0.5 - 1.0 / p)
    if sp.issparse(M):
        return (sp.diags(scale) @ M).tocsr()
    return scale[:, None] * M


def exact_lewis_weights(
    M: np.ndarray,
    p: float,
    tol: float = 1e-12,
    max_iterations: int = 500,
) -> np.ndarray:
    """Exact (to ``tol``) ell_p Lewis weights via the fixed-point iteration."""
    M = np.asarray(M, dtype=float)
    m, n = M.shape
    if not (0 < p < 4):
        raise ValueError(f"the fixed-point iteration requires 0 < p < 4, got {p}")
    w = np.full(m, n / m, dtype=float)
    for _ in range(max_iterations):
        sigma = exact_leverage_scores(_reweighted(M, w, p))
        sigma = np.maximum(sigma, 1e-300)
        w_next = (w ** (1.0 - p / 2.0)) * (sigma ** (p / 2.0))
        if np.max(np.abs(w_next - w) / np.maximum(w, 1e-300)) < tol:
            return w_next
        w = w_next
    return w


def regularized_lewis_weights(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """The regularised weights ``g = w_p(M) + c0`` of Definition 4.3 (exact reference)."""
    M = np.asarray(M, dtype=float)
    m, n = M.shape
    p = lewis_p_parameter(m)
    return exact_lewis_weights(M, p, tol=tol) + lewis_regularisation(m, n)


@dataclass
class LewisWeightReport:
    """Approximate Lewis weights with iteration/round bookkeeping."""

    weights: np.ndarray
    iterations: int
    rounds: float = 0.0
    leverage_calls: int = 0
    p: float = 1.0
    history: List[float] = field(default_factory=list)


def apx_weight_iteration_count(p: float, n: int, eta: float) -> int:
    """The ``T = ceil(80 (p/2 + 2/p) log(p n / (32 eta)))`` bound of Algorithm 7."""
    if not (0 < eta):
        raise ValueError(f"eta must be positive, got {eta}")
    n = max(2, int(n))
    inner = max(2.0, p * n / (32.0 * eta))
    return max(1, math.ceil(80.0 * (p / 2.0 + 2.0 / p) * math.log(inner)))


def compute_apx_weights(
    M=None,
    p: float = 1.0,
    w0: Optional[np.ndarray] = None,
    eta: float = 1e-2,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    comm: Optional[CommunicationPrimitives] = None,
    use_sketching: bool = True,
    max_iterations: Optional[int] = None,
    graph=None,
    resistance_oracle=None,
    rows=None,
) -> LewisWeightReport:
    """``ComputeApxWeights(M, p, w0, eta)`` (Algorithm 7).

    Returns ``w`` with ``||w_p(M)^{-1} (w_p(M) - w)||_inf <= eta`` with high
    probability (Lemma 4.6).

    Parameters
    ----------
    M:
        The ``m x n`` matrix (in the LP solver, ``M = D A`` for diagonal
        ``D``), dense or scipy sparse.  May be ``None`` when ``graph`` is
        given.
    p:
        Lewis weight exponent, ``p in [1 - 1/log(4m), 2]`` in the LP solver.
    w0:
        Warm start (defaults to the uniform vector ``n/m``).
    eta:
        Target multiplicative accuracy.
    use_sketching:
        If True, leverage scores are computed with the JL sketch of Algorithm 6;
        if False, exactly (faster at the tiny sizes of the test suite).
    graph:
        Graph mode: a :class:`~repro.graphs.graph.WeightedGraph` whose
        weighted incidence matrix ``M = W_G^{1/2} B`` is the implicit input.
        Each fixed-point iteration then reads leverage scores as weighted
        effective resistances (Spielman-Srivastava) instead of running the
        generic Algorithm 6 regression loop.
    resistance_oracle:
        Serving-tier hook for graph mode: a resident cached
        :class:`~repro.linalg.resistance.SketchedResistanceOracle` of
        ``graph``.  Iterates whose row scaling is uniform (the default start
        is) read their scores straight off the shared oracle -- leverage
        scores are invariant under uniform row scaling -- so the serving
        layer's ``k`` embedding solves are never re-paid.  The eta contract
        is enforced eagerly: a non-exact oracle whose (possibly
        repair-widened) ``eta_effective`` is looser than the per-iteration
        leverage accuracy ``min(1/2, eta/4)`` is rejected up front.
    rows:
        Graph mode for incidence-structured *matrices* whose rows collapse
        onto repeated vertex pairs (parallel edges): a pair ``(row_pair,
        row_norm2)`` declaring that matrix row ``r`` is a scalar multiple of
        graph edge ``row_pair[r]`` with squared Euclidean norm
        ``row_norm2[r]``.  The weights then live on *rows* (length
        ``len(row_pair)``, not ``graph.m``) and each iteration computes one
        resistance per distinct pair -- parallel rows share it -- so the cost
        stays one grounded factorisation regardless of multiplicity.
        ``graph``'s edge weights must equal the aggregated squared row norms
        ``bincount(row_pair, row_norm2)`` (validated up front), which is what
        makes the uniform-iterate oracle shortcut sound.
    """
    if not (0 < p < 4):
        raise ValueError(f"p must lie in (0, 4), got {p}")
    rng = rng if rng is not None else np.random.default_rng(seed)
    leverage_eta = min(0.5, eta / 4.0)

    graph_edges = None
    if graph is not None:
        if (
            resistance_oracle is not None
            and not resistance_oracle.exact
            and resistance_oracle.eta_effective > leverage_eta
        ):
            raise ValueError(
                f"shared oracle guarantees eta={resistance_oracle.eta_effective}, "
                f"looser than the per-iteration leverage accuracy {leverage_eta} "
                f"needed for eta={eta}"
            )
        graph_edges = graph.edge_array()
        if rows is not None:
            row_pair = np.asarray(rows[0], dtype=np.int64)
            row_norm2 = np.asarray(rows[1], dtype=float)
            aggregated = np.bincount(row_pair, weights=row_norm2, minlength=graph.m)
            if not np.allclose(aggregated, graph_edges[2], rtol=1e-9, atol=0.0):
                raise ValueError(
                    "rows mode requires graph edge weights equal to the "
                    "aggregated squared row norms bincount(row_pair, row_norm2)"
                )
            rows = (row_pair, row_norm2)
            m = row_pair.shape[0]
        else:
            m = graph.m
        # rank of the weighted incidence matrix
        n = graph.n - len(graph.connected_components())
    elif sp.issparse(M):
        M = M.tocsr().astype(float)
        m, n = M.shape
    else:
        M = np.asarray(M, dtype=float)
        m, n = M.shape

    w = np.full(m, n / m, dtype=float) if w0 is None else np.array(w0, dtype=float)
    if np.any(w <= 0):
        raise ValueError("the warm-start weights must be strictly positive")

    # The contraction factor of the fixed-point map is |1 - p/2|, so
    # O(log(1/eta)) damped iterations reach accuracy eta; Algorithm 7's stated
    # bound is an upper bound on this count.
    contraction = max(abs(1.0 - p / 2.0), 0.5)
    needed = max(3, math.ceil(math.log(max(m, 4) / eta) / max(1e-9, -math.log(contraction))))
    budget = apx_weight_iteration_count(p, n, eta)
    iterations = min(needed, budget)
    if max_iterations is not None:
        iterations = min(iterations, max_iterations)

    report = LewisWeightReport(weights=w, iterations=0, p=p)
    for j in range(iterations):
        if graph is not None:
            sigma = _graph_iteration_scores(
                graph,
                graph_edges,
                w,
                p,
                leverage_eta,
                use_sketching,
                resistance_oracle,
                rng,
                rows=rows,
            )
            report.leverage_calls += 1
            if comm is not None:
                comm.laplacian_solve(1.0, "edge leverage scores via resistance oracle")
        elif use_sketching:
            reweighted = _reweighted(M, w, p)
            lev = approximate_leverage_scores(
                reweighted, eta=leverage_eta, rng=rng, comm=comm
            )
            sigma = lev.scores
            report.leverage_calls += 1
        else:
            reweighted = _reweighted(M, w, p)
            sigma = exact_leverage_scores(reweighted)
            report.leverage_calls += 1
            if comm is not None:
                comm.laplacian_solve(1.0, "exact leverage scores (reference mode)")
        sigma = np.maximum(sigma, 1e-300)
        w_next = (w ** (1.0 - p / 2.0)) * (sigma ** (p / 2.0))
        report.history.append(float(np.max(np.abs(w_next - w) / np.maximum(w, 1e-300))))
        w = np.maximum(w_next, 1e-300)
        report.iterations = j + 1
    report.weights = w
    report.rounds = comm.ledger.total_rounds if comm is not None else 0.0
    return report


def _graph_iteration_scores(
    graph,
    graph_edges,
    w: np.ndarray,
    p: float,
    leverage_eta: float,
    use_sketching: bool,
    resistance_oracle,
    rng: np.random.Generator,
    rows=None,
) -> np.ndarray:
    """One fixed-point iteration's leverage scores in graph mode.

    The reweighted matrix is ``W^{1/2-1/p} W_G^{1/2} B``, i.e. the incidence
    matrix of ``graph`` with edge weights ``w_G * w^{1-2/p}``.  A *uniform*
    iterate scales every row alike, which leaves leverage scores unchanged --
    those iterations read straight off the shared base-graph oracle (or build
    one for the base graph).  Non-uniform iterates genuinely change the
    spectrum and compute fresh scores on the reweighted graph.

    With ``rows`` (see :func:`compute_apx_weights`) the weights live on the
    rows of an incidence-structured matrix: the reweighted graph carries pair
    weights ``bincount(row_pair, w^{1-2/p} row_norm2)`` and row ``r``'s score
    is ``w_r^{1-2/p} row_norm2_r R(pair_r)`` -- one resistance per distinct
    pair, shared by all its parallel rows.
    """
    from repro.graphs.graph import WeightedGraph

    u, v, w_graph = graph_edges
    s2 = w ** (1.0 - 2.0 / p)
    uniform = bool(np.all(s2 == s2[0]))
    if rows is None:
        if uniform:
            if resistance_oracle is not None or use_sketching:
                lev = approximate_edge_leverage_scores(
                    graph,
                    leverage_eta,
                    oracle=resistance_oracle,
                    seed=int(rng.integers(0, 2 ** 31)),
                )
                return lev.scores
            return _exact_edge_leverage_scores(graph)
        reweighted_w = w_graph * s2
        if use_sketching:
            reweighted = WeightedGraph(graph.n)
            reweighted.add_edges(u, v, reweighted_w)
            lev = approximate_edge_leverage_scores(
                reweighted, leverage_eta, seed=int(rng.integers(0, 2 ** 31))
            )
            return lev.scores
        return reweighted_w * _pair_resistances_from_edges(graph.n, u, v, reweighted_w)

    row_pair, row_norm2 = rows
    if uniform:
        # pair weights are s2[0] * w_graph: resistances of the base graph,
        # rescaled -- and the rescaling cancels against s2 in the score
        if resistance_oracle is not None or use_sketching:
            lev = approximate_edge_leverage_scores(
                graph,
                leverage_eta,
                oracle=resistance_oracle,
                seed=int(rng.integers(0, 2 ** 31)),
            )
            base_resist = lev.scores / w_graph
        else:
            base_resist = _exact_edge_resistances(graph)
        return row_norm2 * base_resist[row_pair]
    pair_w = np.bincount(row_pair, weights=s2 * row_norm2, minlength=w_graph.shape[0])
    if use_sketching:
        reweighted = WeightedGraph(graph.n)
        reweighted.add_edges(u, v, pair_w)
        lev = approximate_edge_leverage_scores(
            reweighted, leverage_eta, seed=int(rng.integers(0, 2 ** 31))
        )
        resist = lev.scores / pair_w
    else:
        resist = _pair_resistances_from_edges(graph.n, u, v, pair_w)
    return s2 * row_norm2 * resist[row_pair]


def _pair_resistances_from_edges(
    n: int, u: np.ndarray, v: np.ndarray, weights: np.ndarray, graph=None
) -> np.ndarray:
    """Effective resistance of every edge of the weighted edge list.

    One sparse grounded factorisation (exact for any component structure),
    reusing ``graph`` when the caller already has one.
    """
    from repro.graphs.graph import WeightedGraph
    from repro.linalg.sparse_backend import GroundedLaplacianSolver

    if graph is None:
        graph = WeightedGraph(n)
        graph.add_edges(u, v, weights)
    return GroundedLaplacianSolver(graph).pair_resistances(u, v)


def _exact_edge_resistances(graph) -> np.ndarray:
    """Exact effective resistance of every edge of ``graph``."""
    u, v, weights = graph.edge_array()
    return _pair_resistances_from_edges(graph.n, u, v, weights, graph=graph)


def _exact_edge_leverage_scores(graph) -> np.ndarray:
    """Exact edge leverage scores ``w_e R(u, v)`` via one grounded factorisation.

    Spielman-Srivastava: the leverage score of edge ``e = (u, v)`` in
    ``W^{1/2} B`` is ``w_e`` times the effective resistance of the pair, so
    one sparse grounded factorisation plus ``m`` triangular solves replaces
    the dense pseudoinverse of the reweighted incidence matrix.
    """
    _, _, weights = graph.edge_array()
    return weights * _exact_edge_resistances(graph)


def initial_weight_iteration_count(n: int, m: int, p_target: float) -> int:
    """The ``O(sqrt(n) (p + 1/p) log(mn))`` homotopy length of Algorithm 8 / Lemma 4.6."""
    n = max(2, int(n))
    m = max(2, int(m))
    return max(1, math.ceil(math.sqrt(n) * (p_target + 1.0 / p_target) * math.log(m * n)))


def compute_initial_weights(
    M: np.ndarray,
    p_target: Optional[float] = None,
    eta: float = 1e-2,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    comm: Optional[CommunicationPrimitives] = None,
    use_sketching: bool = False,
    faithful: bool = False,
) -> LewisWeightReport:
    """``ComputeInitialWeights(p_target, eta)`` (Algorithm 8).

    Computes the regularisation-free Lewis weights of ``M`` at ``p_target``
    starting from the ell_2 weights (= leverage scores).  With
    ``faithful=True`` the homotopy over ``p`` is executed step by step exactly
    as in Algorithm 8 (``O(sqrt(n) log(mn))`` outer steps); the default takes
    the direct route allowed by the global contraction and charges the same
    round budget to the ledger so that complexity experiments stay faithful.
    """
    M = np.asarray(M, dtype=float)
    m, n = M.shape
    p_target = p_target if p_target is not None else lewis_p_parameter(m)
    rng = rng if rng is not None else np.random.default_rng(seed)

    homotopy_steps = initial_weight_iteration_count(n, m, p_target)
    total_leverage_calls = 0
    total_iterations = 0

    if faithful:
        p = 2.0
        c_k = 2.0 * math.log(4 * m)
        w = np.full(m, 1.0 / (2.0 * c_k), dtype=float)
        step = (2.0 - p_target) / homotopy_steps
        for _ in range(homotopy_steps):
            p_new = max(p_target, p - step)
            inner = compute_apx_weights(
                M,
                p_new,
                w0=w,
                eta=max(0.25, eta),
                rng=rng,
                comm=comm,
                use_sketching=use_sketching,
                max_iterations=2,
            )
            w = inner.weights
            total_leverage_calls += inner.leverage_calls
            total_iterations += inner.iterations
            p = p_new
            if p <= p_target:
                break
        final = compute_apx_weights(
            M, p_target, w0=w, eta=eta, rng=rng, comm=comm, use_sketching=use_sketching
        )
    else:
        if comm is not None:
            comm.ledger.charge(
                "initial_weights_homotopy",
                0.0,
                f"direct route; faithful homotopy would take {homotopy_steps} outer steps",
            )
        final = compute_apx_weights(
            M, p_target, w0=None, eta=eta, rng=rng, comm=comm, use_sketching=use_sketching
        )
    final.leverage_calls += total_leverage_calls
    final.iterations += total_iterations
    return final
