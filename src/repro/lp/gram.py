"""SDD Gram-solve machinery for flow LPs (Lemma 5.1) and the serving bridge.

Every Newton system of the flow LP engines is a solve with ``A^T D A`` for a
positive diagonal ``D``.  Lemma 5.1 observes that for the flow formulations
``A`` is (an augmentation of) an edge-vertex incidence matrix, so ``A^T D A``
is a *grounded Laplacian* of an auxiliary graph whose edge weights are sums of
entries of ``D`` -- symmetric, diagonally dominant, and solvable with the
sparse ``splu`` + Chebyshev machinery of Section 3 instead of a dense
``O(n^3)`` factorisation per Newton step.

This module provides three layers on top of that observation:

* :func:`detect_incidence_structure` -- recognise, from ``A`` alone, that every
  row is ``+/- s (e_j - e_k)`` or ``+/- s e_j`` (the fixed-value LP's incidence
  rows and the Section 5 LP's slack rows respectively) and compile the
  row -> vertex-pair mapping into an :class:`IncidenceStructure`.  Single-entry
  rows become edges to a synthetic *ground* vertex; ``A^T D A`` is then exactly
  the ground-grounded Laplacian of the auxiliary graph.
* :class:`GramFactorisation` -- one immutable sparse ``splu`` factorisation of
  ``A^T D A`` at a fixed aggregated weight vector; what the
  :class:`~repro.serve.artifacts.ArtifactCache` stores.
* :class:`GramSolverBridge` -- the ``LPProblem.gram_solver`` plug-in that
  answers each solve through cached factorisations.  Between Newton steps only
  the diagonal ``D`` drifts, so the bridge serves each request by the cheapest
  sufficient strategy: exact reuse of the current factorisation, bridge-local
  Sherman-Morrison rank-1 overlays for a few *big movers* (the reweight-delta
  analogue of the PR-5 repair path -- the cached base factorisation is never
  mutated), preconditioned Chebyshev against the held factorisation while the
  residual drift stays inside a spectral band, and a fresh factorisation
  (cache :meth:`~repro.serve.artifacts.ArtifactCache.get_or_build`, so repeat
  solves on the same instance hit warm artifacts) once the drift leaves it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from repro.linalg.sparse_backend import NumericalHealthError
from repro.solvers.chebyshev import preconditioned_chebyshev

#: multiplicative per-weight drift band served by Chebyshev against the held
#: factorisation; drift beyond it (on more pairs than the rank-1 budget
#: absorbs) refactorises.  The band is deliberately tight: inside it the
#: preconditioned condition number is at most ``DRIFT_BAND**2 ~ 1.1``, so a
#: handful of Chebyshev iterations (one matvec + one triangular solve each)
#: answers exactly, while the big inter-stage moves of an IPM refactorise and
#: land in the artifact cache where repeat solves find them warm.
DRIFT_BAND = 1.05

#: Chebyshev relative-residual target for in-band solves; comfortably below
#: what the IPM's infeasible-start correction absorbs per Newton step.
CHEBYSHEV_RESIDUAL = 1e-12

#: refuse a Sherman-Morrison overlay whose denominator is this close to
#: singular (mirrors the sparse-backend repair tolerance).
OVERLAY_DENOM_TOL = 1e-6

#: columns below this gate keep the dense fallback in
#: :func:`default_gram_solver`: a dense ``solve`` on a tiny Gram matrix beats
#: the per-call sparse assembly + ``splu`` overhead.
SPARSE_GRAM_MIN_COLS = 48


def scale_rows(A, s: np.ndarray):
    """``diag(s) @ A`` for dense or scipy-sparse ``A`` (rows scaled by ``s``)."""
    if sp.issparse(A):
        return (sp.diags(np.asarray(s, dtype=float)) @ A).tocsr()
    return np.asarray(A, dtype=float) * np.asarray(s, dtype=float)[:, None]


@dataclass(frozen=True)
class IncidenceStructure:
    """Compiled row -> vertex-pair mapping of an incidence-structured ``A``.

    The auxiliary graph lives on ``n + 1`` vertices: the ``n`` LP columns plus
    the synthetic ground vertex ``n`` (for the flow LPs, the dropped source
    row).  ``A^T D A`` equals the Laplacian of that graph -- with pair ``P``
    carrying weight ``sum_{rows r of P} scale_r^2 d_r`` -- after deleting the
    ground row and column.  Pairs are stored canonically (``(min, max)``
    endpoint order, lexicographically sorted), so two structures built from
    the same pattern -- whether detected from ``A`` or compiled directly from
    a :class:`~repro.graphs.digraph.FlowNetwork` -- are bit-identical and
    share one :attr:`fingerprint` (and hence one family of cached
    factorisations).
    """

    n: int
    pair_u: np.ndarray  #: (P,) smaller endpoint of each distinct pair
    pair_v: np.ndarray  #: (P,) larger endpoint (== n for ground pairs)
    row_pair: np.ndarray  #: (m,) LP row -> pair index
    row_scale2: Optional[np.ndarray]  #: (m,) squared row magnitudes; None == all 1
    fingerprint: str
    #: COO assembly pattern of the grounded Laplacian (precompiled once)
    _entry_rows: np.ndarray = field(repr=False)
    _entry_cols: np.ndarray = field(repr=False)
    _entry_sign: np.ndarray = field(repr=False)
    _entry_pair: np.ndarray = field(repr=False)

    @property
    def ground(self) -> int:
        """Index of the synthetic ground vertex."""
        return self.n

    @property
    def m(self) -> int:
        """Number of LP rows the structure covers."""
        return int(self.row_pair.shape[0])

    @property
    def n_pairs(self) -> int:
        """Number of distinct vertex pairs (auxiliary-graph edges)."""
        return int(self.pair_u.shape[0])

    @classmethod
    def from_rows(
        cls,
        n: int,
        row_a: np.ndarray,
        row_b: np.ndarray,
        scale: Optional[np.ndarray] = None,
    ) -> Optional["IncidenceStructure"]:
        """Compile per-row endpoint pairs (ground == ``n``) into a structure.

        Returns ``None`` when the auxiliary graph is disconnected -- the
        grounded Laplacian is then singular (``A`` rank-deficient) and the
        caller must keep its generic fallback.
        """
        row_a = np.asarray(row_a, dtype=np.int64)
        row_b = np.asarray(row_b, dtype=np.int64)
        lo = np.minimum(row_a, row_b)
        hi = np.maximum(row_a, row_b)
        codes = lo * (n + 1) + hi
        unique_codes, row_pair = np.unique(codes, return_inverse=True)
        pair_u = (unique_codes // (n + 1)).astype(np.int64)
        pair_v = (unique_codes % (n + 1)).astype(np.int64)

        adjacency = sp.coo_matrix(
            (np.ones(pair_u.shape[0]), (pair_u, pair_v)), shape=(n + 1, n + 1)
        )
        n_components, _ = csgraph.connected_components(adjacency, directed=False)
        if n_components != 1:
            return None

        scale2: Optional[np.ndarray] = None
        if scale is not None:
            scale = np.asarray(scale, dtype=float)
            if not np.all(scale == 1.0):
                scale2 = scale * scale

        # precompile the COO pattern of the grounded Laplacian: pair (a, b)
        # with a, b < n contributes (a,a,+) (b,b,+) (a,b,-) (b,a,-); a ground
        # pair (a, n) contributes only its diagonal (a,a,+)
        interior = pair_v < n
        ia, ib = pair_u[interior], pair_v[interior]
        ipair = np.flatnonzero(interior)
        gpair = np.flatnonzero(~interior)
        ga = pair_u[~interior]
        entry_rows = np.concatenate([ia, ib, ia, ib, ga])
        entry_cols = np.concatenate([ia, ib, ib, ia, ga])
        entry_sign = np.concatenate(
            [
                np.ones(ia.size),
                np.ones(ib.size),
                -np.ones(ia.size),
                -np.ones(ib.size),
                np.ones(ga.size),
            ]
        )
        entry_pair = np.concatenate([ipair, ipair, ipair, ipair, gpair])

        digest = hashlib.sha256()
        digest.update(str(n).encode("ascii"))
        digest.update(pair_u.tobytes())
        digest.update(pair_v.tobytes())
        digest.update(row_pair.astype(np.int64).tobytes())
        if scale2 is not None:
            digest.update(scale2.tobytes())
        return cls(
            n=int(n),
            pair_u=pair_u,
            pair_v=pair_v,
            row_pair=row_pair.astype(np.int64),
            row_scale2=scale2,
            fingerprint=digest.hexdigest(),
            _entry_rows=entry_rows.astype(np.int64),
            _entry_cols=entry_cols.astype(np.int64),
            _entry_sign=entry_sign,
            _entry_pair=entry_pair.astype(np.int64),
        )

    def aggregate(self, d: np.ndarray) -> np.ndarray:
        """Pair weights ``w_P = sum_{rows r of P} scale_r^2 d_r`` from ``D``."""
        d = np.asarray(d, dtype=float)
        if self.row_scale2 is not None:
            d = d * self.row_scale2
        return np.bincount(self.row_pair, weights=d, minlength=self.n_pairs)

    def reduced_matrix(self, w: np.ndarray) -> sp.csr_matrix:
        """The grounded Laplacian ``A^T D A`` at pair weights ``w`` (CSR)."""
        data = self._entry_sign * w[self._entry_pair]
        return sp.csr_matrix(
            (data, (self._entry_rows, self._entry_cols)), shape=(self.n, self.n)
        )

    def pair_indicator(self, pair: int) -> np.ndarray:
        """The reduced vector ``c`` with ``c c^T`` the pair's Laplacian term."""
        c = np.zeros(self.n)
        c[self.pair_u[pair]] = 1.0
        if self.pair_v[pair] < self.n:
            c[self.pair_v[pair]] = -1.0
        return c


def detect_incidence_structure(A) -> Optional[IncidenceStructure]:
    """Recognise an incidence-structured ``A`` (Lemma 5.1) or return ``None``.

    Accepts dense arrays and scipy sparse matrices.  Eligible rows are
    ``s (e_j - e_k)`` (two entries of equal magnitude and opposite sign) or
    ``s e_j`` (one nonzero entry); anything else -- more entries, equal-sign
    pairs, zero rows -- disqualifies the whole matrix, as does a disconnected
    auxiliary graph (rank-deficient ``A``).
    """
    if sp.issparse(A):
        coo = A.tocoo()
        rows, cols, data = coo.row, coo.col, coo.data
        keep = data != 0.0
        rows, cols, data = rows[keep], cols[keep], data[keep]
        m, n = A.shape
    else:
        A = np.asarray(A)
        if A.ndim != 2:
            return None
        m, n = A.shape
        rows, cols = np.nonzero(A)
        data = A[rows, cols]
    if m == 0 or n == 0:
        return None
    counts = np.bincount(rows, minlength=m)
    if counts.size and (counts.max(initial=0) > 2 or counts.min(initial=3) < 1):
        return None

    order = np.lexsort((cols, rows))
    cols = cols[order]
    data = data[order]
    starts = np.zeros(m, dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]

    first_col = cols[starts]
    first_val = data[starts]
    row_a = np.full(m, n, dtype=np.int64)
    row_b = first_col.astype(np.int64)
    scale = np.abs(first_val)
    two = counts == 2
    if two.any():
        second = starts[two] + 1
        if not np.array_equal(first_val[two], -data[second]):
            return None
        row_a[two] = cols[second]
    if np.any(scale <= 0.0):
        return None
    return IncidenceStructure.from_rows(n, row_a, row_b, scale=scale)


def flow_gram_structure(network, formulation: str = "fixed-value") -> IncidenceStructure:
    """Compile the Gram structure of a flow LP directly from the network.

    Produces exactly the structure :func:`detect_incidence_structure` finds on
    the constraint matrix of :func:`~repro.flow.lp_formulation.build_fixed_value_lp`
    (``formulation="fixed-value"``) or
    :func:`~repro.flow.lp_formulation.build_flow_lp` (``"section5"``) -- same
    fingerprint, so gram queries and full flow solves share one family of
    cached factorisations.  LP columns are the non-source vertices in sorted
    order and the ground vertex is the dropped source.
    """
    if formulation not in GRAM_FORMULATIONS:
        raise ValueError(
            f"unknown gram formulation {formulation!r}; use one of {GRAM_FORMULATIONS}"
        )
    columns = [v for v in range(network.n) if v != network.source]
    col_index = {v: i for i, v in enumerate(columns)}
    n = len(columns)
    ground = n

    def col(vertex: int) -> int:
        return col_index.get(vertex, ground)

    row_a: List[int] = []
    row_b: List[int] = []
    for (u, v) in network.edge_keys():
        row_a.append(col(u))
        row_b.append(col(v))
    if formulation == "section5":
        # y and z slack rows are +/- e_i (one per non-source vertex, twice),
        # the F row is -e_t: all edges from an LP column to ground
        for _ in range(2):
            for i in range(n):
                row_a.append(i)
                row_b.append(ground)
        row_a.append(col(network.sink))
        row_b.append(ground)
    structure = IncidenceStructure.from_rows(
        n, np.asarray(row_a, dtype=np.int64), np.asarray(row_b, dtype=np.int64)
    )
    if structure is None:
        raise ValueError(
            "flow network's auxiliary gram graph is disconnected; the LP "
            "constraint matrix is rank-deficient"
        )
    return structure


GRAM_FORMULATIONS = ("fixed-value", "section5")


def weights_digest(w: np.ndarray) -> str:
    """Content digest of an aggregated pair-weight vector (cache identity)."""
    return hashlib.sha256(np.ascontiguousarray(w, dtype=float).tobytes()).hexdigest()


class GramFactorisation:
    """Immutable sparse ``splu`` factorisation of ``A^T D A`` at fixed weights.

    This is the artifact the serving cache stores: it is never mutated after
    construction (bridge-local Sherman-Morrison overlays live in the
    :class:`GramSolverBridge`, not here), so one cached instance can serve any
    number of concurrent bridges.
    """

    def __init__(self, structure: IncidenceStructure, w: np.ndarray):
        self.structure = structure
        self.w = np.array(w, dtype=float)
        reduced = structure.reduced_matrix(self.w).tocsc()
        self._lu = spla.splu(reduced, permc_spec="MMD_AT_PLUS_A")
        self._nnz = int(self._lu.L.nnz + self._lu.U.nnz)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Exact solve against the factorised weights (triangular solves only)."""
        return self._lu.solve(np.asarray(rhs, dtype=float))

    def nbytes(self) -> int:
        """Resident size for cache accounting (LU factors + weights)."""
        return int(12 * self._nnz + 2 * self.structure.n * 4 + self.w.nbytes)


@dataclass
class _Overlay:
    """One bridge-local Sherman-Morrison correction on top of the base LU."""

    u: int
    v: int  #: == structure.n for ground pairs (no second endpoint)
    delta: float
    z: np.ndarray
    denom: float

    def c_dot(self, x: np.ndarray, n: int) -> float:
        value = float(x[self.u])
        if self.v < n:
            value -= float(x[self.v])
        return value


@dataclass
class GramBridgeStats:
    """Per-bridge serving statistics (one bridge = one IPM run)."""

    solves: int = 0
    factorisations: int = 0
    cache_hits: int = 0
    reuse_solves: int = 0
    rank1_updates: int = 0
    chebyshev_solves: int = 0
    chebyshev_iterations: int = 0
    seconds_total: float = 0.0
    seconds_factorise: float = 0.0
    #: per-solve trajectory ``(strategy, seconds)`` -- the bench's
    #: per-iteration gram-solve cost signal
    per_solve: List[Tuple[str, float]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (the per-solve list is aggregated)."""
        seconds = [s for _, s in self.per_solve]
        return {
            "solves": self.solves,
            "factorisations": self.factorisations,
            "cache_hits": self.cache_hits,
            "reuse_solves": self.reuse_solves,
            "rank1_updates": self.rank1_updates,
            "chebyshev_solves": self.chebyshev_solves,
            "chebyshev_iterations": self.chebyshev_iterations,
            "seconds_total": self.seconds_total,
            "seconds_factorise": self.seconds_factorise,
            "per_solve_mean_seconds": float(np.mean(seconds)) if seconds else 0.0,
            "per_solve_max_seconds": float(np.max(seconds)) if seconds else 0.0,
        }


class GramSolverBridge:
    """``LPProblem.gram_solver`` plug-in serving solves from cached artifacts.

    Per solve the bridge aggregates the Newton diagonal ``d`` into auxiliary
    edge weights ``w`` and picks the cheapest sufficient strategy against the
    factorisation it currently holds:

    * ``reuse`` -- ``w`` unchanged: two triangular solves;
    * ``rank1`` -- at most :attr:`rank1_budget` pairs drifted outside the
      spectral band while the rest are unchanged: absorb the big movers with
      bridge-local Sherman-Morrison overlays (the cached base stays
      immutable), then solve exactly;
    * ``chebyshev`` -- the drift stays inside ``[1/DRIFT_BAND, DRIFT_BAND]``
      per pair (after any overlays): preconditioned Chebyshev with the held
      factorisation as ``B``, condition number at most ``DRIFT_BAND**2``,
      stopped at relative residual :attr:`chebyshev_residual`; a run that
      exhausts its iteration budget above that residual falls through to the
      next rung;
    * ``factorise`` -- otherwise: fetch a factorisation at ``w`` through the
      :class:`~repro.serve.artifacts.ArtifactCache` (a repeat solve of the
      same instance replays the same deterministic ``w`` sequence and hits
      every one of these warm -- the cold-vs-warm spread ``BENCH_flow.json``
      records).

    Without a cache the bridge still works (factorisations are simply not
    shared across bridges).
    """

    def __init__(
        self,
        structure: IncidenceStructure,
        cache=None,
        graph_key: str = "",
        version: int = 0,
        chebyshev_residual: float = CHEBYSHEV_RESIDUAL,
    ):
        self.structure = structure
        self.cache = cache
        self.graph_key = graph_key or structure.fingerprint
        self.version = int(version)
        self.rank1_budget = max(4, math.isqrt(max(1, structure.n)))
        self.chebyshev_residual = float(chebyshev_residual)
        self.stats = GramBridgeStats()
        self._fact: Optional[GramFactorisation] = None
        self._overlays: List[_Overlay] = []
        self._w_state: Optional[np.ndarray] = None

    # -- gram_solver protocol --------------------------------------------------

    def __call__(self, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(A^T diag(d) A) y = rhs``."""
        start = time.perf_counter()
        w = self.structure.aggregate(d)
        if np.any(w <= 0.0):
            raise ValueError("gram diagonal must aggregate to positive pair weights")
        strategy, y = self._solve(w, np.asarray(rhs, dtype=float))
        if not np.all(np.isfinite(y)):
            # numerical-health guard: an IPM fed a NaN Newton direction
            # diverges silently many steps later -- refuse loudly here instead
            raise NumericalHealthError(
                f"gram solve (strategy {strategy!r}) produced non-finite output"
            )
        elapsed = time.perf_counter() - start
        self.stats.solves += 1
        self.stats.seconds_total += elapsed
        self.stats.per_solve.append((strategy, elapsed))
        return y

    # -- internals -------------------------------------------------------------

    def _solve(self, w: np.ndarray, rhs: np.ndarray) -> Tuple[str, np.ndarray]:
        if self._fact is None:
            self._refactorise(w)
            return "factorise", self._overlay_solve(rhs)
        assert self._w_state is not None
        if np.array_equal(w, self._w_state):
            self.stats.reuse_solves += 1
            return "reuse", self._overlay_solve(rhs)

        ratios = w / self._w_state
        out = (ratios > DRIFT_BAND) | (ratios < 1.0 / DRIFT_BAND)
        n_out = int(np.count_nonzero(out))
        if n_out and (
            n_out > self.rank1_budget
            or len(self._overlays) + n_out > self.rank1_budget
        ):
            self._refactorise(w)
            return "factorise", self._overlay_solve(rhs)
        if n_out and not self._apply_overlays(np.flatnonzero(out), w):
            self._refactorise(w)
            return "factorise", self._overlay_solve(rhs)

        in_band = ~out
        r_hi = 1.0
        r_lo = 1.0
        if in_band.any():
            r_hi = max(r_hi, float(ratios[in_band].max()))
            r_lo = min(r_lo, float(ratios[in_band].min()))
        if r_hi == r_lo == 1.0:
            # the overlays absorbed every change exactly
            return "rank1", self._overlay_solve(rhs)
        kappa = r_hi / r_lo
        # contract A <= B <= kappa A with A = L(w), B = r_hi * L(w_state):
        # every pair weight satisfies r_lo w_state <= w <= r_hi w_state
        reduced = self.structure.reduced_matrix(w)
        y, report = preconditioned_chebyshev(
            lambda x: reduced @ x,
            lambda r: self._overlay_solve(r) / r_hi,
            rhs,
            kappa=kappa,
            eps=self.chebyshev_residual,
            residual_stop=self.chebyshev_residual,
        )
        self.stats.chebyshev_iterations += report.iterations
        if report.final_residual <= self.chebyshev_residual:
            self.stats.chebyshev_solves += 1
            return "chebyshev", y
        # the iteration budget bounds the A-norm error, not the residual this
        # rung promises: out of budget above the target, answer exactly
        self._refactorise(w)
        return "factorise", self._overlay_solve(rhs)

    def _refactorise(self, w: np.ndarray) -> None:
        start = time.perf_counter()
        if self.cache is None:
            fact = GramFactorisation(self.structure, w)
            hit = False
        else:
            fact, hit = self.cache.get_or_build(
                self.graph_key,
                self.version,
                "gram",
                (self.structure.fingerprint, weights_digest(w)),
                lambda: GramFactorisation(self.structure, w),
            )
        self.stats.factorisations += 1
        if hit:
            self.stats.cache_hits += 1
        self.stats.seconds_factorise += time.perf_counter() - start
        self._fact = fact
        self._overlays = []
        self._w_state = fact.w.copy()

    def _overlay_solve(self, rhs: np.ndarray) -> np.ndarray:
        assert self._fact is not None
        x = self._fact.solve(rhs)
        n = self.structure.n
        for overlay in self._overlays:
            coeff = overlay.delta * overlay.c_dot(x, n) / overlay.denom
            if coeff != 0.0:
                x = x - coeff * overlay.z
        return x

    def _apply_overlays(self, pairs: np.ndarray, w: np.ndarray) -> bool:
        """Absorb the out-of-band pairs with rank-1 overlays; False on refusal."""
        assert self._w_state is not None
        n = self.structure.n
        applied: List[_Overlay] = []
        for pair in pairs:
            delta = float(w[pair] - self._w_state[pair])
            c = self.structure.pair_indicator(int(pair))
            z = self._overlay_solve(c)
            denom = 1.0 + delta * float(c @ z)
            if denom <= OVERLAY_DENOM_TOL:
                # roll back this batch: the solve must refactorise instead
                del self._overlays[len(self._overlays) - len(applied):]
                return False
            overlay = _Overlay(
                u=int(self.structure.pair_u[pair]),
                v=int(self.structure.pair_v[pair]),
                delta=delta,
                z=z,
                denom=denom,
            )
            self._overlays.append(overlay)
            applied.append(overlay)
            self._w_state[pair] = w[pair]
            self.stats.rank1_updates += 1
        return True


class _IncidenceGramSolver:
    """Per-call sparse fallback for incidence-structured ``A`` (no cache).

    The structural half of the ``solve_gram`` satellite fix: when ``A`` is
    incidence-structured and wide enough, each default Gram solve assembles
    the grounded Laplacian in CSR and factorises it with ``splu`` --
    ``O(nnz)`` assembly plus a sparse factorisation instead of the dense
    ``O(m n^2)`` Gram build and ``O(n^3)`` solve.
    """

    def __init__(self, structure: IncidenceStructure):
        self.structure = structure

    def __call__(self, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        w = self.structure.aggregate(d)
        reduced = self.structure.reduced_matrix(w).tocsc()
        return spla.splu(reduced, permc_spec="MMD_AT_PLUS_A").solve(
            np.asarray(rhs, dtype=float)
        )


class _DenseGramSolver:
    """Dense fallback with the rebuild waste removed (satellite fix).

    The Gram matrix itself must be recomputed (``d`` changes every Newton
    step), but the old fallback also allocated a fresh ``n x n`` identity and
    a second ``n x n`` temporary per call just to add the ridge; the ridge is
    now added in place on the Gram diagonal.
    """

    def __init__(self, A):
        self.A = sp.csr_matrix(A) if sp.issparse(A) else np.asarray(A, dtype=float)

    def __call__(self, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        A = self.A
        if sp.issparse(A):
            gram = np.asarray((A.T @ sp.diags(np.asarray(d, dtype=float)) @ A).todense())
        else:
            gram = A.T @ (d[:, None] * A)
        n = gram.shape[0]
        ridge = 1e-12 * max(1.0, float(np.trace(gram)) / max(1, n))
        gram.flat[:: n + 1] += ridge
        return np.linalg.solve(gram, np.asarray(rhs, dtype=float))


def default_gram_solver(A):
    """Build the default ``solve_gram`` backend for a constraint matrix ``A``.

    Incidence-structured matrices (Lemma 5.1) with enough columns route
    through the sparse grounded-Laplacian path; everything else keeps the
    dense solve, minus the per-call ridge-matrix allocation.  Called once per
    :class:`~repro.lp.problem.LPProblem` and cached there.
    """
    structure = detect_incidence_structure(A)
    if structure is not None and (
        structure.n >= SPARSE_GRAM_MIN_COLS or sp.issparse(A)
    ):
        return _IncidenceGramSolver(structure)
    return _DenseGramSolver(A)
