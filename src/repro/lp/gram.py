"""SDD Gram-solve machinery for flow LPs (Lemma 5.1) and the serving bridge.

Every Newton system of the flow LP engines is a solve with ``A^T D A`` for a
positive diagonal ``D``.  Lemma 5.1 observes that for the flow formulations
``A`` is (an augmentation of) an edge-vertex incidence matrix, so ``A^T D A``
is a *grounded Laplacian* of an auxiliary graph whose edge weights are sums of
entries of ``D`` -- symmetric, diagonally dominant, and solvable with one
sparse ``splu`` instead of a dense ``O(n^3)`` factorisation per Newton step.
Its sparsity pattern is the network and never changes -- only ``D`` does --
so the work splits into a symbolic half done once per network and a numeric
half done per Newton step:

* :class:`IncidenceStructure` (the symbolic half) -- compiled by
  :func:`detect_incidence_structure`, which recognises from ``A`` alone that
  every row is ``+/- s (e_j - e_k)`` or ``+/- s e_j`` (the fixed-value LP's
  incidence rows and the Section 5 LP's slack rows respectively), or by
  :func:`flow_gram_structure` straight from the network (the fixed-value
  LP's structure, which the serving tier caches).  Single-entry rows
  become edges to a synthetic *ground* vertex; ``A^T D A`` is then exactly
  the ground-grounded Laplacian of the auxiliary graph.  Compiling fixes the
  row -> vertex-pair mapping, a fill-reducing symmetric ordering and the CSC
  pattern of the reordered matrix.
* :class:`GramFactorisation` (the numeric half) -- one immutable sparse
  ``splu`` factorisation of ``A^T D A`` at a fixed aggregated weight vector:
  one scatter of the weights into the precompiled pattern and one
  factorisation with no ordering step.
* :class:`GramSolverBridge` -- the one way an incidence-structured ``A^T D A``
  is solved, on the direct path (:func:`default_gram_solver`) and on the
  served path (the planner hands it the cached structure) alike.  It holds
  the single factorisation it last took, and each solve has one of two
  outcomes: ``reuse`` -- that factorisation is at exactly these aggregated
  weights -- or ``factorise`` -- one at these weights is built and replaces
  it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from repro.linalg.sparse_backend import NumericalHealthError


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
    share one :attr:`fingerprint`.
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
    #: symbolic half of every factorisation (precompiled once): a fill-reducing
    #: symmetric ordering (``_order[i]`` is the position of LP column ``i``,
    #: ``_order_inv`` its inverse), the CSC pattern of the reordered matrix,
    #: and the slot of its ``data`` each COO entry above adds into
    _order: np.ndarray = field(repr=False)
    _order_inv: np.ndarray = field(repr=False)
    _csc_indices: np.ndarray = field(repr=False)
    _csc_indptr: np.ndarray = field(repr=False)
    _entry_slot: np.ndarray = field(repr=False)

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

        # the pattern never changes, so order it once: keep the candidate with
        # the least fill on the unit-weight matrix (ties to the first)
        unit = sp.csc_matrix((entry_sign, (entry_rows, entry_cols)), shape=(n, n))
        trials = [spla.splu(unit, permc_spec=spec) for spec in ORDERING_CANDIDATES]
        order = min(trials, key=lambda lu: lu.nnz).perm_c.astype(np.int64)
        # CSC pattern of the reordered matrix: slots sorted by (column, row)
        codes = order[entry_cols] * n + order[entry_rows]
        slot_codes, entry_slot = np.unique(codes, return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(slot_codes // n, minlength=n), out=indptr[1:])

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
            _order=order,
            _order_inv=np.argsort(order),
            _csc_indices=(slot_codes % n).astype(np.intc),
            _csc_indptr=indptr,
            _entry_slot=entry_slot.astype(np.int64),
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


def flow_gram_structure(network) -> IncidenceStructure:
    """Compile the Gram structure of the flow LP directly from the network.

    Produces exactly the structure :func:`detect_incidence_structure` finds on
    the constraint matrix of
    :func:`~repro.flow.lp_formulation.build_fixed_value_lp` -- same
    fingerprint -- without building the LP, so the serving tier can cache it
    per network.  LP columns are the non-source vertices in sorted order and
    the ground vertex is the dropped source.
    """
    columns = [v for v in range(network.n) if v != network.source]
    col_index = {v: i for i, v in enumerate(columns)}
    n = len(columns)
    rows = np.array(
        [(col_index.get(u, n), col_index.get(v, n)) for (u, v) in network.edge_keys()],
        dtype=np.int64,
    ).reshape(-1, 2)
    structure = IncidenceStructure.from_rows(n, rows[:, 0], rows[:, 1])
    if structure is None:
        raise ValueError(
            "flow network's auxiliary gram graph is disconnected; the LP "
            "constraint matrix is rank-deficient"
        )
    return structure


#: column orderings tried once per compiled structure
ORDERING_CANDIDATES = ("NATURAL", "MMD_AT_PLUS_A", "COLAMD")


class GramFactorisation:
    """Immutable sparse ``splu`` factorisation of ``A^T D A`` at fixed weights.

    Only numeric work happens here: the weights are scattered into the CSC
    pattern the structure compiled, in the ordering it fixed, and ``splu`` is
    told to keep that ordering.  A :class:`GramSolverBridge` holds one at a
    time, for as long as the Newton weights stay put.
    """

    def __init__(self, structure: IncidenceStructure, w: np.ndarray):
        self.structure = structure
        self.w = np.array(w, dtype=float)
        data = np.bincount(
            structure._entry_slot,
            weights=structure._entry_sign * self.w[structure._entry_pair],
            minlength=structure._csc_indices.size,
        )
        reordered = sp.csc_matrix(
            (data, structure._csc_indices, structure._csc_indptr),
            shape=(structure.n, structure.n),
        )
        self._lu = spla.splu(reordered, permc_spec="NATURAL")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Exact solve against the factorised weights (triangular solves only)."""
        structure = self.structure
        rhs = np.asarray(rhs, dtype=float)
        return self._lu.solve(rhs[structure._order_inv])[structure._order]


@dataclass
class GramBridgeStats:
    """Per-bridge serving statistics (one bridge = one IPM run)."""

    solves: int = 0
    factorisations: int = 0
    reuse_solves: int = 0
    seconds_total: float = 0.0
    seconds_factorise: float = 0.0
    #: per-solve trajectory ``(outcome, seconds)``
    per_solve: List[Tuple[str, float]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (without the per-solve trajectory)."""
        return {
            "solves": self.solves,
            "factorisations": self.factorisations,
            "reuse_solves": self.reuse_solves,
            # constant: benchmarks/suite/workloads.py still reads these keys
            "cache_hits": 0,
            "rank1_updates": 0,
            "chebyshev_solves": 0,
            "seconds_total": self.seconds_total,
            "seconds_factorise": self.seconds_factorise,
        }


class GramSolverBridge:
    """The ``LPProblem`` Gram solver for incidence-structured ``A``.

    Per solve the bridge aggregates the Newton diagonal ``d`` into auxiliary
    edge weights ``w`` and answers exactly, with one of two outcomes:

    * ``reuse`` -- the factorisation it holds is at exactly ``w``: two
      triangular solves;
    * ``factorise`` -- otherwise: a :class:`GramFactorisation` at ``w``, which
      replaces the one it held.

    Nothing cheaper sits in between because an IPM moves every weight every
    Newton step: approximate reuse of a drifted factorisation was measured to
    answer 15 of 667 solves on the suite's ``flow`` instance
    (``docs/serving.md``), and a cache of past factorisations only ever hit
    on an exact replay of the same run (``docs/benchmarks.md``).
    """

    def __init__(self, structure: IncidenceStructure):
        self.structure = structure
        self.stats = GramBridgeStats()
        self._fact: Optional[GramFactorisation] = None

    def __call__(self, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(A^T diag(d) A) y = rhs``."""
        start = time.perf_counter()
        w = self.structure.aggregate(d)
        if np.any(w <= 0.0):
            raise ValueError("gram diagonal must aggregate to positive pair weights")
        if self._fact is not None and np.array_equal(w, self._fact.w):
            strategy = "reuse"
            self.stats.reuse_solves += 1
        else:
            strategy = "factorise"
            built = time.perf_counter()
            self._fact = GramFactorisation(self.structure, w)
            self.stats.factorisations += 1
            self.stats.seconds_factorise += time.perf_counter() - built
        y = self._fact.solve(rhs)
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


class _DenseGramSolver:
    """Dense solve for a generic (not incidence-structured) ``A``.

    The Gram matrix is recomputed every call (``d`` changes every Newton
    step); a tiny ridge, added in place on its diagonal, keeps nearly singular
    Gram matrices solvable.
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

    Every incidence-structured matrix (Lemma 5.1), dense or sparse, at any
    size, gets a :class:`GramSolverBridge` -- the same object the serving path
    plugs in; generic matrices get the dense solve.
    Called once per :class:`~repro.lp.problem.LPProblem` and cached there.
    """
    structure = detect_incidence_structure(A)
    if structure is not None:
        return GramSolverBridge(structure)
    return _DenseGramSolver(A)
