"""Johnson-Lindenstrauss transforms (Section 4.1, Theorem 4.4).

Two constructions are provided:

* :func:`achlioptas_matrix` -- Achlioptas' database-friendly projection whose
  entries are independent signs scaled by ``1/sqrt(k)``.  It needs one fresh
  coin per entry, i.e. ``Theta(k m)`` independent random bits, which is why the
  paper cannot use it in a broadcast model (the vertex owning an edge cannot
  tell its neighbour the outcome).
* :func:`kane_nelson_matrix` -- a sparse JL transform in the spirit of Kane and
  Nelson driven by ``O(log(1/delta) log m)`` shared random bits (Theorem 4.4).
  A leader samples the seed, broadcasts it, and every vertex expands it into
  the same ``k x m`` matrix locally using a pseudorandom generator keyed by the
  seed -- exactly the usage in ``ComputeLeverageScores`` (Algorithm 6).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp


def jl_sketch_dimension(m: int, eta: float, delta: Optional[float] = None) -> int:
    """Number of sketch rows ``k = Theta(eta^{-2} log(1/delta))`` (delta ~ 1/poly(m))."""
    if eta <= 0:
        raise ValueError(f"distortion eta must be positive, got {eta}")
    m = max(2, int(m))
    delta = delta if delta is not None else 1.0 / (m ** 2)
    return max(1, math.ceil(4.0 * math.log(1.0 / delta) / (eta * eta)))


def resistance_sketch_dimension(m: int, eta: float, delta: Optional[float] = None) -> int:
    """Sketch rows needed so *squared* sketched norms carry relative error ``eta``.

    Effective resistances (and leverage scores) are squared Euclidean norms of
    sketched vectors, so the quantity that must concentrate is ``||Qx||^2``
    itself -- no detour through the norm guarantee of
    :func:`jl_sketch_dimension` and its conservative constant.  The chi-square
    Chernoff bound gives, per vector,

        ``P[ ||Qx||^2 > (1 + eta) ||x||^2 ] <= exp(-k (eta - log(1+eta)) / 2)``

    with the (binding) upper tail; solving for failure probability ``delta``
    (default ``1/m^2``, union-bounded over poly(m) queried pairs) yields

        ``k = ceil( 2 log(2/delta) / (eta - log(1+eta)) )``.

    For small ``eta`` this is ``~ 4 log(2/delta) / eta^2``, the familiar
    ``Theta(eta^{-2} log m)`` of Theorem 4.4 with a practical constant.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"distortion eta must lie in (0, 1), got {eta}")
    m = max(2, int(m))
    delta = delta if delta is not None else 1.0 / (m ** 2)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"failure probability delta must lie in (0, 1), got {delta}")
    gap = eta - math.log1p(eta)
    return max(1, math.ceil(2.0 * math.log(2.0 / delta) / gap))


def resistance_sketch_eta(k: int, m: int, delta: Optional[float] = None) -> Optional[float]:
    """Tightest accuracy bound a ``k``-row sketch honours at ambient dimension ``m``.

    The inverse of :func:`resistance_sketch_dimension` in ``eta``: the
    smallest ``eta`` in ``(0, 1)`` with
    ``resistance_sketch_dimension(m, eta, delta) <= k``, or ``None`` when
    even ``eta -> 1`` needs more than ``k`` rows.  The serving layer uses
    this to *widen* the accuracy bound of a sketched oracle that has been
    repaired under edge insertion: the repaired embedding is a genuine
    Kane-Nelson sketch of the mutated graph with the same ``k`` rows but a
    larger ambient dimension ``m + appended``, so the bound it still honours
    is exactly this function at the new ambient dimension (the growth is
    logarithmic -- ``delta`` defaults to ``1/m^2`` -- hence tiny for short
    deltas).
    """
    if k < 1:
        raise ValueError(f"sketch dimension k must be positive, got {k}")
    hi = 1.0 - 1e-12
    if resistance_sketch_dimension(m, hi, delta) > k:
        return None
    lo = 1e-12
    if resistance_sketch_dimension(m, lo, delta) <= k:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resistance_sketch_dimension(m, mid, delta) <= k:
            hi = mid
        else:
            lo = mid
    return hi


def achlioptas_matrix(
    k: int, m: int, rng: Optional[np.random.Generator] = None, seed: Optional[int] = None
) -> np.ndarray:
    """Achlioptas' random sign projection ``Q in R^{k x m}`` with ``Q_ij = +/- 1/sqrt(k)``."""
    if k < 1 or m < 1:
        raise ValueError(f"matrix dimensions must be positive, got k={k}, m={m}")
    rng = rng if rng is not None else np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(k, m)) * 2 - 1
    return signs / math.sqrt(k)


def kane_nelson_random_bits(m: int, delta: Optional[float] = None) -> int:
    """Seed length ``O(log(1/delta) log m)`` of Theorem 4.4."""
    m = max(2, int(m))
    delta = delta if delta is not None else 1.0 / (m ** 2)
    return max(1, math.ceil(math.log2(1.0 / delta) * math.log2(m)))


def kane_nelson_matrix(
    k: int,
    m: int,
    seed_bits: int,
    column_sparsity: Optional[int] = None,
) -> np.ndarray:
    """Sparse JL matrix ``Q in R^{k x m}`` expanded deterministically from ``seed_bits``.

    Every column receives ``s`` nonzero entries of value ``+/- 1/sqrt(s)`` in
    rows chosen pseudorandomly from the shared seed; this is the
    Kane-Nelson sparse embedding shape.  Because the expansion is a
    deterministic function of ``seed_bits``, every vertex of the Broadcast
    Congested Clique reconstructs the *same* matrix after the leader has
    broadcast the seed -- the property the paper needs.

    Parameters
    ----------
    k:
        Number of sketch rows.
    m:
        Ambient dimension (number of matrix rows being sketched, i.e. edges).
    seed_bits:
        The shared random seed (an integer whose bit-length is
        ``O(log(1/delta) log m)``; see :func:`kane_nelson_random_bits`).
    column_sparsity:
        Number of nonzeros per column ``s``; defaults to ``ceil(sqrt(k))``.
    """
    if k < 1 or m < 1:
        raise ValueError(f"matrix dimensions must be positive, got k={k}, m={m}")
    s = column_sparsity if column_sparsity is not None else max(1, math.ceil(math.sqrt(k)))
    s = min(s, k)
    # The seed keys a PRG; all vertices run the same expansion.
    prg = np.random.default_rng(int(seed_bits) & ((1 << 63) - 1))
    Q = np.zeros((k, m))
    scale = 1.0 / math.sqrt(s)
    for column in range(m):
        rows = prg.choice(k, size=s, replace=False)
        signs = prg.integers(0, 2, size=s) * 2 - 1
        Q[rows, column] = signs * scale
    return Q


def _floyd_distinct_rows(
    prg: np.random.Generator, m: int, k: int, s: int
) -> np.ndarray:
    """``s`` distinct rows in ``[0, k)`` for each of ``m`` columns (vectorised).

    Floyd's sampling algorithm run column-parallel: iteration ``t`` draws one
    row uniformly from ``[0, k - s + t]``; a column that already holds the draw
    takes ``k - s + t`` itself, which no earlier iteration can have produced.
    Each column ends with a uniform ``s``-subset after ``s`` bulk draws -- no
    per-column Python loop, no ``(m, k)`` scratch matrix.
    """
    base = k - s
    chosen = np.empty((m, s), dtype=np.int64)
    for t in range(s):
        draw = prg.integers(0, base + t + 1, size=m)
        if t:
            duplicate = (chosen[:, :t] == draw[:, None]).any(axis=1)
            draw = np.where(duplicate, base + t, draw)
        chosen[:, t] = draw
    return chosen


def kane_nelson_sketch(
    k: int,
    m: int,
    seed_bits: int,
    column_sparsity: Optional[int] = None,
) -> sp.csr_matrix:
    """Sparse-format Kane-Nelson transform for large ambient dimensions.

    Same matrix shape contract as :func:`kane_nelson_matrix` -- ``s`` distinct
    nonzero rows per column with values ``+/- 1/sqrt(s)``, expanded
    deterministically from the shared ``seed_bits`` -- but materialised as a
    ``scipy.sparse`` CSR matrix by batched draws instead of a dense ``k x m``
    array filled by an ``m``-iteration Python loop.  At ``m ~ 10^5`` edges the
    dense expansion costs hundreds of megabytes and seconds of loop time; this
    construction is ``O(m s)`` memory and a handful of vectorised draws, which
    is what the sketched resistance oracle builds its sketched incidence from.

    The two constructions draw from the same distribution but consume the PRG
    differently, so for a fixed seed they produce different (each internally
    deterministic) matrices.
    """
    if k < 1 or m < 1:
        raise ValueError(f"matrix dimensions must be positive, got k={k}, m={m}")
    s = column_sparsity if column_sparsity is not None else max(1, math.ceil(math.sqrt(k)))
    s = min(s, k)
    prg = np.random.default_rng(int(seed_bits) & ((1 << 63) - 1))
    rows = _floyd_distinct_rows(prg, m, k, s)
    signs = prg.integers(0, 2, size=(m, s)) * 2 - 1
    data = signs.ravel() / math.sqrt(s)
    cols = np.repeat(np.arange(m, dtype=np.int64), s)
    return sp.coo_matrix((data, (rows.ravel(), cols)), shape=(k, m)).tocsr()


def kane_nelson_column(
    k: int,
    seed_bits: int,
    column_index: int,
    column_sparsity: Optional[int] = None,
) -> np.ndarray:
    """One dense Kane-Nelson column for an *appended* ambient coordinate.

    Same per-column distribution as :func:`kane_nelson_sketch` /
    :func:`kane_nelson_matrix` -- ``s`` distinct rows (default
    ``ceil(sqrt(k))``) with values ``+/- 1/sqrt(s)`` -- expanded
    deterministically from ``(seed_bits, column_index)``.  This is the
    single owner of the column shape for repairs: the sketched resistance
    oracle appends incidence rows under edge insertion by drawing the new
    sketch column here, so the built and repaired-in columns can never
    drift apart if the distribution is ever tuned.  The PRG stream is keyed
    by the column index, so the draw is independent of the built matrix and
    of other appended columns.
    """
    if k < 1:
        raise ValueError(f"sketch dimension k must be positive, got {k}")
    s = column_sparsity if column_sparsity is not None else max(1, math.ceil(math.sqrt(k)))
    s = min(s, k)
    prg = np.random.default_rng([int(seed_bits) & ((1 << 63) - 1), int(column_index)])
    rows = prg.choice(k, size=s, replace=False)
    signs = prg.integers(0, 2, size=s) * 2 - 1
    column = np.zeros(k)
    column[rows] = signs / math.sqrt(s)
    return column


def sample_kane_nelson(
    m: int,
    eta: float,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    delta: Optional[float] = None,
) -> Tuple[np.ndarray, int, int]:
    """Sample a Kane-Nelson sketch: returns ``(Q, k, seed_bits)``.

    The leader's coin flips are modelled by drawing ``seed_bits`` uniformly;
    everything downstream of the seed is deterministic.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    k = jl_sketch_dimension(m, eta, delta)
    bits = kane_nelson_random_bits(m, delta)
    seed_value = int(rng.integers(0, 2 ** min(62, bits)))
    return kane_nelson_matrix(k, m, seed_value), k, seed_value


def sketch_preserves_norm(Q: np.ndarray, x: np.ndarray, eta: float) -> bool:
    """Whether ``(1-eta)||x|| <= ||Qx|| <= (1+eta)||x||`` for this particular ``x``."""
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(x))
    sketched = float(np.linalg.norm(Q @ x))
    if norm == 0.0:
        return sketched == 0.0
    return (1.0 - eta) * norm <= sketched <= (1.0 + eta) * norm
