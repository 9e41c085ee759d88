"""Sketched effective-resistance oracle (Spielman-Srivastava via Theorem 4.4).

The exact :class:`~repro.linalg.sparse_backend.ResistanceOracle` answers pair
queries in O(1) but stores the full ``n x n`` grounded inverse, which gates it
at ``RESISTANCE_ORACLE_LIMIT`` vertices; above the gate the serving layer fell
back to per-batch ``splu`` triangular solves that barely amortise.  This
module is the middle regime the paper's own leverage-score machinery
(``ComputeLeverageScores``, Algorithm 6) implies: effective resistance is a
squared Euclidean distance,

    ``R(u, v) = || W^{1/2} B L^+ (e_u - e_v) ||^2``,

so a Johnson-Lindenstrauss sketch ``Q`` with ``k = O(eta^{-2} log m)`` rows
(Theorem 4.4, the Kane-Nelson transform of :mod:`repro.linalg.jl`) compresses
the ``m``-dimensional embedding to ``k`` dimensions while preserving every
pair distance to relative error ``eta`` with high probability:

    ``R(u, v) ~= || E[u] - E[v] ||^2``,   ``E = (Q W^{1/2} B) L^+``.

Building ``E`` costs ``k`` *blocked* grounded solves against the sketched
incidence (one ``splu`` factorisation shared with the rest of the serving
layer, right-hand sides in blocks of
:func:`~repro.linalg.sparse_backend.block_columns` columns, so the build's
float64 transients stay near :data:`~repro.linalg.sparse_backend.BLOCK_BYTES`
per copy whatever ``k`` is), after which the oracle stores ``n x k`` floats
-- ``O(n log m / eta^2)`` memory instead of ``O(n^2)`` -- and answers a batch
of pair queries with one vectorised einsum.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np
import scipy.sparse as sp

import math

from repro.linalg.jl import (
    kane_nelson_column,
    kane_nelson_random_bits,
    kane_nelson_sketch,
    resistance_sketch_dimension,
    resistance_sketch_eta,
)
from repro.linalg.sparse_backend import (
    GroundedLaplacianSolver,
    apply_pair_semantics,
    block_columns,
    check_finite,
    incidence_csr,
    validate_pair_indices,
)

if TYPE_CHECKING:  # annotation-only: avoid importing the graph module at runtime
    from repro.graphs.graph import WeightedGraph

#: Storage dtype of a sketched ``n x k`` embedding.  The JL distortion
#: (``eta >= 0.01``) dwarfs single-precision rounding, and float32 halves the
#: cache weight of large-n embeddings (grid 200x200 at eta=0.5: 69 MiB).
SKETCH_DTYPE = np.float32


class SketchedResistanceOracle:
    """JL-compressed effective-resistance oracle with accuracy bound ``eta``.

    Answers arbitrary pair queries to relative error ``eta`` (with high
    probability over the sketch seed) in O(k) per pair; bulk queries are one
    vectorised einsum over the ``n x k`` embedding.  Cross-component pairs
    report ``inf`` and ``u == v`` pairs ``0``, matching the exact oracles.

    When the sketch dimension ``k`` would reach the ambient dimension ``m``,
    sketching gains nothing and the identity sketch is used instead -- the
    oracle is then *exact* (the embedding is the full ``W^{1/2} B L^+``).

    Parameters
    ----------
    graph:
        The weighted graph to serve.
    eta:
        Relative accuracy bound in ``(0, 1)``.
    seed:
        Models the leader's coin flips for the shared Kane-Nelson seed; the
        expansion downstream of the seed is deterministic (Theorem 4.4).
    grounded:
        Optional pre-built :class:`GroundedLaplacianSolver` to reuse (the
        serving layer caches one per graph); built on demand otherwise.
    k_override:
        Explicit sketch dimension (experiment knob; bypasses the per-pair
        failure probability ``1/m^2`` the dimension is sized for).
    """

    def __init__(
        self,
        graph: "WeightedGraph",
        eta: float,
        seed: Optional[int] = 0,
        grounded: Optional[GroundedLaplacianSolver] = None,
        k_override: Optional[int] = None,
    ):
        if not (0.0 < eta < 1.0):
            raise ValueError(f"distortion eta must lie in (0, 1), got {eta}")
        self.n = graph.n
        self.eta = float(eta)
        m = graph.m
        if k_override is not None:
            if k_override < 1:
                raise ValueError(f"k_override must be >= 1, got {k_override}")
            k = int(k_override)
        else:
            k = resistance_sketch_dimension(m, eta)
        self.exact = bool(m == 0 or k >= m)
        self.k = m if self.exact else k
        #: ambient dimension currently sketched: the built edge count plus one
        #: per repaired-in insertion (the accuracy bound widens with it)
        self._ambient = m
        self._built_m = m
        self.appended = 0
        self.reweighted = 0
        self.removed = 0
        # Per-edge sketch-column identity: a built edge owns the column at its
        # position in canonical (sorted) edge order, stored below as its rows
        # and signs; an appended edge owns the fresh column append_edge drew
        # for it from (seed_bits, ambient index).  This is what turns a
        # reweight/removal into a rank-1 repair (subtract the old column
        # contribution, add the new) instead of a k-solve rebuild.  Kept as
        # one int64 key array plus a retirement mask (8+1 bytes/edge) rather
        # than a dict (~100x that).
        u_arr, v_arr, _ = graph.edge_array()
        self._built_keys = u_arr.astype(np.int64) * self.n + v_arr.astype(np.int64)
        self._built_retired = np.zeros(m, dtype=bool)
        self._appended_cols = {}
        self._column_rows: Optional[np.ndarray] = None
        self._column_signs: Optional[np.ndarray] = None
        # the identity sketch promises *exact* answers, and a tight eta
        # (below float32 rounding) can only reach that branch: store it in
        # full precision so the promise holds
        dtype = np.float64 if self.exact else SKETCH_DTYPE
        self.random_bits = kane_nelson_random_bits(m)
        rng = np.random.default_rng(seed)
        self.seed_bits = int(rng.integers(0, 2 ** min(62, self.random_bits)))

        solver = grounded if grounded is not None else GroundedLaplacianSolver(graph)
        self._labels = solver.component_labels().copy()
        if m == 0:
            self._embedding = np.zeros((self.n, 0), dtype=dtype)
            return
        B, w = incidence_csr(graph)
        sqrt_w = sp.diags(np.sqrt(w))
        if self.exact:
            # identity sketch: the embedding is the full W^{1/2} B L^+ and
            # every answer is exact (small graphs, or eta so tight that
            # sketching past the ambient dimension would gain nothing)
            sketched_incidence = (sqrt_w @ B).tocsr()
        else:
            Q = kane_nelson_sketch(self.k, m, self.seed_bits)
            sketched_incidence = (Q @ sqrt_w @ B).tocsr()
            # every built column, kept compact (rows in the smallest unsigned
            # type holding k - 1, int8 signs) so repair_edge reads a built
            # edge's column in O(s) instead of replaying the O(m s) draws
            Q = Q.tocsc()
            s = int(Q.indptr[1])
            self._column_rows = Q.indices.reshape(m, s).astype(np.min_scalar_type(self.k - 1))
            self._column_signs = np.sign(Q.data).reshape(m, s).astype(np.int8)
            del Q  # not held through the embedding solves, the build's peak
        # E^T = L^+ S^T, built by blocked grounded solves: each column of S^T
        # is a signed combination of edge indicator differences, hence
        # consistent per component as solve_many requires; the per-component
        # re-centring it applies cancels in every pair difference.
        embedding = np.empty((self.n, self.k), dtype=dtype)
        step = block_columns(self.n)
        for start in range(0, self.k, step):
            stop = min(self.k, start + step)
            block = sketched_incidence[start:stop].toarray().T
            embedding[:, start:stop] = solver.solve_many(block)
        # an overflowed/poisoned embedding would corrupt *every* later pair
        # answer: refuse the build rather than cache a sick artifact (the
        # serving tier degrades such a failure to the grounded exact path)
        check_finite(embedding, "sketched resistance embedding")
        self._embedding = embedding

    @property
    def eta_effective(self) -> float:
        """Accuracy bound the oracle honours *now*, repairs included.

        Equal to ``eta`` as built (or ``0.0`` in exact mode, where answers
        carry no sketching error at all).  Every repaired-in edge
        (:meth:`append_edge`) grows the ambient dimension by one while the
        sketch keeps its ``k`` rows, so the bound widens to
        :func:`repro.linalg.jl.resistance_sketch_eta` at the current ambient
        dimension -- logarithmically slowly, but honestly: consumers that
        promised a client ``eta`` must check this value, not ``eta``, after
        repairs (``inf`` in the pathological case where no bound below 1 is
        honoured any more).

        Mixed-traffic contract: only *insertions* widen the bound.  A
        reweight or removal absorbed by :meth:`repair_edge` reproduces, to
        rounding, the sketch the same ``seed_bits`` would have assigned the
        surviving edges' columns, introducing no new randomness -- the
        union bound the build sized ``k`` for was over a superset of the
        surviving columns, so the per-pair guarantee is preserved and
        ``eta_effective`` is unchanged.  A removed edge that is later
        re-added counts as an insertion (it gets a fresh appended column,
        the retired one stays in the ambient count).
        """
        if self.exact:
            return 0.0
        if self._ambient == self._built_m:
            return self.eta
        widened = resistance_sketch_eta(self.k, self._ambient)
        if widened is None:
            return float("inf")
        return max(self.eta, widened)

    def append_edge(self, u: int, v: int, weight: float, z: np.ndarray) -> bool:
        """Repair the oracle in place for the *insertion* of edge ``{u, v}``.

        The mutated graph's embedding differs from the stored one by two
        rank-1 terms, both computable from one triangular solve
        ``z = L_new^+ (e_u - e_v)`` in the *mutated* graph (the serving layer
        passes the one its :class:`RepairableGroundedSolver` recorded for the
        same mutation; any per-component constant shift is harmless, the
        oracle only reads row differences of the embedding):

        * the pseudoinverse moved: ``E -= w z (E[u] - E[v])^T`` by
          Sherman-Morrison through the stored embedding;
        * the incidence gained a row: ``E += sqrt(w) z q^T`` with ``q`` a
          fresh Kane-Nelson column (``s`` rows, ``+/- 1/sqrt(s)``) expanded
          deterministically from ``(seed_bits, ambient index)``.

        The result is *exactly* the ``k``-row Kane-Nelson-sketched embedding
        of the mutated graph at ambient dimension ``m + 1``, so the accuracy
        contract survives with the widened :attr:`eta_effective`; in exact
        (identity-sketch) mode a new exact column is appended instead and the
        oracle stays exact.  Returns ``False`` (oracle unchanged) for
        cross-component insertions, which change the component structure the
        stored labels encode.  Reweights and removals of *existing* edges go
        through :meth:`repair_edge`, which reads the edge's own column.  Not
        thread-safe against concurrent queries; the serving layer serialises
        repairs behind its execute lock.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge endpoints out of range [0, {self.n})")
        if u == v:
            raise ValueError(f"self-loops are not allowed: ({u}, {v})")
        weight = float(weight)
        if weight <= 0:
            raise ValueError(f"edge weights must be positive, got {weight}")
        if not self.exact and not self._embedding.flags.writeable:
            # shared-memory backed oracle (see repro.serve.shm): the sketch
            # is a read-only view other processes serve from concurrently,
            # so the in-place rank-1 repair is refused and the caller
            # rebuilds.  Exact mode reallocates instead of mutating, so a
            # read-only base embedding repairs fine there.
            return False
        if self._labels[u] != self._labels[v]:
            return False
        duv = (self._embedding[u] - self._embedding[v]).astype(np.float64, copy=False)
        sqrt_w = math.sqrt(weight)
        if self.exact:
            # identity sketch: the new row of W^{1/2} B gets its own exact
            # embedding column and every old column is corrected in place
            updated = self._embedding - weight * np.outer(z, duv)
            self._embedding = np.concatenate([updated, sqrt_w * z[:, None]], axis=1)
            self.k += 1
        else:
            q = kane_nelson_column(self.k, self.seed_bits, self._ambient)
            # both corrections share the left factor z, so they fuse into ONE
            # rank-1 update E += z (sqrt_w q - w duv)^T, applied blockwise in
            # the storage dtype: at n ~ 4*10^4, k ~ 10^3 a float64 np.outer
            # would allocate a transient several times the embedding itself
            row = (sqrt_w * q - weight * duv).astype(self._embedding.dtype)
            zcol = z.astype(self._embedding.dtype)
            block = 8192
            for start in range(0, self.n, block):
                stop = min(self.n, start + block)
                self._embedding[start:stop] += np.outer(zcol[start:stop], row)
        if self._appended_cols is not None:
            # the fresh column's contribution entered as +sqrt(w) (e_u - e_v)
            # in *call* order; record its sign relative to the canonical
            # (min, max) orientation so repair_edge subtracts what was added
            self._appended_cols[(min(u, v), max(u, v))] = (
                self._ambient,
                1.0 if u < v else -1.0,
            )
        self._ambient += 1
        self.appended += 1
        return True

    def _column_identity(self, u: int, v: int):
        """``(ambient index, sign)`` of the live column owned by edge ``{u, v}``.

        The sign is the orientation of the column's contribution to the
        sketched incidence relative to ``e_min - e_max``: built columns enter
        through :func:`incidence_csr` (larger endpoint ``+1``) as ``-1``,
        appended columns carry the sign :meth:`append_edge` recorded.
        Returns ``None`` when the edge owns no recoverable column (removed,
        never known, or the identity map was not shipped -- shared-memory
        attached oracles serve queries only).
        """
        if self._appended_cols is None or self._built_keys is None:
            return None
        key = (min(u, v), max(u, v))
        appended = self._appended_cols.get(key)
        if appended is not None:
            return appended
        packed = key[0] * self.n + key[1]
        pos = int(np.searchsorted(self._built_keys, packed))
        if pos >= self._built_keys.size or self._built_keys[pos] != packed:
            return None
        if self._built_retired[pos]:
            return None
        return pos, -1.0

    def _built_column(self, index: int) -> np.ndarray:
        """Dense Kane-Nelson column of built edge ``index``, read in ``O(s)``."""
        q = np.zeros(self.k)
        signs = self._column_signs[index]
        q[self._column_rows[index]] = signs * (1.0 / math.sqrt(signs.size))
        return q

    def repair_edge(self, u, v, old_weight, new_weight, z) -> bool:
        """Repair the oracle in place for a *reweight or removal* of ``{u, v}``.

        The edge keeps (reweight) or retires (removal, ``new_weight == 0``)
        the sketch column it owns; both corrections are rank-1 terms sharing
        the left factor ``z = L_new^+ (e_min - e_max)``:

        * the pseudoinverse moved: ``E -= delta z (E[min] - E[max])^T`` with
          ``delta = w_new - w_old`` (Sherman-Morrison through the stored
          embedding);
        * the edge's incidence row was rescaled: ``E += sigma (sqrt(w_new) -
          sqrt(w_old)) z q^T`` where ``q`` is the edge's own Kane-Nelson
          column -- read in ``O(s)`` from the rows and signs stored at build
          for built edges, re-derived by :func:`kane_nelson_column` from
          ``(seed_bits, ambient index)`` for appended ones, the identity
          column in exact mode.

        The result equals (to rounding) the same-seed sketch of the mutated
        graph over the surviving columns, so :attr:`eta_effective` does not
        widen (see its docstring for the mixed-traffic contract).

        ``z`` is that solve in the *mutated* graph (the serving layer reuses
        the one its
        :class:`~repro.linalg.sparse_backend.RepairableGroundedSolver`
        recorded for the same mutation).  Bridge removals are NOT repairable
        here -- ``e_min - e_max`` is inconsistent across the split, so the
        caller must drop the oracle when the grounded repair re-grounded a
        component.  Returns ``False`` (oracle unchanged) when the edge's
        column identity is unknown or the embedding is a read-only
        shared-memory view.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge endpoints out of range [0, {self.n})")
        if u == v:
            raise ValueError(f"self-loops are not allowed: ({u}, {v})")
        old_weight = float(old_weight)
        new_weight = float(new_weight)
        if old_weight <= 0:
            raise ValueError(f"previous weight must be positive, got {old_weight}")
        if new_weight < 0:
            raise ValueError(f"new weight must be >= 0, got {new_weight}")
        if not self._embedding.flags.writeable:
            # shared-memory backed view (exact or sketched): other processes
            # serve from it concurrently, refuse the in-place repair
            return False
        if self._labels[u] != self._labels[v]:
            return False
        if new_weight == old_weight:
            return True
        identity = self._column_identity(u, v)
        if identity is None:
            return False
        index, sigma = identity
        lo, hi = min(u, v), max(u, v)
        delta = new_weight - old_weight
        scale = sigma * (math.sqrt(new_weight) - math.sqrt(old_weight))
        duv = (self._embedding[lo] - self._embedding[hi]).astype(np.float64, copy=False)
        if self.exact:
            q = np.zeros(self.k)
            q[index] = 1.0
        elif index < self._built_m:
            q = self._built_column(index)
        else:
            q = kane_nelson_column(self.k, self.seed_bits, index)
        row = (scale * q - delta * duv).astype(self._embedding.dtype)
        zcol = np.asarray(z, dtype=self._embedding.dtype)
        block = 8192
        for start in range(0, self.n, block):
            stop = min(self.n, start + block)
            self._embedding[start:stop] += np.outer(zcol[start:stop], row)
        if new_weight == 0.0:
            key = (lo, hi)
            if key in self._appended_cols:
                del self._appended_cols[key]
            else:
                self._built_retired[index] = True
            self.removed += 1
        else:
            self.reweighted += 1
        return True

    def apply_delta(self, delta, *, graph, grounded, on_step) -> bool:
        """Absorb a whole mutation ``delta``; ``False`` = drop and rebuild.

        The repair protocol of
        :meth:`~repro.linalg.sparse_backend.RepairableGroundedSolver.apply_delta`.
        Insertions append a fresh column (:meth:`append_edge`), reweights and
        removals read the edge's own column (:meth:`repair_edge`); both
        need the post-record solve ``z`` of every record, which the grounded
        solver recorded when it absorbed the same delta
        (:meth:`~repro.linalg.sparse_backend.RepairableGroundedSolver.update_log`),
        so no solve happens here.  Refused when that log does not cover the
        delta (the grounded solver was rebuilt, not repaired), when a record
        split a component (``e_u - e_v`` is inconsistent across the
        re-grounding), or when the widened :attr:`eta_effective` no longer
        honours the ``eta`` the oracle was built -- and is cached -- for.
        """
        solver = grounded()
        log = solver.update_log() if hasattr(solver, "update_log") else []
        if len(log) < len(delta):
            return False
        tail = log[len(log) - len(delta) :]
        for step, (record, logged) in enumerate(zip(delta, tail)):
            log_u, log_v, log_delta, z, split = logged
            if split:
                return False
            if {log_u, log_v} != {record.u, record.v} or not np.isclose(
                log_delta, record.weight_delta
            ):
                return False
            on_step(step)
            if record.op == "add":
                ok = self.append_edge(record.u, record.v, record.weight, z=z)
            else:
                ok = self.repair_edge(
                    record.u,
                    record.v,
                    record.prev_weight,
                    0.0 if record.weight is None else record.weight,
                    z=z,
                )
            if not ok:
                return False
        return self.eta_effective <= self.eta

    def pair_resistances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``(1 +/- eta_effective)``-approximate resistances for arbitrary pairs."""
        u, v = validate_pair_indices(u, v, self.n)
        diff = (self._embedding[u] - self._embedding[v]).astype(np.float64, copy=False)
        resistances = np.einsum("ij,ij->i", diff, diff)
        return apply_pair_semantics(resistances, self._labels, u, v)

    def share_arrays(self):
        """Arrays + scalar metadata for shared-memory publication.

        The ``(arrays, meta)`` pair is what
        :meth:`repro.serve.shm.SharedArtifactStore.publish` packs into a
        segment; :meth:`from_shared` inverts it in the attaching process.
        """
        arrays = {"embedding": self._embedding, "labels": self._labels}
        meta = {
            "n": int(self.n),
            "eta": float(self.eta),
            "exact": bool(self.exact),
            "k": int(self.k),
            "ambient": int(self._ambient),
            "built_m": int(self._built_m),
            "appended": int(self.appended),
            "reweighted": int(self.reweighted),
            "removed": int(self.removed),
            "random_bits": int(self.random_bits),
            "seed_bits": int(self.seed_bits),
        }
        return arrays, meta

    @classmethod
    def from_shared(cls, arrays, meta) -> "SketchedResistanceOracle":
        """Rebuild an oracle over shared read-only views, skipping the build.

        The attached views serve pair queries exactly like privately owned
        arrays; :meth:`append_edge` sees the read-only flag on the sketched
        embedding and refuses in-place repair, so mutations rebuild.
        """
        oracle = cls.__new__(cls)
        oracle.n = int(meta["n"])
        oracle.eta = float(meta["eta"])
        oracle.exact = bool(meta["exact"])
        oracle.k = int(meta["k"])
        oracle._ambient = int(meta["ambient"])
        oracle._built_m = int(meta["built_m"])
        oracle.appended = int(meta["appended"])
        oracle.reweighted = int(meta.get("reweighted", 0))
        oracle.removed = int(meta.get("removed", 0))
        oracle.random_bits = int(meta["random_bits"])
        oracle.seed_bits = int(meta["seed_bits"])
        oracle._embedding = arrays["embedding"]
        oracle._labels = arrays["labels"]
        # column-identity map and stored columns not shipped: an attached
        # oracle serves queries only (repairs are refused on the read-only
        # view anyway)
        oracle._built_keys = None
        oracle._built_retired = None
        oracle._appended_cols = None
        oracle._column_rows = None
        oracle._column_signs = None
        return oracle

    def nbytes(self) -> int:
        """Resident size for cache accounting (the embedding dominates)."""
        total = int(self._embedding.nbytes + self._labels.nbytes)
        if self._built_keys is not None:
            total += int(self._built_keys.nbytes + self._built_retired.nbytes)
        if self._column_rows is not None:
            total += int(self._column_rows.nbytes + self._column_signs.nbytes)
        return total

    def __repr__(self) -> str:
        return (
            f"SketchedResistanceOracle(n={self.n}, k={self.k}, eta={self.eta}"
            f"{', exact' if self.exact else ''})"
        )
