"""CSR Laplacian kernels: the one linear-algebra path of the Figure-1 pipeline.

Every numerical stage of the reproduction (spanner -> sparsifier -> Laplacian
solver -> LP/min-cost flow) consumes Laplacians, incidence matrices, quadratic
forms, effective resistances and the spectral window of a sparsifier.  This
module computes all of them, at every graph size, the way Theorem 1.3's
vertices do once they hold the sparsifier: ``scipy.sparse`` CSR matrices built
straight from the cached edge-array views of
:meth:`repro.graphs.graph.WeightedGraph.edge_array` (three aligned numpy
columns, no Python-level edge iteration), grounded Laplacians factorised once
with ``splu``, many right-hand sides solved in batches, and pencil extremes
read off ``eigsh`` over those same factorisations.

These kernels have no dense twin and no option or size gate selects one: the
textbook ``pinv`` / ``eigh`` formulas are the test oracle
``tests/linalg/reference_dense.py``, which
``tests/linalg/test_sparse_backend.py`` and
``tests/linalg/test_sparse_certification.py`` pin this module against to 1e-8
on path/cycle/grid/barbell/two-component graphs.

Disconnected graphs are handled by grounding one vertex per connected
component; solves then require (and assume) right-hand sides that are
consistent per component, which is exactly the promise the paper's solver
statements make.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dger
from scipy.sparse import csgraph

if TYPE_CHECKING:  # import only for annotations: repro.graphs.laplacian
    # imports this module, so a runtime import here would be circular.
    from repro.graphs.graph import WeightedGraph

#: Number of right-hand sides per batched grounded solve (memory knob: each
#: batch materialises an ``(n - #components) x batch`` dense block).
DEFAULT_BATCH_SIZE = 512


class NumericalHealthError(ArithmeticError):
    """A kernel produced -- or was fed -- non-finite values (NaN/inf).

    The serving tier's numerical-health guard: a solver output containing
    NaN, or a factorisation attempted over non-finite edge weights, is
    *refused* with this typed error instead of being returned (or cached) as
    a silently wrong answer.  Defined here, at the bottom of the import
    graph, so :mod:`repro.linalg`, :mod:`repro.lp` and :mod:`repro.serve`
    can all raise and catch the same type; re-exported by
    :mod:`repro.serve.resilience`.  Subclasses :class:`ArithmeticError`
    because the root cause is always arithmetic (singular systems, overflow,
    poisoned inputs).
    """


def check_finite(values, what: str, allow_inf: bool = False) -> None:
    """Raise :class:`NumericalHealthError` if ``values`` contains NaN (or inf).

    ``allow_inf=True`` tolerates infinities -- effective resistances across
    components are legitimately ``inf``, so resistance outputs are checked
    for NaN only, while solve/gram outputs must be entirely finite.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return
    bad = np.isnan(arr) if allow_inf else ~np.isfinite(arr)
    count = int(np.count_nonzero(bad))
    if count:
        raise NumericalHealthError(
            f"{what} contains {count} non-finite value(s); refusing to serve it"
        )


# -- matrix construction -------------------------------------------------------


def laplacian_csr(graph: WeightedGraph) -> sp.csr_matrix:
    """CSR Laplacian ``L = B^T W B``: the graph's cached, read-only matrix."""
    return graph.laplacian_csr()


def incidence_csr(graph: WeightedGraph) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Sparse edge-vertex incidence ``B`` (m x n) and the weight vector ``w``.

    The larger endpoint is the head (+1), the smaller the tail (-1); rows
    follow canonical edge order.
    """
    u, v, w = graph.edge_array()
    m, n = graph.m, graph.n
    edge_ids = np.arange(m)
    rows = np.concatenate([edge_ids, edge_ids])
    cols = np.concatenate([u, v])
    data = np.concatenate([-np.ones(m), np.ones(m)])
    B = sp.coo_matrix((data, (rows, cols)), shape=(m, n)).tocsr()
    return B, w.copy()


def laplacian_quadratic_form_vectorized(graph: WeightedGraph, x: np.ndarray) -> float:
    """``x^T L x = sum_e w_e (x_u - x_v)^2`` via fancy indexing (no matrix)."""
    u, v, w = graph.edge_array()
    x = np.asarray(x, dtype=float)
    diff = x[u] - x[v]
    return float(np.dot(w, diff * diff))


def validate_pair_indices(u, v, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Shared validation for pair-resistance queries: aligned int64 arrays.

    Every ``pair_resistances`` implementation (grounded solver, dense oracle,
    sketched oracle) must agree on this contract, so it lives in one place.
    """
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    if u.shape != v.shape:
        raise ValueError(f"pair arrays must align, got {u.shape} vs {v.shape}")
    if u.size and (
        int(min(u.min(), v.min())) < 0 or int(max(u.max(), v.max())) >= n
    ):
        raise ValueError(f"pair endpoints out of range [0, {n})")
    return u, v


def apply_pair_semantics(
    resistances: np.ndarray, labels: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """The shared pair conventions: ``inf`` across components, ``0`` on ties."""
    resistances[labels[u] != labels[v]] = np.inf
    resistances[u == v] = 0.0
    return resistances


# -- grounded factorisation ----------------------------------------------------


def grounding_keep_indices(n: int, components) -> np.ndarray:
    """Indices that survive grounding one (minimum) vertex per component."""
    grounded = np.fromiter(
        sorted(int(min(c)) for c in components), dtype=np.int64
    )
    keep = np.ones(n, dtype=bool)
    keep[grounded] = False
    return np.flatnonzero(keep)


class GroundedLaplacianSolver:
    """Direct Laplacian solver: ground one vertex per component, ``splu`` once.

    For a right-hand side that is consistent per component (sums to zero over
    every component -- i.e. ``b`` lies in the range of ``L``), :meth:`solve`
    returns the minimum-norm solution ``L^+ b``: the grounded solution differs
    from ``L^+ b`` by a constant per component, which we remove by re-centring
    each component to mean zero.
    """

    def __init__(self, graph: WeightedGraph):
        self.n = graph.n
        self._nbytes: Optional[int] = None
        self._component_label: Optional[np.ndarray] = None
        # refuse to factorise poisoned content: a NaN weight would not make
        # splu fail loudly, it would silently propagate into every answer
        check_finite(graph.edge_array()[2], "graph edge weights")
        L = laplacian_csr(graph)
        components = graph.connected_components()
        self._components: List[np.ndarray] = [
            np.fromiter(sorted(c), dtype=np.int64, count=len(c)) for c in components
        ]
        self._keep_idx = grounding_keep_indices(self.n, components)
        # position of each vertex inside the reduced system (-1 = grounded)
        self._position = np.full(self.n, -1, dtype=np.int64)
        self._position[self._keep_idx] = np.arange(self._keep_idx.size)
        if self._keep_idx.size:
            reduced = L[self._keep_idx][:, self._keep_idx].tocsc()
            # MMD on A^T + A: the grounded Laplacian is structurally symmetric,
            # and this ordering roughly halves fill-in (and solve time) versus
            # the default COLAMD on the graphs we benchmark.
            try:
                self._lu = spla.splu(reduced, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as error:
                # SuperLU signals singular/badly-scaled systems as a bare
                # RuntimeError; surface it as the typed numerical-health
                # failure the serving tier's degradation ladder catches
                raise NumericalHealthError(
                    f"grounded splu factorisation failed: {error}"
                ) from error
        else:
            self._lu = None

    def _reduced_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the grounded (reduced) system for a ``(k,)`` or ``(k, j)`` block.

        Every consumer of the factorisation funnels through here, which is the
        seam :class:`RepairableGroundedSolver` overrides to apply its
        accumulated Sherman-Morrison corrections on top of the base ``splu``.
        """
        return self._lu.solve(rhs)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Minimum-norm solution of ``L x = b`` (``b`` consistent per component)."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"right-hand side must have shape ({self.n},), got {b.shape}")
        x = np.zeros(self.n)
        if self._lu is not None:
            x[self._keep_idx] = self._reduced_solve(b[self._keep_idx])
        for component in self._components:
            x[component] -= x[component].mean()
        return x

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Column-wise minimum-norm solves ``L X = B`` for a dense ``(n, k)`` block."""
        B = np.asarray(B, dtype=float)
        X = np.zeros_like(B)
        if self._lu is not None:
            X[self._keep_idx] = self._reduced_solve(B[self._keep_idx])
        for component in self._components:
            X[component] -= X[component].mean(axis=0)
        return X

    def edge_resistances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``chi_e^T L^+ chi_e`` for the vertex pairs ``(u_i, v_i)`` in one batch.

        Each pair must lie in one connected component (edges always do).  The
        right-hand sides are built directly in the reduced (grounded)
        coordinates, so no per-edge re-centring is needed: the resistance is
        the grounded solution's potential difference across the pair.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        k = u.size
        cols = np.arange(k)
        pu, pv = self._position[u], self._position[v]
        rhs = np.zeros((self._keep_idx.size, k))
        mask_u, mask_v = pu >= 0, pv >= 0
        rhs[pu[mask_u], cols[mask_u]] += 1.0
        rhs[pv[mask_v], cols[mask_v]] -= 1.0
        X = self._reduced_solve(rhs) if self._lu is not None else rhs
        xu = np.where(mask_u, X[np.maximum(pu, 0), cols], 0.0)
        xv = np.where(mask_v, X[np.maximum(pv, 0), cols], 0.0)
        return xu - xv

    def component_labels(self) -> np.ndarray:
        """Component identifier per vertex (lazily built, cached)."""
        if self._component_label is None:
            labels = np.empty(self.n, dtype=np.int64)
            for i, component in enumerate(self._components):
                labels[component] = i
            self._component_label = labels
        return self._component_label

    def pair_resistances(
        self, u: np.ndarray, v: np.ndarray, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> np.ndarray:
        """Effective resistance of arbitrary vertex pairs ``(u_i, v_i)``.

        Unlike :meth:`edge_resistances` the pairs need not be edges (or even
        lie in one component): cross-component pairs are reported as ``inf``
        and ``u_i == v_i`` pairs as ``0``.  Within-component pairs go through
        the grounded factorisation in batches of ``batch_size``.
        """
        u, v = validate_pair_indices(u, v, self.n)
        labels = self.component_labels()
        resistances = np.full(u.shape[0], np.inf)
        resistances[u == v] = 0.0
        solvable = np.flatnonzero((labels[u] == labels[v]) & (u != v))
        for start in range(0, solvable.size, batch_size):
            idx = solvable[start : start + batch_size]
            resistances[idx] = self.edge_resistances(u[idx], v[idx])
        return resistances

    def nbytes(self) -> int:
        """Approximate resident size of the factorisation (cache accounting).

        The LU factors dominate; SuperLU stores ~12 bytes per stored nonzero
        (8-byte value + 4-byte row index) plus the permutation vectors.
        """
        if self._nbytes is None:
            total = self._keep_idx.nbytes + self._position.nbytes
            total += sum(c.nbytes for c in self._components)
            if self._lu is not None:
                total += 12 * int(self._lu.nnz)
                total += self._lu.perm_r.nbytes + self._lu.perm_c.nbytes
            self._nbytes = int(total)
        return self._nbytes

    __call__ = solve


def laplacian_solver(graph: WeightedGraph) -> GroundedLaplacianSolver:
    """Factorise ``graph``'s Laplacian once and return a reusable solver."""
    return GroundedLaplacianSolver(graph)


# -- incremental repair --------------------------------------------------------

#: Sherman-Morrison denominator guard.  The update ``L += delta chi chi^T``
#: multiplies solve errors by ``~1/denom`` with ``denom = 1 + delta R(u, v)``;
#: for a removal ``denom = 1 - w R(u, v)`` hits 0 exactly when the edge is a
#: bridge (removal disconnects), and near-0 when it almost is.  Below this
#: threshold the repair is refused and the caller must refactorise.
REPAIR_DENOM_TOL = 1e-6


def default_update_budget(n: int) -> int:
    """Accumulated-update budget before refactorisation: ``O(sqrt(n))``.

    Each pending rank-1 correction adds one dense ``O(n)`` vector of storage
    and one ``O(n)`` pass per solve, so ``sqrt(n)`` corrections keep both the
    repair overhead (``O(n^{1.5})`` per solve) safely below the cost of the
    triangular solves they postpone, and the accumulated floating-point error
    (one inner product per correction) at the ``1e-8`` agreement the tests
    pin.
    """
    return max(4, math.isqrt(max(0, int(n))))


class _Correction(NamedTuple):
    """One accepted Sherman-Morrison correction ``A += delta chi chi^T``.

    ``chi`` is ``coeff`` at the reduced positions ``idx``: ``(+1, -1)`` at an
    edge's ungrounded endpoints, or the all-ones indicator of a freshly
    split-off side -- the rank-1 regulariser ``rho kappa kappa^T`` that keeps
    a bridge removal invertible and pins the new component to mean zero.
    ``log`` is ``(u, v, delta, denom, split)`` for an edge record and
    ``None`` for a regulariser, which the repair log never lists.
    """

    idx: np.ndarray
    coeff: np.ndarray
    log: Optional[tuple]


def _split_side(graph: WeightedGraph, delta, step: int) -> Optional[np.ndarray]:
    """Vertices cut off by the bridge removal at ``delta[step]``.

    ``graph`` already reflects the *whole* delta, so the topology right
    after record ``step`` is its edge set with the later records undone
    (existence only -- reweights don't move edges); the split side is the
    ``csgraph`` component of the removed edge's ``v`` endpoint.  Returns
    ``None`` when ``u`` is still reachable: the removal was no bridge and the
    solver's refusal was numerical, which re-grounding cannot fix.
    """
    present = {}  # edge -> exists right after ``step`` (its earliest later record decides)
    for record in reversed(delta[step + 1 :]):
        if record.op != "update":
            present[(record.u, record.v)] = record.op == "remove"
    u_arr, v_arr, _ = graph.edge_array()
    rows, cols, data = [u_arr], [v_arr], [np.ones(u_arr.size)]
    for (a, b), there in present.items():
        if there != graph.has_edge(a, b):
            # +1 restores a later-removed edge, -1 cancels a later-added one
            rows.append([a])
            cols.append([b])
            data.append([1.0 if there else -1.0])
    adjacency = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(graph.n, graph.n),
    ).tocsr()
    adjacency.eliminate_zeros()
    _, labels = csgraph.connected_components(adjacency, directed=False)
    target = delta[step]
    if labels[target.u] == labels[target.v]:
        return None
    return np.flatnonzero(labels == labels[target.v])


class RepairableGroundedSolver(GroundedLaplacianSolver):
    """Grounded ``splu`` solver that absorbs edge mutations as rank-1 updates.

    A single ``add_edge`` / reweight / ``remove_edge`` changes the Laplacian
    by ``delta chi chi^T`` with ``chi = e_u - e_v``; instead of refactorising
    (seconds at ``n >= 10^4``), :meth:`apply_update` solves one right-hand
    side against the current state (one triangular solve, ``O(n)``-ish) and
    records a Sherman-Morrison correction that every later
    :meth:`_reduced_solve` applies on top of the base factorisation:

        ``A_new^{-1} b = A^{-1} b - (delta / denom) z (chi^T A^{-1} b)``

    with ``z = A^{-1} chi`` and ``denom = 1 + delta chi^T z``.  Corrections
    compose sequentially, so a chain of mutations stays exact (to rounding)
    relative to a from-scratch rebuild -- the property the repair tests pin
    to 1e-8.

    The ``u`` accepted corrections are applied as one blocked Woodbury step,
    the same arithmetic as the sequential loop: the ``z_i`` are the columns
    of one block ``Z`` (grown geometrically), and the sequential coefficients
    ``a`` solve the unit-lower-triangular system ``T a = diag(s) chi^T X``
    with ``s_i = delta_i / denom_i`` and ``T_ij = s_i chi_i^T z_j``
    (``j < i``), whose solution operator ``W = T^{-1} diag(s)`` is stored and
    extended by one row per update in ``O(n + u^2)``.  A solve is then
    ``X = lu.solve(B)``, one gather ``G = chi^T X``, and ``X -= Z (W G)``.

    :meth:`apply_update` *refuses* (returns ``False``, caller must rebuild)
    when the mutation changes what a rank-1 update can express:

    * the endpoints lie in different components (insertion would merge them,
      changing the grounding structure);
    * the denominator falls below :data:`REPAIR_DENOM_TOL` (a removed edge is
      a bridge -- removal disconnects -- or the update is too ill-conditioned
      to stay within the accuracy contract) *and* the caller did not supply
      ``split_side`` -- with it, a genuine bridge removal is absorbed by
      re-grounding the split-off component (see below) instead of refusing;
    * the accumulated-update budget ``max_updates`` (default
      :func:`default_update_budget`, ``O(sqrt(n))``) is exhausted (a split
      removal consumes two slots).

    **Component-split re-grounding.**  Removing a bridge ``{u, v}`` splits
    its component in two; the side that loses the original grounded vertex
    leaves the reduced system singular, which is exactly what the
    ``denom -> 0`` guard detects.  Given ``split_side`` (the vertex set of
    one side of the split, e.g. a BFS from ``v`` in the post-removal graph),
    the solver first adds a rank-1 regulariser ``rho kappa kappa^T`` over the
    ungrounded side's indicator ``kappa`` -- an implicit new ground pinning
    that side to mean zero -- and then applies the removal's Sherman-Morrison
    correction against the regularised (invertible) system.  Both corrections
    ride the same ``_reduced_solve`` seam; ``self._components`` and the
    cached component labels are updated so pair queries across the split
    correctly report ``inf``.

    A refused update leaves the solver exactly as it was.  The solver is not
    thread-safe during :meth:`apply_update`; the serving layer serialises
    repairs behind its execute lock.
    """

    def __init__(self, graph: WeightedGraph, max_updates: Optional[int] = None):
        super().__init__(graph)
        self.max_updates = (
            int(max_updates) if max_updates is not None else default_update_budget(self.n)
        )
        self._corrections: List[_Correction] = []
        self._Z = np.zeros((self._keep_idx.size, 0))  # z_i columns, capacity grows
        self._W = np.zeros((0, 0))  # T^{-1} diag(s), lower triangular
        self._refresh()

    @property
    def updates_applied(self) -> int:
        """Number of rank-1 corrections currently riding on the factorisation."""
        return len(self._corrections)

    @property
    def update_budget_remaining(self) -> int:
        """Updates left before :meth:`apply_update` starts refusing."""
        return max(0, self.max_updates - len(self._corrections))

    def _edge_chi(self, u: int, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """``e_u - e_v`` in reduced coordinates: its ungrounded positions and signs."""
        positions = self._position[[u, v]]
        kept = positions >= 0
        return positions[kept], np.array([1.0, -1.0])[kept]

    def _solve_chi(self, idx: np.ndarray, coeff: np.ndarray) -> Tuple[np.ndarray, float]:
        """``z = A^{-1} chi`` against the current state, and ``chi^T z``."""
        chi = np.zeros(self._keep_idx.size)
        chi[idx] = coeff
        z = self._reduced_solve(chi)
        return z, float(coeff @ z[idx])

    def _push(self, correction: _Correction, delta: float, z: np.ndarray, denom: float) -> None:
        """Accept one correction: one column of ``Z``, one row of ``W``."""
        i = len(self._corrections)
        if i == self._Z.shape[1]:
            capacity = min(self.max_updates, max(4, 2 * i))
            Z, W = np.zeros((z.size, capacity)), np.zeros((capacity, capacity))
            Z[:, :i], W[:i, :i] = self._Z, self._W
            self._Z, self._W = Z, W
        s = delta / denom
        self._Z[:, i] = z
        t = correction.coeff @ self._Z[correction.idx, :i]  # chi_i^T z_j, j < i
        self._W[i, :i] = -s * (t @ self._W[:i, :i])
        self._W[i, i] = s
        self._corrections.append(correction)
        self._refresh()

    def _refresh(self) -> None:
        """Per-solve views of the accepted corrections (after a push or pop).

        Edge corrections with both endpoints ungrounded gather as
        ``X[pu] - X[pv]`` in one shot; the rest (a grounded endpoint, a split
        regulariser) are patched into ``G`` one by one.
        """
        u = len(self._corrections)
        self._Zu, self._Wu = self._Z[:, :u], self._W[:u, :u]
        plain = [c.log is not None and c.idx.size == 2 for c in self._corrections]
        pairs = [c.idx if ok else (0, 0) for c, ok in zip(self._corrections, plain)]
        self._pu, self._pv = np.array(pairs, dtype=np.int64).reshape(u, 2).T
        self._special = [
            (i, c.idx, c.coeff) for i, (c, ok) in enumerate(zip(self._corrections, plain)) if not ok
        ]

    def apply_update(self, u: int, v: int, delta: float, split_side=None) -> bool:
        """Absorb ``L += delta (e_u - e_v)(e_u - e_v)^T``; ``False`` = rebuild.

        ``delta`` is the *weight change* of the edge ``{u, v}``: the new
        weight for an insertion, ``w_new - w_old`` for a reweight, and
        ``-w_old`` for a removal.  A ``True`` return means every later solve
        reflects the mutated Laplacian; ``False`` means the mutation is not
        rank-1-repairable here (cross-component edge, bridge removal without
        ``split_side``, ill-conditioned update, or budget exhausted) and the
        solver is unchanged.

        ``split_side`` (optional, removals only) is the vertex set of one
        side of the split the removal causes -- e.g. the set reachable from
        ``v`` in the post-removal graph.  When the conditioning guard fires
        on a genuine bridge removal and ``split_side`` is given, the solver
        re-grounds the split-off component and absorbs the removal anyway
        (two update slots; see the class docstring).
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge endpoints out of range [0, {self.n})")
        if u == v:
            raise ValueError(f"self-loops are not allowed: ({u}, {v})")
        delta = float(delta)
        if delta == 0.0:
            return True
        labels = self.component_labels()
        if labels[u] != labels[v]:
            # merging (or having merged) components changes which vertices are
            # grounded: structurally not a rank-1 update of the reduced system
            return False
        if len(self._corrections) >= self.max_updates or self._lu is None:
            return False
        idx, coeff = self._edge_chi(u, v)
        z, ctz = self._solve_chi(idx, coeff)
        denom = 1.0 + delta * ctz
        if denom > REPAIR_DENOM_TOL:
            self._push(_Correction(idx, coeff, (u, v, delta, denom, False)), delta, z, denom)
            return True
        if delta < 0.0 and split_side is not None:
            return self._apply_split_removal(u, v, delta, split_side)
        return False

    def _apply_split_removal(self, u: int, v: int, delta: float, split_side) -> bool:
        """Bridge removal: re-ground the split-off side, then downdate.

        ``A - w chi chi^T`` is singular (the side losing the old ground has a
        fresh kernel vector: its indicator ``kappa``), so we first regularise
        with ``rho kappa kappa^T`` -- Sherman-Morrison keeps it rank-1 -- and
        then apply the removal against the now-invertible system.  Solutions
        on the re-grounded side come out with ``kappa^T x = 0`` (mean zero),
        which the per-component re-centring in :meth:`solve` already expects.
        Updates ``self._components`` / component labels to the post-split
        structure; consumes two update slots.
        """
        if self.max_updates - len(self._corrections) < 2:
            return False
        side = np.unique(np.fromiter(split_side, dtype=np.int64))
        if side.size == 0 or side.min() < 0 or side.max() >= self.n:
            return False
        labels = self.component_labels()
        label = int(labels[u])
        component = None
        comp_index = -1
        for i, comp in enumerate(self._components):
            if labels[comp[0]] == label:
                component, comp_index = comp, i
                break
        if component is None or side.size >= component.size:
            return False
        # split_side must be one side of the component and separate u from v
        if not np.isin(side, component).all():
            return False
        in_side = np.zeros(self.n, dtype=bool)
        in_side[side] = True
        if in_side[u] == in_side[v]:
            return False
        other = component[~in_side[component]]
        # the side that lost the original ground is the one with no -1 position
        side_positions = self._position[side]
        if (side_positions >= 0).all():
            ungrounded, ungrounded_pos = side, side_positions
        else:
            ungrounded, ungrounded_pos = other, self._position[other]
            if not (ungrounded_pos >= 0).all():
                return False  # both sides grounded: not a single-component split
        rho = abs(float(delta))
        ground = _Correction(ungrounded_pos, np.ones(ungrounded_pos.size), None)
        y, kty = self._solve_chi(ground.idx, ground.coeff)
        self._push(ground, rho, y, 1.0 + rho * kty)
        idx, coeff = self._edge_chi(u, v)
        z, ctz = self._solve_chi(idx, coeff)
        denom = 1.0 + delta * ctz
        if not denom > REPAIR_DENOM_TOL:
            # not actually (only) a bridge: roll the regulariser back, which
            # leaves every later solve bit-identical to before this call
            self._corrections.pop()
            self._refresh()
            return False
        self._push(_Correction(idx, coeff, (u, v, delta, denom, True)), delta, z, denom)
        self._components[comp_index] = np.sort(other)
        self._components.append(np.sort(side))
        self._component_label = None  # labels changed: rebuild lazily
        return True

    def apply_delta(self, delta, *, graph, grounded, on_step) -> bool:
        """Absorb a whole mutation ``delta``; ``False`` = drop and rebuild.

        The artifact repair protocol, shared by every repairable cached
        artifact (:class:`ResistanceOracle`,
        :class:`~repro.linalg.resistance.SketchedResistanceOracle`,
        :class:`~repro.solvers.laplacian.SolverPreprocessing`): ``delta`` is
        the :class:`~repro.graphs.graph.MutationRecord` sequence bridging the
        content this artifact was built for to ``graph`` (which already
        reflects all of it); ``grounded()`` returns the graph's cached
        grounded solver, itself already repaired across the same delta;
        ``on_step(step)`` is called before each record (the serving tier's
        fault-injection seam).  Each artifact reads what it needs and
        ignores the rest.  A ``False`` return -- or an exception -- leaves
        the artifact possibly half-updated: the caller must discard it.

        Here: any op via :meth:`apply_update`; a refused *removal* is
        retried with the component it cuts off (:func:`_split_side`), so a
        bridge removal re-grounds the new component instead of rebuilding.
        A split removal consumes two update slots (regulariser + removal),
        so the worst case is budgeted up front instead of dying mid-walk.
        """
        removals = sum(1 for record in delta if record.op == "remove")
        if self.update_budget_remaining < len(delta) + removals:
            return False
        for step, record in enumerate(delta):
            on_step(step)
            if self.apply_update(record.u, record.v, record.weight_delta):
                continue
            if record.op != "remove":
                return False
            side = _split_side(graph, delta, step)
            if side is None or not self.apply_update(
                record.u, record.v, record.weight_delta, split_side=side
            ):
                return False
        return True

    def update_log(self):
        """Absorbed edge mutations, oldest first, for dependent repairs.

        Each entry is ``(u, v, delta, z_after, split)`` where ``z_after`` is
        the *post-record* solve ``A_r^{-1} (e_u - e_v)`` scattered to full
        vertex coordinates (no re-centring) -- exactly the vector a dependent
        rank-1 artifact repair (e.g. a sketched-oracle column update) needs
        for the same record, without re-solving.  Grounding regularisers from
        split removals are folded into their removal's ``split=True`` flag
        rather than listed.
        """
        log = []
        for i, correction in enumerate(self._corrections):
            if correction.log is None:
                continue
            u, v, delta, denom, split = correction.log
            z_full = np.zeros(self.n)
            z_full[self._keep_idx] = self._Z[:, i] / denom
            log.append((u, v, delta, z_full, split))
        return log

    def _reduced_solve(self, rhs: np.ndarray) -> np.ndarray:
        X = self._lu.solve(rhs)
        if self._corrections:
            X2 = X.reshape(X.shape[0], -1)  # a view: (k,) solves update in place
            G = X2[self._pu] - X2[self._pv]
            for i, idx, coeff in self._special:
                G[i] = coeff @ X2[idx]
            X2 -= self._Zu @ (self._Wu @ G)
        return X

    def nbytes(self) -> int:
        """Factorisation size plus the pending rank-1 correction vectors."""
        return super().nbytes() + self._Zu.nbytes


#: Largest n for which the serving layer precomputes a dense resistance
#: oracle (n^2 doubles; 2048 -> 32 MiB).  Above it, pair queries fall back to
#: batched triangular solves through the grounded factorisation.
RESISTANCE_ORACLE_LIMIT = 2048


class ResistanceOracle:
    """Dense grounded-inverse oracle: exact O(1) pair resistances.

    For medium graphs the serving layer answers effective-resistance queries
    from a precomputed ``n x n`` matrix ``S`` with ``S[keep, keep]`` the
    inverse of the grounded Laplacian and zero rows/columns at the grounded
    vertices.  For ``u, v`` in one component,

        ``R(u, v) = S[u, u] + S[v, v] - 2 S[u, v]``

    (the indicator ``e_u - e_v`` is component-consistent, so the grounded
    solution differs from ``L^+ (e_u - e_v)`` by a per-component constant that
    cancels in the difference).  Build cost is one factorisation plus ``n``
    batched triangular solves -- seconds at ``n = 2000`` -- after which every
    query is a three-element lookup, which is what turns a coalesced batch of
    64 queries into one vectorised fancy-indexing call.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        grounded: Optional[GroundedLaplacianSolver] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        solver = grounded if grounded is not None else GroundedLaplacianSolver(graph)
        self.n = solver.n
        self.max_updates = default_update_budget(self.n)
        self._repairs = 0
        self._labels = solver.component_labels().copy()
        keep = solver._keep_idx
        S = np.zeros((self.n, self.n))
        if solver._lu is not None:
            k = keep.size
            inner = np.zeros((k, k))
            for start in range(0, k, batch_size):
                stop = min(k, start + batch_size)
                rhs = np.zeros((k, stop - start))
                rhs[np.arange(start, stop), np.arange(stop - start)] = 1.0
                inner[:, start:stop] = solver._reduced_solve(rhs)
            S[np.ix_(keep, keep)] = inner
        self._S = S

    def pair_resistances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised exact resistances; ``inf`` across components, 0 on ties."""
        u, v = validate_pair_indices(u, v, self.n)
        S = self._S
        resistances = S[u, u] + S[v, v] - 2.0 * S[u, v]
        return apply_pair_semantics(resistances, self._labels, u, v)

    @property
    def repairs_applied(self) -> int:
        """Number of rank-1 repairs absorbed since the oracle was built."""
        return self._repairs

    def apply_update(self, u: int, v: int, delta: float) -> bool:
        """Absorb an edge weight change as one rank-1 update of ``S``.

        Sherman-Morrison on the stored grounded inverse:
        ``S' = S - (delta / denom) y y^T`` with ``y = S (e_u - e_v)`` and
        ``denom = 1 + delta (y_u - y_v)`` -- ``O(n^2)`` instead of the ``n``
        batched triangular solves of a rebuild.  Returns ``False`` (oracle
        unchanged except for refusals being free) for cross-component pairs,
        a denominator below :data:`REPAIR_DENOM_TOL` (bridge removal /
        ill-conditioning) or an exhausted ``O(sqrt(n))`` update budget.
        Removals are routed here like any other weight change -- the
        denominator guard is what refuses the bridge removals that would
        split a component (the serving layer rebuilds the oracle for those).
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge endpoints out of range [0, {self.n})")
        if u == v:
            raise ValueError(f"self-loops are not allowed: ({u}, {v})")
        delta = float(delta)
        if delta == 0.0:
            return True
        if not self._S.flags.writeable:
            # shared-memory backed oracle (see repro.serve.shm): the inverse
            # is a read-only view other processes serve from concurrently, so
            # in-place repair is refused and the caller rebuilds instead
            return False
        if self._labels[u] != self._labels[v]:
            return False
        if self._repairs >= self.max_updates:
            return False
        y = self._S[:, u] - self._S[:, v]
        denom = 1.0 + delta * (y[u] - y[v])
        if not denom > REPAIR_DENOM_TOL:
            return False
        # one in-place BLAS rank-1 update, no n x n temporary: the update is
        # symmetric, so S^T (Fortran-ordered over S's buffer) can take it
        self._S = dger(-delta / denom, y, y, a=self._S.T, overwrite_a=True).T
        self._repairs += 1
        return True

    def apply_delta(self, delta, *, graph, grounded, on_step) -> bool:
        """Absorb a whole mutation ``delta``; ``False`` = drop and rebuild.

        The repair protocol of :meth:`RepairableGroundedSolver.apply_delta`.
        Every record (add / reweight / remove) goes through
        :meth:`apply_update`, whose denominator guard refuses bridge
        removals; a delta longer than the remaining update budget is refused
        before any ``O(n^2)`` work.
        """
        if self.max_updates - self._repairs < len(delta):
            return False
        for step, record in enumerate(delta):
            on_step(step)
            if not self.apply_update(record.u, record.v, record.weight_delta):
                return False
        return True

    def share_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Arrays + scalar metadata for shared-memory publication.

        The returned ``(arrays, meta)`` pair is what
        :meth:`repro.serve.shm.SharedArtifactStore.publish` packs into a
        segment; :meth:`from_shared` inverts it in the attaching process.
        """
        arrays = {"S": self._S, "labels": self._labels}
        meta = {
            "n": int(self.n),
            "max_updates": int(self.max_updates),
            "repairs": int(self._repairs),
        }
        return arrays, meta

    @classmethod
    def from_shared(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
    ) -> "ResistanceOracle":
        """Rebuild an oracle over shared read-only views, skipping all solves.

        The views come straight out of an attached shared-memory segment
        (zero-copy); queries read them exactly like privately owned arrays,
        while :meth:`apply_update` sees the read-only flag and refuses
        in-place repair, so mutations fall back to a rebuild.
        """
        oracle = cls.__new__(cls)
        oracle.n = int(meta["n"])
        oracle.max_updates = int(meta["max_updates"])
        oracle._repairs = int(meta["repairs"])
        oracle._S = arrays["S"]
        oracle._labels = arrays["labels"]
        return oracle

    def nbytes(self) -> int:
        """Resident size for cache accounting (the dense ``n x n`` dominates)."""
        return int(self._S.nbytes + self._labels.nbytes)


# -- effective resistances -----------------------------------------------------


def effective_resistances_sparse(
    graph: WeightedGraph, batch_size: int = DEFAULT_BATCH_SIZE
) -> np.ndarray:
    """Effective resistance of every edge via one factorisation + batched solves.

    Instead of reading ``m`` separate ``chi^T L^+ chi`` products off a dense
    pseudoinverse, this grounds the Laplacian, factorises it once and
    solves ``L x_e = chi_e`` for ``batch_size`` edges at a time;
    ``R_e = chi_e^T x_e = x_e[u] - x_e[v]``.  Total cost is one ``splu`` plus
    ``m`` triangular solves.
    """
    m = graph.m
    if m == 0:
        return np.zeros(0)
    u, v, _ = graph.edge_array()
    solver = GroundedLaplacianSolver(graph)
    resistances = np.zeros(m)
    for start in range(0, m, batch_size):
        stop = min(m, start + batch_size)
        resistances[start:stop] = solver.edge_resistances(u[start:stop], v[start:stop])
    return resistances


# -- spectral certification ----------------------------------------------------

#: Reduced-system size below which the generalized eigenproblem is solved
#: densely (ARPACK needs ``k < n`` and tiny pencils are cheaper with LAPACK).
DENSE_EIG_FALLBACK = 64

#: Largest reduced system the ARPACK-failure path may densify: above this,
#: ``toarray()`` + LAPACK would cost the O(n^2) memory / O(n^3) time the
#: sparse certifier exists to avoid, so a relaxed-tolerance retry runs instead.
DENSE_EIG_FALLBACK_LIMIT = 2048

#: Relative accuracy requested from ARPACK for the pencil extremes; small
#: enough that the certifier agrees with the dense test reference to ~1e-8.
PENCIL_EIG_TOL = 1e-12

#: Tolerance of the large-system retry after an ARPACK convergence failure.
PENCIL_EIG_TOL_RELAXED = 1e-8


def _dense_pencil_extremes(A, B) -> Tuple[float, float]:
    import scipy.linalg as sla

    vals = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True)
    return float(vals[0]), float(vals[-1])


def pencil_extreme_eigenvalues(
    graph: WeightedGraph,
    sparsifier: WeightedGraph,
    tol: float = PENCIL_EIG_TOL,
    components=None,
    graph_solver: Optional[GroundedLaplacianSolver] = None,
    sparsifier_solver: Optional[GroundedLaplacianSolver] = None,
) -> Tuple[float, float]:
    """Extreme generalized eigenvalues ``(lo, hi)`` of ``(L_G, L_H)``.

    ``lo`` and ``hi`` are the smallest/largest ``lambda`` with
    ``L_G x = lambda L_H x`` over the space orthogonal to the (common) kernel,
    i.e. the tightest pair with ``lo L_H <= L_G <= hi L_H``.  Both graphs must
    have the same connected-component partition (the caller guarantees this,
    and passes it as ``components`` when already computed -- the certification
    front-end builds it anyway for the partition-equality check).  Grounding
    the minimum vertex of every component then leaves an SPD pencil with
    exactly the restricted eigenvalues: the generalized Rayleigh quotient is
    invariant under per-component shifts.

    The largest eigenvalue of an SPD pencil is where Lanczos shines, so
    ``hi`` comes from ``eigsh(A, M=B, which='LA')`` directly and ``lo`` from
    the reversed pencil as ``1 / max-eig(B, A)`` -- no shift-invert and never
    a dense ``n x n`` matrix.  Each run needs the inverse of its ``M``; both
    come from :class:`GroundedLaplacianSolver` factorisations (``Minv=`` over
    ``_reduced_solve``), never from ``eigsh``'s own ``splu``.  Pass
    ``graph_solver`` / ``sparsifier_solver`` when the caller already holds
    them (the Laplacian solver's preprocessing does: the sparsifier's is its
    preconditioner, the graph's its exact reference), so each matrix is
    factorised once; a supplied solver must ground the same vertices, which
    a repaired one that re-grounded a split component does not
    (``ValueError``).  Tiny reduced systems fall back to the LAPACK
    generalized solver, as does an ARPACK convergence failure up to
    ``DENSE_EIG_FALLBACK_LIMIT`` unknowns; beyond that size a failure retries
    with a relaxed tolerance and a larger Krylov basis rather than densify.
    """
    if components is None:
        components = graph.connected_components()
    keep_idx = grounding_keep_indices(graph.n, components)
    n_reduced = keep_idx.size
    if n_reduced == 0:
        # every component is a singleton: both Laplacians are identically zero
        return (1.0, 1.0)
    A = laplacian_csr(graph)[keep_idx][:, keep_idx]
    B = laplacian_csr(sparsifier)[keep_idx][:, keep_idx]
    if n_reduced <= DENSE_EIG_FALLBACK:
        return _dense_pencil_extremes(A, B)

    def inverse(solver: Optional[GroundedLaplacianSolver], of: WeightedGraph):
        if solver is None:
            solver = GroundedLaplacianSolver(of)
        if not np.array_equal(solver._keep_idx, keep_idx):
            raise ValueError(
                "grounded solver and pencil ground different vertices "
                "(was the solver re-grounded by a component-split repair?)"
            )
        return spla.LinearOperator(
            (n_reduced, n_reduced), matvec=solver._reduced_solve, dtype=float
        )

    A_inv = inverse(graph_solver, graph)
    B_inv = inverse(sparsifier_solver, sparsifier)
    # seeded starting vector: ARPACK otherwise randomises v0, which would make
    # repeated certifications of the same pair differ within the tolerance
    v0 = np.random.default_rng(0x5EED).standard_normal(n_reduced)

    def extremes(eig_tol: float, ncv: Optional[int] = None) -> Tuple[float, float]:
        hi = float(
            spla.eigsh(
                A, k=1, M=B, Minv=B_inv, which="LA", tol=eig_tol, v0=v0, ncv=ncv,
                return_eigenvectors=False,
            )[0]
        )
        lo_inv = float(
            spla.eigsh(
                B, k=1, M=A, Minv=A_inv, which="LA", tol=eig_tol, v0=v0, ncv=ncv,
                return_eigenvectors=False,
            )[0]
        )
        return (1.0 / lo_inv, hi)

    try:
        return extremes(tol)
    except (spla.ArpackError, spla.ArpackNoConvergence):
        if n_reduced <= DENSE_EIG_FALLBACK_LIMIT:
            return _dense_pencil_extremes(A, B)
        # Densifying here would cost the O(n^2) memory the sparse certifier
        # exists to avoid; retry with a looser tolerance and a larger Krylov
        # basis instead (still within the documented ~1e-8 agreement).
        return extremes(PENCIL_EIG_TOL_RELAXED, ncv=min(n_reduced - 1, 64))


# -- operator adapters ---------------------------------------------------------


def as_apply_fn(operator) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt a dense matrix, sparse matrix or callable to ``v -> A @ v``."""
    if callable(operator) and not sp.issparse(operator) and not isinstance(operator, np.ndarray):
        return operator
    return lambda vector: operator @ np.asarray(vector, dtype=float)
