"""Frozen sequential references for the low-rank repair paths.

:class:`SequentialRepairableSolver` is the rank-1 repair loop
:class:`repro.linalg.sparse_backend.RepairableGroundedSolver` replaced by one
blocked Woodbury step: every accepted Sherman-Morrison correction is stored
as its own ``(z, denom)`` pair and applied one after the other, with its own
``np.outer`` on a block.  :func:`kane_nelson_built_columns` re-derives built
columns of :func:`repro.linalg.jl.kane_nelson_sketch` by replaying all of its
draws, which the sketched resistance oracle replaced by storing each built
column's rows and signs.  Both are kept only as the oracles
``tests/linalg/test_low_rank_repair.py`` checks the new code against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.linalg.jl import _floyd_distinct_rows
from repro.linalg.sparse_backend import (
    REPAIR_DENOM_TOL,
    GroundedLaplacianSolver,
    default_update_budget,
)


@dataclass
class _RankOneUpdate:
    """One applied Sherman-Morrison correction, in reduced coordinates."""

    pu: int  # reduced position of u (-1 = grounded)
    pv: int  # reduced position of v (-1 = grounded)
    delta: float
    z: np.ndarray  # (inverse after previous updates) @ chi
    denom: float  # 1 + delta * chi^T z
    u: int = -1
    v: int = -1
    split: bool = False

    def chi_dot(self, X: np.ndarray) -> np.ndarray:
        xu = X[self.pu] if self.pu >= 0 else 0.0
        xv = X[self.pv] if self.pv >= 0 else 0.0
        return xu - xv


@dataclass
class _IndicatorUpdate:
    """Rank-1 regulariser ``A += rho kappa kappa^T`` of a split-off side."""

    idx: np.ndarray
    delta: float
    z: np.ndarray
    denom: float

    def chi_dot(self, X: np.ndarray) -> np.ndarray:
        return X[self.idx].sum(axis=0)


class SequentialRepairableSolver(GroundedLaplacianSolver):
    """The sequential Sherman-Morrison repair loop, decisions included."""

    def __init__(self, graph, max_updates: Optional[int] = None):
        super().__init__(graph)
        self.max_updates = (
            int(max_updates) if max_updates is not None else default_update_budget(self.n)
        )
        self._updates: List = []

    @property
    def updates_applied(self) -> int:
        return len(self._updates)

    def _edge_solve(self, u: int, v: int):
        pu, pv = int(self._position[u]), int(self._position[v])
        c = np.zeros(self._keep_idx.size)
        if pu >= 0:
            c[pu] += 1.0
        if pv >= 0:
            c[pv] -= 1.0
        z = self._reduced_solve(c)
        ctz = (z[pu] if pu >= 0 else 0.0) - (z[pv] if pv >= 0 else 0.0)
        return pu, pv, z, ctz

    def apply_update(self, u: int, v: int, delta: float, split_side=None) -> bool:
        delta = float(delta)
        if delta == 0.0:
            return True
        labels = self.component_labels()
        if labels[u] != labels[v]:
            return False
        if len(self._updates) >= self.max_updates or self._lu is None:
            return False
        pu, pv, z, ctz = self._edge_solve(u, v)
        denom = 1.0 + delta * ctz
        if denom > REPAIR_DENOM_TOL:
            self._updates.append(
                _RankOneUpdate(pu=pu, pv=pv, delta=delta, z=z, denom=denom, u=u, v=v)
            )
            return True
        if delta < 0.0 and split_side is not None:
            return self._apply_split_removal(u, v, delta, split_side)
        return False

    def _apply_split_removal(self, u: int, v: int, delta: float, split_side) -> bool:
        if self.max_updates - len(self._updates) < 2:
            return False
        side = np.unique(np.asarray(list(split_side), dtype=np.int64))
        if side.size == 0 or side.min() < 0 or side.max() >= self.n:
            return False
        labels = self.component_labels()
        label = int(labels[u])
        component, comp_index = None, -1
        for i, comp in enumerate(self._components):
            if labels[comp[0]] == label:
                component, comp_index = comp, i
                break
        if component is None or side.size >= component.size:
            return False
        if not np.isin(side, component).all():
            return False
        in_side = np.zeros(self.n, dtype=bool)
        in_side[side] = True
        if in_side[u] == in_side[v]:
            return False
        other = component[~in_side[component]]
        side_positions = self._position[side]
        if (side_positions >= 0).all():
            ungrounded_pos = side_positions
        else:
            ungrounded_pos = self._position[other]
            if not (ungrounded_pos >= 0).all():
                return False
        rho = abs(float(delta))
        kappa = np.zeros(self._keep_idx.size)
        kappa[ungrounded_pos] = 1.0
        y = self._reduced_solve(kappa)
        denom_ground = 1.0 + rho * float(y[ungrounded_pos].sum())
        self._updates.append(
            _IndicatorUpdate(idx=ungrounded_pos, delta=rho, z=y, denom=denom_ground)
        )
        pu, pv, z, ctz = self._edge_solve(u, v)
        denom = 1.0 + delta * ctz
        if not denom > REPAIR_DENOM_TOL:
            self._updates.pop()
            return False
        self._updates.append(
            _RankOneUpdate(pu=pu, pv=pv, delta=delta, z=z, denom=denom, u=u, v=v, split=True)
        )
        self._components[comp_index] = np.sort(other)
        self._components.append(np.sort(side))
        self._component_label = None
        return True

    def update_log(self):
        log = []
        for update in self._updates:
            if isinstance(update, _IndicatorUpdate):
                continue
            z_full = np.zeros(self.n)
            z_full[self._keep_idx] = update.z / update.denom
            log.append((update.u, update.v, update.delta, z_full, update.split))
        return log

    def _reduced_solve(self, rhs: np.ndarray) -> np.ndarray:
        X = self._lu.solve(rhs)
        for update in self._updates:
            coeff = (update.delta / update.denom) * update.chi_dot(X)
            if X.ndim == 1:
                X -= coeff * update.z
            else:
                X -= np.outer(update.z, coeff)
        return X


def kane_nelson_built_columns(
    k: int,
    m: int,
    seed_bits: int,
    column_indices,
    column_sparsity: Optional[int] = None,
) -> np.ndarray:
    """Dense ``(k, len(column_indices))`` block of ``kane_nelson_sketch`` columns.

    Replays every vectorised draw of the batched construction (``O(m s)``)
    and slices out the requested columns, exactly.
    """
    indices = np.asarray(list(column_indices), dtype=np.int64)
    s = column_sparsity if column_sparsity is not None else max(1, math.ceil(math.sqrt(k)))
    s = min(s, k)
    prg = np.random.default_rng(int(seed_bits) & ((1 << 63) - 1))
    rows = _floyd_distinct_rows(prg, m, k, s)
    signs = prg.integers(0, 2, size=(m, s)) * 2 - 1
    block = np.zeros((k, indices.size))
    scale = 1.0 / math.sqrt(s)
    for j, column in enumerate(indices):
        block[rows[column], j] = signs[column] * scale
    return block
