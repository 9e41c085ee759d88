"""The dense Kane-Nelson expansion, frozen as a test reference.

``src/`` builds the Kane-Nelson transform one way,
:func:`repro.linalg.jl.kane_nelson_sketch` (sparse CSR, batched draws).  This
module keeps the textbook column-by-column construction it replaced, so
``tests/linalg/test_jl.py`` can hold the sparse sketch to the same shape
contract.  The two consume the PRG differently: for one seed they give
different matrices from the same distribution.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


def kane_nelson_matrix(
    k: int,
    m: int,
    seed_bits: int,
    column_sparsity: Optional[int] = None,
) -> np.ndarray:
    """Dense ``Q in R^{k x m}``: ``s`` distinct rows of ``+/- 1/sqrt(s)`` per column."""
    if k < 1 or m < 1:
        raise ValueError(f"matrix dimensions must be positive, got k={k}, m={m}")
    s = column_sparsity if column_sparsity is not None else max(1, math.ceil(math.sqrt(k)))
    s = min(s, k)
    prg = np.random.default_rng(int(seed_bits) & ((1 << 63) - 1))
    Q = np.zeros((k, m))
    scale = 1.0 / math.sqrt(s)
    for column in range(m):
        rows = prg.choice(k, size=s, replace=False)
        signs = prg.integers(0, 2, size=s) * 2 - 1
        Q[rows, column] = signs * scale
    return Q
