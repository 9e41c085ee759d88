"""Shared helpers for the benchmark harness.

Every module ``bench_*.py`` regenerates one experiment (E1-E10; the series
they feed are listed in ``docs/benchmarks.md``).  pytest-benchmark measures wall-clock time of the building blocks;
the quantities the paper actually bounds (rounds, sizes, iteration counts) are
attached to each benchmark through ``benchmark.extra_info`` and printed in the
saved benchmark JSON, so `pytest benchmarks/ --benchmark-only` reproduces the
full claimed-vs-measured table.
"""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(2022)
