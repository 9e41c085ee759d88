"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import is_hypothesis_test, settings

from repro.graphs import generators
from repro.graphs.graph import WeightedGraph

# tests/spanners/reference_executor.py (the frozen per-vertex spanner executor)
# is also the base of the historical references in
# tests/sparsify/reference_sparsify.py, and tests/linalg/reference_dense.py (the
# frozen pinv / eigh linear algebra) is the oracle of the solver and api tests
# too; tests/graphs/reference_generators.py holds the frozen scalar generators
# and the small instances (path, cycle, star, barbell) tests across the tree use
for _reference_dir in ("spanners", "sparsify", "linalg", "graphs"):
    sys.path.insert(0, str(Path(__file__).resolve().parent / _reference_dir))

# Every property runs the same examples on every box (derandomised, no example
# database), so a red run is reproducible by anyone.  Loading the profile here
# also overrides the one hypothesis picks by itself on CI.  `pytest
# --hypothesis-profile=explore` draws fresh random examples instead, with every
# property's pinned max_examples multiplied by EXPLORE_SCALE.
settings.register_profile("default", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", derandomize=False, deadline=None)
settings.load_profile("default")
EXPLORE_SCALE = 25


def pytest_collection_modifyitems(items):
    if settings.get_current_profile_name() != "explore":
        return
    # parametrised items share one function: scale each function once
    tests = {getattr(item, "function", None) for item in items}
    for test in filter(is_hypothesis_test, tests):
        pinned = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            pinned, max_examples=EXPLORE_SCALE * pinned.max_examples
        )


@pytest.fixture
def rng():
    """A deterministically seeded numpy Generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_graph() -> WeightedGraph:
    """A small connected weighted graph used across many tests."""
    return generators.random_weighted_graph(16, average_degree=5, max_weight=8, seed=7)


@pytest.fixture
def medium_graph() -> WeightedGraph:
    """A medium connected weighted graph (still fast to eigendecompose)."""
    return generators.random_weighted_graph(40, average_degree=7, max_weight=16, seed=11)


@pytest.fixture
def triangle() -> WeightedGraph:
    """The weighted triangle graph."""
    g = WeightedGraph(3)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(0, 2, 4.0)
    return g


@pytest.fixture
def path4() -> WeightedGraph:
    """A path on four vertices with unit weights."""
    return WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


@pytest.fixture
def linalg_counts(monkeypatch) -> Counter:
    """Counts every ``splu`` factorisation and every ``eigsh`` run in the process.

    ``eigsh`` factorises its ``M`` with a ``splu`` its own module imported by
    name, so that binding is wrapped too: ``counts["splu"]`` sees the
    factorisations an eigensolver runs internally as well as the repo's own.
    """
    import scipy.sparse.linalg as spla

    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    arpack = sys.modules[spla.eigsh.__module__]
    monkeypatch.setattr(arpack, "splu", counting("splu", arpack.splu))
    monkeypatch.setattr(spla, "splu", counting("splu", spla.splu))
    monkeypatch.setattr(spla, "eigsh", counting("eigsh", spla.eigsh))
    return counts
