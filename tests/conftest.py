"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.graph import WeightedGraph

# tests/spanners/reference_executor.py (the frozen per-vertex spanner executor)
# is also the base of the historical references in tests/sparsify
sys.path.insert(0, str(Path(__file__).resolve().parent / "spanners"))


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
    return generators.path_graph(4)
