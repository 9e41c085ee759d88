"""Graph and matrix substrate.

Weighted undirected graphs (the objects spanners/sparsifiers/Laplacians are
computed on), directed capacitated graphs (the flow instances of Section 5),
Laplacian and edge-vertex incidence matrices (Section 2.2), spectral
comparisons, and a library of graph generators used by the tests, examples and
benchmark workloads.
"""

from repro.graphs.graph import Edge, EdgeView, MutationRecord, WeightedGraph
from repro.graphs.digraph import DirectedEdge, FlowNetwork
from repro.graphs.laplacian import (
    effective_resistances,
    incidence_matrix,
    is_spectral_sparsifier,
    spectral_approximation_factor,
)
from repro.graphs import generators

__all__ = [
    "Edge",
    "EdgeView",
    "MutationRecord",
    "WeightedGraph",
    "DirectedEdge",
    "FlowNetwork",
    "incidence_matrix",
    "effective_resistances",
    "is_spectral_sparsifier",
    "spectral_approximation_factor",
    "generators",
]
