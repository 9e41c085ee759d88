"""E2 -- the BCC Laplacian solver: accuracy and per-instance rounds (Theorem 1.3)."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.solvers import BCCLaplacianSolver


@pytest.fixture(scope="module")
def solver():
    graph = generators.random_weighted_graph(48, average_degree=8, max_weight=16, seed=5)
    return BCCLaplacianSolver(graph, seed=6, t_override=2)


@pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-8])
def test_solve_rounds_scale_with_log_eps(benchmark, solver, eps):
    rng = np.random.default_rng(7)
    b = rng.normal(size=solver.graph.n)

    report = benchmark(lambda: solver.solve(b, eps=eps, check=True))

    benchmark.extra_info["eps"] = eps
    benchmark.extra_info["relative_error_measured"] = float(report.measured_relative_error)
    benchmark.extra_info["error_bound_holds"] = bool(report.error_bound_holds)
    benchmark.extra_info["chebyshev_iterations"] = report.chebyshev.iterations
    benchmark.extra_info["rounds_measured"] = report.rounds
    benchmark.extra_info["rounds_bound_O(log(1/eps) log(nU/eps))"] = round(
        solver.per_instance_round_bound(eps)
    )
    assert report.error_bound_holds


def test_preprocessing_rounds(benchmark):
    graph = generators.random_weighted_graph(32, average_degree=8, max_weight=8, seed=8)
    solver = benchmark(lambda: BCCLaplacianSolver(graph, seed=9, t_override=2))
    benchmark.extra_info["preprocessing_rounds_measured"] = solver.preprocessing.rounds
    benchmark.extra_info["preprocessing_bound_O(log^5 n log(nU))"] = round(
        solver.preprocessing_round_bound()
    )
    benchmark.extra_info["sparsifier_edges"] = solver.preprocessing.sparsifier_edges


@pytest.mark.parametrize("n", [2000, 5000])
def test_large_instance_sparse_backend(benchmark, n):
    """The sizes a dense pseudoinverse cannot touch: n >= 2000, m >= 10000.

    Runs one high-precision solve end to end (CSR Laplacian, grounded splu
    preconditioner); at n=5000 a dense Laplacian alone would be ~200 MB, its
    pseudoinverse O(n^3).
    """
    graph = generators.random_weighted_graph(n, average_degree=11.0, max_weight=16, seed=5)
    rng = np.random.default_rng(7)
    b = rng.normal(size=graph.n)

    def run():
        solver = BCCLaplacianSolver(graph, exact_preconditioner=True)
        return solver.solve(b, eps=1e-8, check=True)

    report = benchmark(run)
    benchmark.extra_info["n"] = graph.n
    benchmark.extra_info["m"] = graph.m
    benchmark.extra_info["relative_error_measured"] = float(report.measured_relative_error)
    benchmark.extra_info["error_bound_holds"] = bool(report.error_bound_holds)
    assert report.error_bound_holds
