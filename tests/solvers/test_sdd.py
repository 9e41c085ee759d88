"""Tests for the Gremban SDD-to-Laplacian reduction and SDD solver."""

import numpy as np
import pytest

import reference_dense
from repro.graphs import generators, laplacian_matrix
from repro.graphs.laplacian import is_symmetric_diagonally_dominant
from repro.solvers.sdd import GrembanReduction, SDDSolver, gremban_expand, is_sdd_matrix


def random_sdd_matrix(n, seed=0, with_positive_offdiag=True):
    """A strictly diagonally dominant symmetric matrix with mixed off-diagonal signs."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    M = (A + A.T) / 2
    np.fill_diagonal(M, 0.0)
    if not with_positive_offdiag:
        M = -np.abs(M)
    row_sums = np.sum(np.abs(M), axis=1)
    M = M + np.diag(row_sums + rng.uniform(0.1, 1.0, size=n))
    return M


class TestSDDCheck:
    def test_accepts_sdd(self):
        assert is_sdd_matrix(random_sdd_matrix(8, seed=1))

    def test_rejects_non_sdd(self):
        M = np.array([[1.0, -5.0], [-5.0, 1.0]])
        assert not is_sdd_matrix(M)

    def test_laplacian_is_sdd(self):
        g = generators.random_weighted_graph(10, seed=2)
        assert is_sdd_matrix(laplacian_matrix(g))


class TestGrembanExpansion:
    def test_expansion_is_laplacian(self):
        M = random_sdd_matrix(8, seed=3)
        L = gremban_expand(M)
        assert L.shape == (16, 16)
        assert is_symmetric_diagonally_dominant(L)
        np.testing.assert_allclose(L @ np.ones(16), 0.0, atol=1e-9)
        off_diag = L - np.diag(np.diag(L))
        assert np.all(off_diag <= 1e-12)

    def test_expansion_rejects_non_sdd(self):
        with pytest.raises(ValueError):
            gremban_expand(np.array([[1.0, -5.0], [-5.0, 1.0]]))

    def test_reduction_recovers_solution(self):
        M = random_sdd_matrix(10, seed=4)
        reduction = GrembanReduction.from_sdd(M)
        rng = np.random.default_rng(5)
        x_true = rng.normal(size=10)
        b = M @ x_true
        lifted = reduction.lift_rhs(b)
        xy = np.linalg.pinv(reduction.laplacian) @ lifted
        x = reduction.restrict_solution(xy)
        np.testing.assert_allclose(x, x_true, atol=1e-7)

    def test_expansion_graph_roundtrip(self):
        M = random_sdd_matrix(6, seed=6)
        reduction = GrembanReduction.from_sdd(M)
        graph = reduction.expansion_graph()
        np.testing.assert_allclose(
            laplacian_matrix(graph), reduction.laplacian, atol=1e-9
        )


class TestSDDSolver:
    @pytest.mark.parametrize("with_pos", [True, False])
    def test_direct_method_accuracy(self, with_pos):
        M = random_sdd_matrix(12, seed=7, with_positive_offdiag=with_pos)
        rng = np.random.default_rng(8)
        x_true = rng.normal(size=12)
        solver = SDDSolver(M, method="direct")
        x = solver.solve(M @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-7)

    def test_bcc_method_accuracy(self):
        M = random_sdd_matrix(10, seed=9)
        rng = np.random.default_rng(10)
        x_true = rng.normal(size=10)
        solver = SDDSolver(M, method="bcc", seed=1, t_override=2)
        x = solver.solve(M @ x_true, eps=1e-10)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-6
        assert solver.rounds > 0

    def test_flow_style_matrix(self):
        """The A^T D A matrices of Section 5 are SDD; check the solver on one."""
        net = generators.random_flow_network(8, seed=11)
        B = net.incidence_matrix(drop_vertex=net.source)
        m = B.shape[0]
        rng = np.random.default_rng(12)
        D = np.diag(rng.uniform(0.5, 2.0, size=m))
        M = B.T @ D @ B + 1e-3 * np.eye(B.shape[1])
        assert is_sdd_matrix(M)
        x_true = rng.normal(size=M.shape[0])
        solver = SDDSolver(M, method="direct")
        np.testing.assert_allclose(solver.solve(M @ x_true), x_true, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            SDDSolver(np.array([[1.0, -9.0], [-9.0, 1.0]]))
        with pytest.raises(ValueError):
            SDDSolver(random_sdd_matrix(5), method="fancy")
        solver = SDDSolver(random_sdd_matrix(5))
        with pytest.raises(ValueError):
            solver.solve(np.zeros(3))


class TestSparseDirectBackend:
    def test_sparse_backend_matches_dense(self):
        M = random_sdd_matrix(14, seed=21, with_positive_offdiag=True)
        rng = np.random.default_rng(22)
        x_true = rng.normal(size=14)
        b = M @ x_true
        xd = reference_dense.sdd_solve(M, b)
        xs = SDDSolver(M, method="direct").solve(b)
        np.testing.assert_allclose(xs, xd, atol=1e-8)
        np.testing.assert_allclose(xs, x_true, atol=1e-7)

    def test_sparse_backend_on_singular_laplacian_input(self):
        g = generators.random_weighted_graph(10, seed=23)
        M = laplacian_matrix(g)
        rng = np.random.default_rng(24)
        x_true = rng.normal(size=10)
        x_true -= x_true.mean()
        b = M @ x_true  # consistent by construction
        xs = SDDSolver(M, method="direct").solve(b)
        np.testing.assert_allclose(M @ xs, b, atol=1e-8)
        np.testing.assert_allclose(xs, reference_dense.sdd_solve(M, b), atol=1e-8)
