"""Tests for preconditioned Chebyshev iteration (Theorem 2.3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators, laplacian_matrix
from repro.solvers.chebyshev import (
    chebyshev_error_bound,
    chebyshev_iteration_count,
    preconditioned_chebyshev,
)


def spd_system(n, condition, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigenvalues = np.linspace(1.0, condition, n)
    A = Q @ np.diag(eigenvalues) @ Q.T
    x = rng.normal(size=n)
    return A, x, A @ x


class TestIterationCount:
    def test_scales_with_sqrt_kappa(self):
        assert chebyshev_iteration_count(100.0, 1e-3) >= 2 * chebyshev_iteration_count(4.0, 1e-3)

    def test_scales_with_log_eps(self):
        assert chebyshev_iteration_count(4.0, 1e-8) > chebyshev_iteration_count(4.0, 1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_iteration_count(0.5, 1e-3)
        with pytest.raises(ValueError):
            chebyshev_iteration_count(2.0, 0.9)

    def test_error_bound_decreases(self):
        assert chebyshev_error_bound(10.0, 20) < chebyshev_error_bound(10.0, 5)
        assert chebyshev_error_bound(1.0, 3) == 0.0
        assert chebyshev_error_bound(10.0, 0) == 1.0

    def test_error_bound_is_reciprocal_chebyshev_polynomial(self):
        for kappa, k in [(3.0, 5), (50.0, 17), (549.0, 40)]:
            sigma = (kappa + 1.0) / (kappa - 1.0)
            expected = 1.0 / math.cosh(k * math.acosh(sigma))
            assert chebyshev_error_bound(kappa, k) == pytest.approx(expected, rel=1e-12)
            # strictly below the textbook 2 q^k it replaces
            q = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
            assert chebyshev_error_bound(kappa, k) < 2.0 * q**k

    @pytest.mark.parametrize(
        "kappa", [1.0, float(np.nextafter(1.0, 2.0)), 1.0 + 1e-9, 1.1, 3.0, 549.135, 1e6, 1e12]
    )
    @pytest.mark.parametrize("eps", [0.5, 1e-2, 1e-6, 1e-8, 1e-12])
    def test_count_is_the_least_degree_meeting_eps(self, kappa, eps):
        k = chebyshev_iteration_count(kappa, eps)
        assert k >= 1
        assert chebyshev_error_bound(kappa, k) <= eps
        assert k == 1 or chebyshev_error_bound(kappa, k - 1) > eps

    def test_count_against_the_closed_form(self):
        # 8 where the old ceil(sqrt(kappa) (ln 1/eps + 1)) said 30; half at kappa ~ 549
        assert chebyshev_iteration_count(1.1, 1e-12) == 8
        assert chebyshev_iteration_count(549.135, 1e-8) == 224
        assert chebyshev_iteration_count(3.0, 1e-6) == math.ceil(
            math.acosh(1e6) / math.acosh(2.0)
        )


def a_norm_error(A, x, x_true):
    a_norm = lambda v: float(np.sqrt(max(0.0, v @ A @ v)))
    return a_norm(x - x_true) / a_norm(x_true)


class TestSharpBudget:
    """The default budget is sufficient on every pair and necessary on one."""

    @pytest.mark.parametrize("kappa", [1.5, 3.0, 40.0, 549.135])
    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
    def test_attainment_at_the_extreme_eigenvector(self, kappa, eps):
        # A diagonal with spectrum in [1/kappa, 1], B = I, x* = the eigenvector
        # at 1/kappa: the error after k steps is exactly |p_k(1/kappa)| = 1/T_k
        n = 12
        eigenvalues = np.linspace(1.0 / kappa, 1.0, n)
        A = np.diag(eigenvalues)
        x_true = np.zeros(n)
        x_true[0] = 1.0
        b = A @ x_true
        k = chebyshev_iteration_count(kappa, eps)

        def error_after(iterations):
            x, report = preconditioned_chebyshev(
                A, lambda r: r, b, kappa=kappa, eps=eps, max_iterations=iterations
            )
            assert report.iterations == iterations
            return a_norm_error(A, x, x_true)

        for iterations in {1, max(1, k // 2), max(1, k - 1), k}:
            assert error_after(iterations) == pytest.approx(
                chebyshev_error_bound(kappa, iterations), rel=1e-6, abs=1e-13
            )
        assert error_after(k) <= eps
        if k > 1:
            assert error_after(k - 1) > eps  # one fewer would not suffice

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 9),
        kappa=st.floats(1.0, 200.0),
        log_eps=st.floats(math.log10(1e-12), math.log10(0.5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_default_budget_meets_eps_on_random_spd_pairs(self, n, kappa, log_eps, seed):
        eps = min(0.5, 10.0**log_eps)
        rng = np.random.default_rng(seed)
        # B SPD with a modest condition number; A = B^{1/2} M B^{1/2} with the
        # spectrum of M drawn in [1/kappa, 1] and both ends present
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        root_B = Q @ np.diag(np.sqrt(rng.uniform(1.0, 10.0, size=n))) @ Q.T
        P, _ = np.linalg.qr(rng.normal(size=(n, n)))
        mu = rng.uniform(1.0 / kappa, 1.0, size=n)
        mu[0], mu[-1] = 1.0 / kappa, 1.0
        A = root_B @ P @ np.diag(mu) @ P.T @ root_B
        A = 0.5 * (A + A.T)
        B_inv = np.linalg.inv(root_B @ root_B)
        x_true = rng.normal(size=n)
        x, report = preconditioned_chebyshev(
            A, lambda r: B_inv @ r, A @ x_true, kappa=kappa, eps=eps
        )
        assert report.iterations == chebyshev_iteration_count(kappa, eps)
        rounding = 1e3 * np.finfo(float).eps * np.linalg.cond(A)
        assert a_norm_error(A, x, x_true) <= eps * (1.0 + 1e-9) + rounding


class TestSPDSystems:
    def test_identity_preconditioner_with_true_kappa(self):
        A, x_true, b = spd_system(20, condition=50.0, seed=1)
        # B = lambda_max * I satisfies A <= B <= kappa A with kappa = 50
        x, report = preconditioned_chebyshev(
            apply_A=lambda v: A @ v,
            solve_B=lambda r: r / 50.0,
            b=b,
            kappa=50.0,
            eps=1e-8,
        )
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-6
        assert report.iterations <= chebyshev_iteration_count(50.0, 1e-8)

    def test_exact_preconditioner_converges_immediately(self):
        A, x_true, b = spd_system(15, condition=100.0, seed=2)
        A_inv = np.linalg.inv(A)
        x, report = preconditioned_chebyshev(
            apply_A=lambda v: A @ v,
            solve_B=lambda r: A_inv @ r,
            b=b,
            kappa=1.0,
            eps=1e-10,
        )
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-9
        assert report.iterations == 1

    def test_convergence_rate_beats_theory_bound(self):
        A, x_true, b = spd_system(25, condition=30.0, seed=3)
        iterations = 25
        x, _ = preconditioned_chebyshev(
            apply_A=lambda v: A @ v,
            solve_B=lambda r: r / 30.0,
            b=b,
            kappa=30.0,
            eps=1e-12,
            max_iterations=iterations,
        )
        a_norm = lambda v: float(np.sqrt(v @ A @ v))
        error = a_norm(x - x_true) / a_norm(x_true)
        assert error <= chebyshev_error_bound(30.0, iterations) + 1e-12

    def test_report_counts_operations(self):
        A, _x, b = spd_system(10, condition=10.0, seed=5)
        _x2, report = preconditioned_chebyshev(
            apply_A=lambda v: A @ v,
            solve_B=lambda r: r / 10.0,
            b=b,
            kappa=10.0,
            eps=1e-6,
        )
        assert report.matvec_count >= report.iterations
        assert report.preconditioner_solves >= 1


class TestLaplacianSystems:
    def test_singular_laplacian_with_pinv_preconditioner(self):
        g = generators.random_weighted_graph(20, seed=6)
        L = laplacian_matrix(g)
        rng = np.random.default_rng(7)
        x_true = rng.normal(size=g.n)
        x_true -= x_true.mean()
        b = L @ x_true
        L_pinv = np.linalg.pinv(L)
        x, _report = preconditioned_chebyshev(
            apply_A=lambda v: L @ v,
            solve_B=lambda r: L_pinv @ r,
            b=b,
            kappa=1.0,
            eps=1e-10,
        )
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-8

    def test_sparsifier_style_preconditioner_kappa3(self):
        """Corollary 2.4's setting: B = 1.5 * L_H with H = G (exact sparsifier)."""
        g = generators.random_weighted_graph(18, seed=8)
        L = laplacian_matrix(g)
        B = 1.5 * L
        B_pinv = np.linalg.pinv(B)
        rng = np.random.default_rng(9)
        x_true = rng.normal(size=g.n)
        x_true -= x_true.mean()
        b = L @ x_true
        x, report = preconditioned_chebyshev(
            apply_A=lambda v: L @ v,
            solve_B=lambda r: B_pinv @ r,
            b=b,
            kappa=3.0,
            eps=1e-9,
        )
        a_norm = lambda v: float(np.sqrt(max(0.0, v @ L @ v)))
        assert a_norm(x - x_true) <= 1e-9 * a_norm(x_true) + 1e-12
        assert report.iterations <= chebyshev_iteration_count(3.0, 1e-9)
