"""Kernels: stacking operator, matrix log/exp, and the quadratic-form
identities every derivation leans on."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blbayes.errors import DimensionError, NotPositiveDefiniteError, NumericalError
from blbayes.linalg import (
    matrix_log_spd,
    spd_inverse,
    spd_solve,
    vec_star,
    vec_star_bilinear,
    vec_star_inverse,
)
from conftest import random_spd, random_symmetric
from oracles import complete_square, matrix_exp_sym


class TestVecStar:
    def test_two_by_two_ordering(self):
        # diagonal first, then the super-diagonal
        np.testing.assert_array_equal(vec_star([[1.0, 2.0], [2.0, 3.0]]), [1.0, 3.0, 2.0])

    def test_identity(self):
        np.testing.assert_array_equal(vec_star(np.eye(2)), [1.0, 1.0, 0.0])

    def test_three_by_three(self):
        a = np.array([[1, 2, 3], [2, 4, 5], [3, 5, 6]], dtype=float)
        np.testing.assert_array_equal(vec_star(a), [1, 4, 6, 2, 5, 3])

    def test_inverse_examples(self):
        np.testing.assert_array_equal(vec_star_inverse([1.0, 1.0, 0.0]), np.eye(2))
        a = np.array([[1, 2, 3], [2, 4, 5], [3, 5, 6]], dtype=float)
        np.testing.assert_array_equal(vec_star_inverse([1, 4, 6, 2, 5, 3]), a)

    def test_bad_length_rejected(self):
        for d in (2, 4, 5, 7, 8, 9):
            with pytest.raises(DimensionError):
                vec_star_inverse(np.zeros(d))

    def test_roundtrip_exact_on_random_matrices(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = rng.integers(1, 9)
            a = random_symmetric(rng, n)
            assert np.array_equal(vec_star_inverse(vec_star(a)), a)

    @given(st.integers(min_value=1, max_value=7), st.integers())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        a = random_symmetric(rng, n)
        assert np.array_equal(vec_star_inverse(vec_star(a)), a)

    def test_non_symmetric_rejected(self):
        with pytest.raises(DimensionError):
            vec_star([[1.0, 2.0], [3.0, 4.0]])

    def test_bilinear_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(2, 6)
            a = random_symmetric(rng, n)
            m = rng.normal(size=(n, n))
            lhs = vec_star(a) @ vec_star_bilinear(m)
            assert abs(lhs - np.sum(a * m)) < 1e-12 * max(1.0, abs(lhs))

    def test_bilinear_stack_equals_per_slice_calls(self):
        m = np.random.default_rng(8).normal(size=(3, 2, 5, 5))
        got = vec_star_bilinear(m)
        assert got.shape == (3, 2, 15)
        want = np.array([[vec_star_bilinear(m[a, b]) for b in range(2)] for a in range(3)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_bilinear_rejects_non_square_last_axes(self, shape):
        with pytest.raises(DimensionError):
            vec_star_bilinear(np.zeros(shape))


class TestMatrixLogExp:
    def test_log_identity_is_zero(self):
        np.testing.assert_allclose(matrix_log_spd(np.eye(3)), np.zeros((3, 3)), atol=1e-14)

    def test_log_diagonal(self):
        a = np.diag([np.e, np.e**2])
        np.testing.assert_allclose(matrix_log_spd(a), np.diag([1.0, 2.0]), atol=1e-12)

    def test_exp_zero_is_identity(self):
        np.testing.assert_allclose(matrix_exp_sym(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_exp_diagonal(self):
        np.testing.assert_allclose(
            matrix_exp_sym(np.diag([1.0, 2.0])), np.diag([np.e, np.e**2]), rtol=1e-14
        )

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = random_spd(rng, rng.integers(2, 7))
            back = matrix_exp_sym(matrix_log_spd(a))
            rel = np.linalg.norm(back - a) / np.linalg.norm(a)
            assert rel < 1e-10

    def test_log_exp_roundtrip_moderate_condition(self):
        # symmetric inputs with condition implied <= 1e6 after exponentiation
        rng = np.random.default_rng(12)
        for _ in range(50):
            b = random_symmetric(rng, 4, scale=1.5)  # eigenvalue spread ~ +-6
            back = matrix_log_spd(matrix_exp_sym(b))
            rel = np.linalg.norm(back - b) / max(np.linalg.norm(b), 1e-12)
            assert rel < 1e-10

    def test_det_exp_equals_exp_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            b = random_symmetric(rng, rng.integers(2, 6))
            det = np.linalg.det(matrix_exp_sym(b))
            expected = np.exp(np.trace(b))
            assert abs(det - expected) < 1e-10 * abs(expected)

    def test_log_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefiniteError):
            matrix_log_spd(np.diag([1.0, -0.5]))
        with pytest.raises(NotPositiveDefiniteError):
            matrix_log_spd(np.diag([1.0, 1e-15]))  # below the relative floor

    def test_spd_solve_failure_reports(self):
        with pytest.raises(NumericalError):
            spd_solve(np.diag([1.0, -1.0]), np.ones(2))


class TestConditionWarning:
    @staticmethod
    def rotated(eigvals):
        q, _ = np.linalg.qr(np.random.default_rng(41).normal(size=(len(eigvals),) * 2))
        a = (q * eigvals) @ q.T
        return 0.5 * (a + a.T)

    def test_ill_conditioned_warns(self, caplog):
        a = self.rotated([1.0, 0.3, 1e-11])
        assert 0.5e11 < np.linalg.cond(a) < 2e11
        for call in (lambda: spd_solve(a, np.ones(3), "probe"),
                     lambda: spd_inverse(a, "probe")):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="blbayes.linalg"):
                call()
            assert [r.levelno for r in caplog.records] == [logging.WARNING]
            assert "probe: condition number" in caplog.records[0].message

    def test_well_conditioned_is_silent(self, caplog):
        a = self.rotated([1.0, 0.3, 1e-3])
        with caplog.at_level(logging.DEBUG, logger="blbayes.linalg"):
            spd_solve(a, np.ones(3))
            spd_inverse(a)
        assert caplog.records == []


class TestCompleteSquare:
    def test_coincident_centers(self):
        rng = np.random.default_rng(21)
        a_mat, b_mat = random_spd(rng, 3), random_spd(rng, 3)
        a = rng.normal(size=3)
        y_star, h, combined = complete_square(a_mat, a, b_mat, a)
        np.testing.assert_allclose(y_star, a, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(combined, a_mat + b_mat, rtol=1e-14)
        cross = (a - a) @ h @ (a - a)
        assert cross == 0.0

    def test_scalar_case_by_hand(self):
        # A = B = 1, a = 0, b = 2: y* = 1, H = 1/2, and
        # y^2 + (y-2)^2 == 2(y-1)^2 + 2 at a few probe points
        y_star, h, combined = complete_square([[1.0]], [0.0], [[1.0]], [2.0])
        assert y_star[0] == pytest.approx(1.0)
        assert h[0, 0] == pytest.approx(0.5)
        for y in (0.0, 1.0, 3.0):
            lhs = y**2 + (y - 2.0) ** 2
            rhs = combined[0, 0] * (y - y_star[0]) ** 2 + (0.0 - 2.0) * h[0, 0] * (0.0 - 2.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_identity_at_random_probes(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            a_mat, b_mat = random_spd(rng, 3), random_spd(rng, 3)
            a, b = rng.normal(size=3), rng.normal(size=3)
            y_star, h, combined = complete_square(a_mat, a, b_mat, b)
            for _ in range(20):
                y = rng.normal(size=3) * 3
                lhs = (y - a) @ a_mat @ (y - a) + (y - b) @ b_mat @ (y - b)
                rhs = (y - y_star) @ combined @ (y - y_star) + (a - b) @ h @ (a - b)
                assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            complete_square(np.eye(2), np.zeros(2), np.eye(3), np.zeros(3))


def sum_of_quadratics_lhs(r_rows, mu, sigma_inv):
    return sum((r - mu) @ sigma_inv @ (r - mu) for r in r_rows)


class TestQuadraticIdentities:
    """The two quadratic-form identities every posterior derivation uses."""

    def test_scatter_decomposition(self):
        # sum (r_i-mu)' S^-1 (r_i-mu) ==
        #   sum (r_i-rbar)' S^-1 (r_i-rbar) + m (rbar-mu)' S^-1 (rbar-mu)
        rng = np.random.default_rng(31)
        for _ in range(100):
            n, m = rng.integers(2, 5), rng.integers(2, 12)
            sigma_inv = np.linalg.inv(random_spd(rng, n))
            rows = rng.normal(size=(m, n))
            mu = rng.normal(size=n)
            rbar = rows.mean(axis=0)
            lhs = sum_of_quadratics_lhs(rows, mu, sigma_inv)
            rhs = sum_of_quadratics_lhs(rows, rbar, sigma_inv) + m * (
                (rbar - mu) @ sigma_inv @ (rbar - mu)
            )
            assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    def test_linear_term_absorption(self):
        # x'Mx - 2b'x == (x - M^-1 b)' M (x - M^-1 b) - b' M^-1 b
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = rng.integers(1, 6)
            m_mat = random_spd(rng, n)
            x, b = rng.normal(size=n), rng.normal(size=n)
            lhs = x @ m_mat @ x - 2 * b @ x
            m_inv_b = np.linalg.solve(m_mat, b)
            rhs = (x - m_inv_b) @ m_mat @ (x - m_inv_b) - b @ m_inv_b
            assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)
