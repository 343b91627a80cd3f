"""View validation, augmentation to an invertible pick matrix, and the
transformed hyperparameters."""

import logging

import numpy as np
import pytest

from blbayes.errors import (
    DimensionError,
    InsufficientDataError,
    RankError,
    ValidationError,
)
from blbayes.linalg import spd_inverse
from blbayes.views import (
    ViewSet,
    augment_to_invertible,
    build_transformed_hyperparams,
    view_precision,
)
from conftest import random_spd
from oracles import augment_two_loops


class TestViewSet:
    def test_valid(self):
        v = ViewSet([[1.0, -1.0, 0.0]], [0.02], [1e-4])
        assert v.k == 1 and v.n == 3
        np.testing.assert_array_equal(v.omega, [[1e-4]])

    def test_rejects_zero_row(self):
        with pytest.raises(ValidationError):
            ViewSet([[1.0, 0.0], [0.0, 0.0]], [0.1, 0.1], [1e-4, 1e-4])

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValidationError):
            ViewSet([[1.0, 0.0]], [0.1], [0.0])

    def test_rejects_more_views_than_assets(self):
        with pytest.raises(ValidationError):
            ViewSet([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0] * 3, [1e-4] * 3)

    def test_with_omega(self):
        v = ViewSet([[1.0, -1.0]], [0.02], [1e-4])
        w = v.with_omega([1e-6])
        assert w.omega_diag[0] == 1e-6
        np.testing.assert_array_equal(w.p, v.p)


class TestViewPrecision:
    def test_identity_pick_matrix_is_exact(self):
        # the view-space chain passes np.eye; its terms must be Omega^-1 and
        # Omega^-1 q bit for bit
        rng = np.random.default_rng(79)
        omega = random_spd(rng, 4)
        q = rng.normal(size=4)
        prec, vec = view_precision(omega, q, np.eye(4))
        omega_inv = spd_inverse(omega)
        assert np.array_equal(prec, omega_inv)
        assert np.array_equal(vec, omega_inv @ q)


class TestAugmentation:
    def test_reference_example(self):
        # one relative view and one absolute view on 4 assets: first the
        # all-zero column gets a unit row, then the non-pivot -1 entry
        p = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        aug = augment_to_invertible(p)
        expected = np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 1.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(aug.p_star, expected)
        np.testing.assert_array_equal(aug.added_rows, expected[2:])

    def test_already_square(self):
        aug = augment_to_invertible(np.eye(4))
        np.testing.assert_array_equal(aug.p_star, np.eye(4))
        assert aug.added_rows.shape == (0, 4)

    def test_single_row_two_entries(self):
        aug = augment_to_invertible(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(aug.p_star, [[1.0, 1.0], [0.0, 1.0]])
        assert np.linalg.det(aug.p_star) == pytest.approx(1.0)

    def test_idempotent_on_output(self):
        p = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        aug = augment_to_invertible(p)
        again = augment_to_invertible(aug.p_star)
        np.testing.assert_array_equal(again.p_star, aug.p_star)
        assert again.added_rows.shape == (0, 4)

    def test_random_full_rank_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            p = rng.normal(size=(k, n))
            while np.linalg.matrix_rank(p) < k:  # pragma: no cover
                p = rng.normal(size=(k, n))
            aug = augment_to_invertible(p)
            assert aug.p_star.shape == (n, n)
            assert np.array_equal(aug.p_star[:k], p)
            assert abs(np.linalg.det(aug.p_star)) >= 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            augment_to_invertible(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_relative_views_needing_fallback(self):
        # non-pivot entries all sit in pivot columns of other rows, so the
        # two bullet rules alone cannot finish; the ascending-basis fill must
        p = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        aug = augment_to_invertible(p)
        assert abs(np.linalg.det(aug.p_star)) >= 1e-12
        assert np.array_equal(aug.p_star[:2], p)

    def test_rejected_candidate_is_skipped(self):
        # rule 2 offers column 1, then column 2; the unit row of column 1 is
        # row 0 + row 1 up to sign, so it does not raise the rank
        p = np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 1.0]])
        aug = augment_to_invertible(p)
        np.testing.assert_array_equal(aug.added_rows, [[0.0, 0.0, 1.0]])

    def test_fill_after_rejected_candidates(self):
        # the unit row of column 1 leaves a singular value below the rank
        # tolerance, so only the fill, with column 0, completes P
        p = np.array([[1e-11, 1.0]])
        aug = augment_to_invertible(p)
        np.testing.assert_array_equal(aug.added_rows, [[1.0, 0.0]])
        np.testing.assert_array_equal(aug.added_rows, augment_two_loops(p).added_rows)

    def test_equals_two_loop_oracle(self):
        # small integer entries give all-zero columns, multi-entry rows and
        # rule candidates that do not raise the rank
        rng = np.random.default_rng(78)
        compared = 0
        while compared < 250:
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            p = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0, 2.0], size=(k, n))
            p[:, rng.random(n) < 0.2] = 0.0
            try:
                want = augment_two_loops(p)
            except RankError:
                with pytest.raises(RankError):
                    augment_to_invertible(p)
                continue
            got = augment_to_invertible(p)
            assert np.array_equal(got.p_star, want.p_star)
            assert np.array_equal(got.added_rows, want.added_rows)
            assert got.added_rows.shape == want.added_rows.shape
            compared += 1


class TestTransformedHyperparams:
    def test_square_views_reduce_to_inputs(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        aug = augment_to_invertible(p)
        assert aug.added_rows.shape == (0, 2)
        q = np.array([0.02, 0.05])
        omega = np.diag([1e-4, 2e-4])
        months = np.random.default_rng(5).normal(size=(6, 2)) * 0.01
        q_star, omega_star = build_transformed_hyperparams(aug, q, omega, months)
        np.testing.assert_array_equal(q_star, q)
        np.testing.assert_array_equal(omega_star, omega)

    def test_two_asset_one_view_by_hand(self):
        p = np.array([[1.0, 0.0]])
        aug = augment_to_invertible(p)  # P* = I2
        np.testing.assert_array_equal(aug.p_star, np.eye(2))
        months = np.array([[0.01, 0.02], [0.03, 0.00]])
        q, omega = np.array([0.05]), np.array([[0.001]])
        q_star, omega_star = build_transformed_hyperparams(aug, q, omega, months)
        # mean of months is (0.02, 0.01); sample covariance has 2e-4 on the
        # diagonal and -2e-4 off it; the view block overwrites the corner
        np.testing.assert_allclose(q_star, [0.05, 0.01], atol=1e-15)
        np.testing.assert_allclose(
            omega_star, [[0.001, -2e-4], [-2e-4, 2e-4]], atol=1e-18
        )

    def test_blocks_follow_p_star(self):
        # monthly means small enough that the overwrite keeps Omega* SPD,
        # so the estimated blocks survive the construction untouched
        rng = np.random.default_rng(6)
        p = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        aug = augment_to_invertible(p)
        months = rng.normal(size=(10, 4)) * 0.001
        q, omega = np.array([0.02, 0.05]), np.diag([1e-4, 1e-4])
        q_star, omega_star = build_transformed_hyperparams(aug, q, omega, months)
        var_mu = np.cov(months, rowvar=False, ddof=1)
        full = aug.p_star @ var_mu @ aug.p_star.T
        np.testing.assert_array_equal(q_star[:2], q)
        np.testing.assert_allclose(q_star[2:], (aug.p_star @ months.mean(axis=0))[2:])
        np.testing.assert_array_equal(omega_star[:2, :2], omega)
        np.testing.assert_allclose(omega_star[2:, :2], full[2:, :2], rtol=1e-12)
        np.testing.assert_allclose(omega_star[2:, 2:], full[2:, 2:], rtol=1e-12)
        assert np.array_equal(omega_star, omega_star.T)

    def test_spd_repair_is_logged(self, caplog):
        # a tiny view variance against strongly correlated monthly means
        # makes the overwritten matrix indefinite; the repair must log
        rng = np.random.default_rng(8)
        p = np.array([[1.0, 0.0]])
        aug = augment_to_invertible(p)
        base = rng.normal(size=10) * 0.05
        months = np.stack([base, base * 0.99 + 1e-5 * rng.normal(size=10)], axis=1)
        with caplog.at_level(logging.WARNING, logger="blbayes.views"):
            _, omega_star = build_transformed_hyperparams(
                aug, np.array([0.05]), np.array([[1e-10]]), months
            )
        assert np.linalg.eigvalsh(omega_star)[0] > 0
        assert any("shifting diagonal" in r.message for r in caplog.records)

    def test_insufficient_months(self):
        aug = augment_to_invertible(np.array([[1.0, 0.0]]))
        with pytest.raises(InsufficientDataError):
            build_transformed_hyperparams(
                aug, np.array([0.05]), np.array([[1e-4]]), np.array([[0.01, 0.02]])
            )

    def test_dimension_mismatch(self):
        aug = augment_to_invertible(np.array([[1.0, 0.0]]))
        with pytest.raises(DimensionError):
            build_transformed_hyperparams(
                aug, np.array([0.05, 0.01]), np.eye(2), np.zeros((3, 2))
            )
