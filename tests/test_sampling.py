"""Distribution correctness and replayability of the random streams."""

import logging

import numpy as np
import pytest
from scipy import stats

from blbayes.errors import (
    DegreesOfFreedomError,
    DimensionError,
    NotPositiveDefiniteError,
    ParameterError,
)
from blbayes.sampling import (
    RngStream,
    _bartlett_factor,
    sample_inverse_gamma,
    sample_inverse_wishart,
    sample_mvn,
    sample_mvn_precision,
)
from conftest import random_spd


class TestDeterminism:
    def test_same_stream_replays(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        a = sample_mvn(np.zeros(2), cov, RngStream(42, 1))
        b = sample_mvn(np.zeros(2), cov, RngStream(42, 1))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        cov = np.eye(2)
        a = sample_mvn(np.zeros(2), cov, RngStream(42, 1))
        b = sample_mvn(np.zeros(2), cov, RngStream(42, 2))
        assert not np.array_equal(a, b)

    def test_inverse_wishart_replays(self):
        psi = random_spd(np.random.default_rng(0), 3)
        a, a_inv, _ = sample_inverse_wishart(7.5, psi, RngStream(9))
        b, b_inv, _ = sample_inverse_wishart(7.5, psi, RngStream(9))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a_inv, b_inv)

    def test_inverse_gamma_replays(self):
        assert sample_inverse_gamma(3.0, 4.0, RngStream(5)) == sample_inverse_gamma(
            3.0, 4.0, RngStream(5)
        )

    def test_seed_bounds(self):
        with pytest.raises(ParameterError):
            RngStream(-1)
        with pytest.raises(ParameterError):
            RngStream(2**64)


class TestMvn:
    def test_moments_identity_covariance(self):
        rng = RngStream(123)
        draws = np.array([sample_mvn(np.zeros(3), np.eye(3), rng) for _ in range(100_000)])
        var = draws.var(axis=0)
        assert np.all(var > 0.97) and np.all(var < 1.03)
        # mean within 4 standard errors of 0
        se = 1.0 / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * se)

    def test_general_covariance_mean(self):
        cov = np.array([[0.5, 0.2], [0.2, 0.8]])
        mean = np.array([1.0, -2.0])
        rng = RngStream(124)
        draws = np.array([sample_mvn(mean, cov, rng) for _ in range(50_000)])
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefiniteError):
            sample_mvn(np.zeros(2), np.diag([1.0, -1.0]), RngStream(1))

    def test_rejects_zero_covariance(self):
        # the degenerate cov -> 0 limit is disallowed, not silently sampled
        with pytest.raises(NotPositiveDefiniteError):
            sample_mvn(np.zeros(2), np.zeros((2, 2)), RngStream(1))

    def test_shape(self):
        d = sample_mvn(np.zeros(5), np.eye(5), RngStream(2))
        assert d.shape == (5,)


class TestMvnPrecision:
    def test_moments(self):
        rng = np.random.default_rng(125)
        precision = random_spd(rng, 6)
        shift = rng.normal(size=6)
        cov = np.linalg.inv(precision)
        mean = cov @ shift
        stream = RngStream(126)
        n = 20_000
        draws = np.array([sample_mvn_precision(shift, precision, stream) for _ in range(n)])
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)
        # Var(x_i x_j) = cov_ii cov_jj + cov_ij^2 for a centred normal
        cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) < 5 * cov_se)

    def test_uses_as_many_normals_as_sample_mvn(self):
        precision = random_spd(np.random.default_rng(127), 5)
        a, b = RngStream(128), RngStream(128)
        sample_mvn_precision(np.ones(5), precision, a)
        sample_mvn(np.zeros(5), np.linalg.inv(precision), b)
        assert a.generator.random() == b.generator.random()

    def test_ill_conditioned_precision_warns(self, caplog):
        q, _ = np.linalg.qr(np.random.default_rng(41).normal(size=(3, 3)))
        precision = (q * [1.0, 0.3, 1e-11]) @ q.T
        precision = 0.5 * (precision + precision.T)
        assert 0.5e11 < np.linalg.cond(precision) < 2e11
        with caplog.at_level(logging.WARNING, logger="blbayes.linalg"):
            sample_mvn_precision(np.ones(3), precision, RngStream(3))
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "condition number" in caplog.records[0].message

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            sample_mvn_precision(np.zeros(3), np.eye(2), RngStream(1))


class TestInverseWishart:
    def test_scalar_mean_matches_inverse_gamma(self):
        # n=1, dof=5, scale=3: mean 3/(5-1-1) = 1, and the marginal is the
        # inverse gamma with shape dof/2, scale 3/2
        rng = RngStream(200)
        draws = np.array([sample_inverse_wishart(5.0, [[3.0]], rng)[0][0, 0]
                          for _ in range(100_000)])
        assert draws.mean() == pytest.approx(1.0, rel=0.05)
        ig_rng = RngStream(200, 77)
        ig = np.array([sample_inverse_gamma(2.5, 1.5, ig_rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(ig.mean(), rel=0.05)

    def test_matrix_mean(self):
        psi = np.array([[2.0, 0.4, 0.0], [0.4, 1.5, -0.2], [0.0, -0.2, 1.0]])
        dof = 9.0
        rng = RngStream(201)
        acc = np.zeros((3, 3))
        n_draws = 20_000
        for _ in range(n_draws):
            acc += sample_inverse_wishart(dof, psi, rng)[0]
        mean = acc / n_draws
        expected = psi / (dof - 3 - 1)
        assert np.linalg.norm(mean - expected) / np.linalg.norm(expected) < 0.05

    def test_output_spd_and_symmetric(self):
        rng = RngStream(202)
        for _ in range(200):
            x, _, _ = sample_inverse_wishart(6.0, random_spd(np.random.default_rng(3), 4), rng)
            assert np.array_equal(x, x.T)
            assert np.linalg.eigvalsh(x)[0] > 0

    def test_dof_error(self):
        with pytest.raises(DegreesOfFreedomError):
            sample_inverse_wishart(1.5, np.eye(3), RngStream(1))

    def test_non_integer_dof_accepted(self):
        x, _, _ = sample_inverse_wishart(4.7, np.eye(2), RngStream(3))
        assert np.all(np.isfinite(x))

    def test_inverse_consistency_with_definition_wishart(self):
        # If X ~ IW(dof, psi) then X^-1 ~ Wishart(dof, psi^-1). Compare the
        # log-det of X^-1 draws with a definition-based Wishart built from
        # integer-dof sums of outer products (independent construction).
        psi = np.array([[1.5, 0.4], [0.4, 1.0]])
        dof = 7
        rng = RngStream(203)
        n_draws = 10_000
        logdet_inv = np.empty(n_draws)
        for i in range(n_draws):
            x, _, _ = sample_inverse_wishart(float(dof), psi, rng)
            logdet_inv[i] = -np.linalg.slogdet(x)[1]

        gen = np.random.default_rng(204)
        chol = np.linalg.cholesky(np.linalg.inv(psi))
        z = gen.standard_normal((n_draws, dof, 2)) @ chol.T
        w = np.einsum("dki,dkj->dij", z, z)
        logdet_w = np.linalg.slogdet(w)[1]

        p = stats.ks_2samp(logdet_inv, logdet_w).pvalue
        assert p > 0.001

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_returned_inverse(self, n):
        rng = RngStream(205, n)
        for k in range(50):
            scale = random_spd(np.random.default_rng(k), n)
            sigma, sigma_inv, _ = sample_inverse_wishart(n + 4.5, scale, rng)
            assert np.array_equal(sigma_inv, sigma_inv.T)
            np.testing.assert_allclose(sigma @ sigma_inv, np.eye(n), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_returned_log_det(self, n):
        rng = RngStream(207, n)
        for k in range(50):
            scale = random_spd(np.random.default_rng(k), n)
            sigma, _, log_det = sample_inverse_wishart(n + 4.5, scale, rng)
            sign, expected = np.linalg.slogdet(sigma)
            assert sign == 1.0
            assert log_det == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_bartlett_factor_equals_loop_oracle(self, n):
        def oracle(dof, n, rng):
            a = np.zeros((n, n))
            for i in range(n):
                a[i, i] = np.sqrt(rng.generator.chisquare(dof - i))
            if n > 1:
                idx = np.tril_indices(n, k=-1)
                a[idx] = rng.generator.standard_normal(len(idx[0]))
            return a

        for dof in (n + 0.3, n + 2.0, 61.7):
            fast, slow = RngStream(206, n), RngStream(206, n)
            for _ in range(5):
                assert np.array_equal(_bartlett_factor(dof, n, fast), oracle(dof, n, slow))
            assert fast.generator.random() == slow.generator.random()


class TestSigmaDrawConditionWarning:
    @staticmethod
    def draw(eigvals, caplog, rotate=True):
        q = np.linalg.qr(np.random.default_rng(42).normal(size=(2, 2)))[0] if rotate else np.eye(2)
        scale = (q * eigvals) @ q.T
        with caplog.at_level(logging.DEBUG, logger="blbayes.linalg"):
            return sample_inverse_wishart(12.0, 0.5 * (scale + scale.T), RngStream(7))

    @pytest.mark.parametrize("rotate", [True, False])
    def test_ill_conditioned_scale_warns(self, caplog, rotate):
        # axis-aligned, only the largest diagonal entries of Sigma and
        # Sigma^-1 (from different coordinates) reveal the spread
        sigma, _, _ = self.draw([1.0, 1e-12], caplog, rotate)
        assert np.linalg.cond(sigma) > 1e10
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "Sigma draw: condition number" in caplog.records[0].message

    def test_well_conditioned_is_silent(self, caplog):
        self.draw([1.0, 0.2], caplog)
        assert caplog.records == []


class TestInverseGamma:
    def test_mean(self):
        rng = RngStream(300)
        draws = np.array([sample_inverse_gamma(3.0, 4.0, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(2.0, rel=0.05)

    def test_heavy_tail_shape_half(self):
        # shape 0.5 has no mean; draws must still be finite and positive
        rng = RngStream(301)
        draws = np.array([sample_inverse_gamma(0.5, 1.0, rng) for _ in range(5_000)])
        assert np.all(draws > 0) and np.all(np.isfinite(draws))

    def test_density_match_scipy(self):
        rng = RngStream(302)
        draws = np.array([sample_inverse_gamma(2.5, 1.5, rng) for _ in range(20_000)])
        p = stats.kstest(draws, stats.invgamma(a=2.5, scale=1.5).cdf).pvalue
        assert p > 0.001

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            sample_inverse_gamma(0.0, 1.0, RngStream(1))
        with pytest.raises(ParameterError):
            sample_inverse_gamma(1.0, -2.0, RngStream(1))
