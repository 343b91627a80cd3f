"""Distribution correctness and replayability of the random streams."""

import logging

import numpy as np
import pytest
from scipy import stats

from blbayes.errors import (
    DegreesOfFreedomError,
    DimensionError,
    NumericalError,
    ParameterError,
)
from blbayes.sampling import (
    bartlett_factors,
    bartlett_log_dets,
    rng_stream,
    sample_inverse_gamma,
    sample_inverse_wishart,
    sample_mvn,
)
from conftest import random_spd
from oracles import mvn_two_solves


def one_factor(dof, n, rng):
    """The Bartlett factor of one draw: a block of one."""
    return bartlett_factors(dof, n, 1, rng)[0]


def factor_stack(dof, n, streams):
    """One Bartlett factor from each stream, stacked: the factors of a batch."""
    return np.array([one_factor(dof, n, r) for r in streams])


def iw_draw(u, factor, log_det_lower):
    """:func:`sample_inverse_wishart` of a factor (or a batch's stack of
    them) and its own ``log det A A'``."""
    return sample_inverse_wishart(u, factor, bartlett_log_dets(factor), log_det_lower)


def two_log_det(lower):
    """``2 log det L`` of a lower factor ``L``, the float
    :func:`sample_inverse_wishart` takes."""
    return 2.0 * float(np.log(np.diagonal(lower)).sum())


def normals(streams, n):
    """The next n standard normals of each stream, stacked: a batch's."""
    return np.array([r.standard_normal(n) for r in streams])


def asset_inverse(sigma_inv, lower):
    """``Sigma^-1 = L^-T S^-1 L^-1`` of the whitened inverse ``S^-1`` that
    :func:`sample_inverse_wishart` returns, for the factor ``L`` of the scale."""
    lower_inv = np.linalg.inv(lower)
    return lower_inv.T @ sigma_inv @ lower_inv


def inverse_root(u):
    """The symmetric inverse square root of ``I + u u'``, by eigendecomposition."""
    w, v = np.linalg.eigh(np.eye(u.size) + np.outer(u, u))
    return (v / np.sqrt(w)) @ v.T


class TestDeterminism:
    def test_same_stream_replays(self):
        precision = np.array([[2.0, 0.3], [0.3, 1.0]])
        a = sample_mvn(np.zeros(2), precision=precision, z=rng_stream(42, 1).standard_normal(2))
        b = sample_mvn(np.zeros(2), precision=precision, z=rng_stream(42, 1).standard_normal(2))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_mvn(np.zeros(2), precision=np.eye(2), z=rng_stream(42, 1).standard_normal(2))
        b = sample_mvn(np.zeros(2), precision=np.eye(2), z=rng_stream(42, 2).standard_normal(2))
        assert not np.array_equal(a, b)

    def test_inverse_wishart_replays(self):
        lower_log_det = two_log_det(np.linalg.cholesky(random_spd(np.random.default_rng(0), 3)))
        u = np.array([0.3, -1.2, 0.5])
        a_inv, a_log_det = iw_draw(u, one_factor(7.5, 3, rng_stream(9)), lower_log_det)
        b_inv, b_log_det = iw_draw(u, one_factor(7.5, 3, rng_stream(9)), lower_log_det)
        np.testing.assert_array_equal(a_inv, b_inv)
        assert a_log_det == b_log_det

    def test_inverse_gamma_replays(self):
        assert sample_inverse_gamma(3.0, 4.0, rng_stream(5)) == sample_inverse_gamma(
            3.0, 4.0, rng_stream(5)
        )

    def test_seed_bounds(self):
        with pytest.raises(ParameterError):
            rng_stream(-1)
        with pytest.raises(ParameterError):
            rng_stream(2**64)
        with pytest.raises(ParameterError, match="stream_id"):
            rng_stream(0, 2**64)


class TestMvn:
    def test_moments_identity_covariance(self):
        rng = rng_stream(123)
        draws = np.array([sample_mvn(np.zeros(3), precision=np.eye(3), z=rng.standard_normal(3))
                          for _ in range(100_000)])
        var = draws.var(axis=0)
        assert np.all(var > 0.97) and np.all(var < 1.03)
        # mean within 4 standard errors of 0
        se = 1.0 / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * se)

    def test_general_covariance_mean(self):
        cov = np.array([[0.5, 0.2], [0.2, 0.8]])
        mean = np.array([1.0, -2.0])
        precision = np.linalg.inv(cov)
        rng = rng_stream(124)
        draws = np.array([sample_mvn(precision @ mean, precision=precision,
                                     z=rng.standard_normal(2))
                          for _ in range(50_000)])
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)

    def test_rejects_non_spd(self):
        with pytest.raises(NumericalError, match="not SPD probe: Cholesky failed"):
            sample_mvn(np.zeros(2), precision=np.diag([1.0, -1.0]), z=np.ones(2),
                       name="not SPD probe")

    def test_rejects_zero_covariance(self):
        # the degenerate precision -> 0 limit (infinite covariance) is
        # disallowed, not silently sampled
        with pytest.raises(NumericalError):
            sample_mvn(np.zeros(2), precision=np.zeros((2, 2)), z=np.ones(2))

    def test_shape(self):
        d = sample_mvn(np.zeros(5), precision=np.eye(5), z=rng_stream(2).standard_normal(5))
        assert d.shape == (5,)


class TestMvnPrecision:
    """The precision form: law, normals used, condition warning, shapes."""

    def test_moments(self):
        rng = np.random.default_rng(125)
        precision = random_spd(rng, 6)
        shift = rng.normal(size=6)
        cov = np.linalg.inv(precision)
        mean = cov @ shift
        stream = rng_stream(126)
        n = 20_000
        draws = np.array([sample_mvn(shift, precision=precision, z=stream.standard_normal(6))
                          for _ in range(n)])
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)
        # Var(x_i x_j) = cov_ii cov_jj + cov_ij^2 for a centred normal
        cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) < 5 * cov_se)

    def test_cov_cholesky_is_the_covariance_form_draw(self):
        # the reversed-order factor of P gives chol(P^-1), so the draw is
        # the covariance form's from the same normals
        rng = np.random.default_rng(129)
        for n in (1, 2, 4, 10):
            precision = random_spd(rng, n)
            shift = rng.normal(size=n)
            cov = np.linalg.inv(precision)
            z = rng_stream(130).standard_normal(n)
            expected = cov @ shift + np.linalg.cholesky(0.5 * (cov + cov.T)) @ z
            draw = sample_mvn(shift, precision=precision, z=z, cov_cholesky=True)
            np.testing.assert_allclose(draw, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("cov_cholesky", [False, True])
    @pytest.mark.parametrize("g_count", [None, 3, 9])
    @pytest.mark.parametrize("n", [1, 4, 7, 55])
    def test_one_solve_equals_two_solve_form(self, n, g_count, cov_cholesky):
        # x = P^-1 (shift + R z) is the canonical-form draw from the same
        # normals: it moves from the two-solve form by rounding only
        gen = np.random.default_rng(330 + n)
        count = 1 if g_count is None else g_count
        precision = np.array([random_spd(gen, n) for _ in range(count)])
        shift = gen.normal(size=(count, n))
        assert max(np.linalg.cond(precision)) <= 1e4
        streams = [rng_stream(331, g) for g in range(count)]
        if g_count is None:
            draws = sample_mvn(shift[0], precision=precision[0],
                               z=streams[0].standard_normal(n), cov_cholesky=cov_cholesky)[None]
        else:
            draws = sample_mvn(shift, precision=precision, z=normals(streams, n),
                               cov_cholesky=cov_cholesky)
        for g in range(count):
            z = rng_stream(331, g).standard_normal(n)
            expected = mvn_two_solves(shift[g], precision[g], z, cov_cholesky)
            assert np.linalg.norm(draws[g] - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_draws_n_standard_normals(self):
        # a draw takes n standard normals, here a stream's next n, and is
        # the same draw whenever it is given the same normals
        precision = random_spd(np.random.default_rng(127), 5)
        a, b = rng_stream(128), rng_stream(128)
        z = a.standard_normal(5)
        draw = sample_mvn(np.ones(5), precision=precision, z=z)
        b.standard_normal(5)
        assert a.random() == b.random()
        assert np.array_equal(draw, sample_mvn(np.ones(5), precision=precision, z=z.copy()))

    def test_precision_is_keyword_only(self):
        # a covariance passed by position must not be drawn as a precision
        with pytest.raises(TypeError):
            sample_mvn(np.zeros(2), np.eye(2), z=np.zeros(2))

    def test_ill_conditioned_precision_warns(self, caplog):
        q, _ = np.linalg.qr(np.random.default_rng(41).normal(size=(3, 3)))
        precision = (q * [1.0, 0.3, 1e-11]) @ q.T
        precision = 0.5 * (precision + precision.T)
        assert 0.5e11 < np.linalg.cond(precision) < 2e11
        with caplog.at_level(logging.WARNING, logger="blbayes.linalg"):
            sample_mvn(np.ones(3), precision=precision, z=rng_stream(3).standard_normal(3),
                       name="probe Q")
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert caplog.records[0].message.startswith("probe Q: condition number")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            sample_mvn(np.zeros(3), precision=np.eye(2), z=np.zeros(3))
        with pytest.raises(DimensionError, match=r"normals \(2,\) do not match shift \(3,\)"):
            sample_mvn(np.zeros(3), precision=np.eye(3), z=np.zeros(2))


class TestInverseWishart:
    """Draws with the scale ``L (I + u u') L'``: the whitened draw ``S`` has
    the scale ``I + u u'`` and ``Sigma = L S L'``."""

    def test_scalar_mean_matches_inverse_gamma(self):
        # n=1, dof=5, scale L^2 (1 + u^2) = 1.5 * 2 = 3: mean 3/(5-1-1) = 1,
        # and the marginal is the inverse gamma with shape dof/2, scale 3/2
        factors = bartlett_factors(5.0, 1, 100_000, rng_stream(200))
        lower_log_det = two_log_det([[np.sqrt(1.5)]])
        draws = np.array([1.5 / iw_draw([1.0], a, lower_log_det)[0][0, 0]
                          for a in factors])
        assert draws.mean() == pytest.approx(1.0, rel=0.05)
        ig_rng = rng_stream(200, 77)
        ig = np.array([sample_inverse_gamma(2.5, 1.5, ig_rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(ig.mean(), rel=0.05)

    def test_matrix_mean(self):
        lower = np.linalg.cholesky([[2.0, 0.4, 0.0], [0.4, 1.5, -0.2], [0.0, -0.2, 1.0]])
        u = np.array([0.5, -0.3, 0.8])
        lower_log_det = two_log_det(lower)
        dof = 9.0
        acc = np.zeros((3, 3))
        n_draws = 20_000
        for a in bartlett_factors(dof, 3, n_draws, rng_stream(201)):
            acc += np.linalg.inv(asset_inverse(iw_draw(u, a, lower_log_det)[0], lower))
        mean = acc / n_draws
        expected = lower @ (np.eye(3) + np.outer(u, u)) @ lower.T / (dof - 3 - 1)
        assert np.linalg.norm(mean - expected) / np.linalg.norm(expected) < 0.05

    @pytest.mark.parametrize("n", [1, 4])
    def test_whitened_moments(self, n):
        # S ~ IW(dof, I + u u'): E[S] = (I + u u') / (dof - n - 1), and
        # S^-1 ~ Wishart(dof, (I + u u')^-1): E[S^-1] = dof (I + u u')^-1
        u = np.linspace(-1.5, 2.0, n)
        scale = np.eye(n) + np.outer(u, u)
        dof, n_draws = n + 6.5, 20_000
        draws_inv = np.array([iw_draw(u, a, 0.0)[0]
                              for a in bartlett_factors(dof, n, n_draws, rng_stream(209, n))])
        mean_inv = draws_inv.mean(axis=0)
        mean = np.linalg.inv(draws_inv).mean(axis=0)
        for got, expected in ((mean, scale / (dof - n - 1)),
                              (mean_inv, dof * np.linalg.inv(scale))):
            assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 0.05

    def test_output_spd_and_symmetric(self):
        gen = np.random.default_rng(3)
        lower_log_det = two_log_det(np.linalg.cholesky(random_spd(gen, 4)))
        for a in bartlett_factors(6.0, 4, 200, rng_stream(202)):
            x_inv, _ = iw_draw(gen.normal(size=4), a, lower_log_det)
            assert np.array_equal(x_inv, x_inv.T)
            assert np.linalg.eigvalsh(x_inv)[0] > 0

    @pytest.mark.parametrize("g_count", [None, 3])
    @pytest.mark.parametrize("n", [1, 4, 7, 10])
    def test_inverse_is_exactly_symmetric(self, n, g_count):
        # S^-1 = N N' is made as one symmetric rank-k product, exactly
        # symmetric with no re-symmetrisation, alone and in a batch, over
        # rank-one terms from none to s = u'u far above 1
        gen = np.random.default_rng(240 + n)
        lower_log_det = two_log_det(np.linalg.cholesky(random_spd(gen, n)))
        rng = rng_stream(241, n)
        lead = () if g_count is None else (g_count,)
        for k in range(60):
            u = gen.normal(size=lead + (n,)) * (0.0, 1e-3, 1.0, 30.0)[k % 4]
            factor = bartlett_factors(n + 2.5, n, g_count or 1, rng)
            sigma_inv, _ = iw_draw(u, factor if g_count else factor[0], lower_log_det)
            assert sigma_inv.shape == lead + (n, n)
            assert np.array_equal(sigma_inv, sigma_inv.swapaxes(-1, -2))

    def test_dof_error(self):
        with pytest.raises(DegreesOfFreedomError):
            bartlett_factors(1.5, 3, 1, rng_stream(1))

    def test_non_integer_dof_accepted(self):
        x_inv, log_det = iw_draw([0.4, -0.1], one_factor(4.7, 2, rng_stream(3)), 0.0)
        assert np.all(np.isfinite(x_inv)) and np.isfinite(log_det)

    def test_inverse_consistency_with_definition_wishart(self):
        # If X ~ IW(dof, psi) then X^-1 ~ Wishart(dof, psi^-1). Compare the
        # log-det of X^-1 draws with a definition-based Wishart built from
        # integer-dof sums of outer products (independent construction).
        lower = np.linalg.cholesky([[1.5, 0.4], [0.4, 1.0]])
        u = np.array([0.6, -0.2])
        psi = lower @ (np.eye(2) + np.outer(u, u)) @ lower.T
        lower_log_det = two_log_det(lower)
        dof = 7
        n_draws = 10_000
        logdet_inv = np.empty(n_draws)
        for i, a in enumerate(bartlett_factors(float(dof), 2, n_draws, rng_stream(203))):
            x_inv, _ = iw_draw(u, a, lower_log_det)
            logdet_inv[i] = np.linalg.slogdet(asset_inverse(x_inv, lower))[1]

        gen = np.random.default_rng(204)
        chol = np.linalg.cholesky(np.linalg.inv(psi))
        z = gen.standard_normal((n_draws, dof, 2)) @ chol.T
        w = np.einsum("dki,dkj->dij", z, z)
        logdet_w = np.linalg.slogdet(w)[1]

        p = stats.ks_2samp(logdet_inv, logdet_w).pvalue
        assert p > 0.001

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_returned_inverse(self, n):
        # S^-1 = K A A' K with K the symmetric inverse square root of
        # I + u u', here from an eigendecomposition, over rank-one terms
        # from none to s = u'u far above 1 and far below rounding
        gen = np.random.default_rng(205 + n)
        for k, a in enumerate(bartlett_factors(n + 4.5, n, 50, rng_stream(205, n))):
            u = gen.normal(size=n) * (0.0, 1e-10, 1e-3, 1.0, 30.0)[k % 5]
            sigma_inv, _ = iw_draw(u, a, 0.0)
            n_factor = inverse_root(u) @ a
            expected = n_factor @ n_factor.T
            assert np.array_equal(sigma_inv, sigma_inv.T)
            # the eigendecomposition's own error grows with 1 + s
            np.testing.assert_allclose(sigma_inv, expected, rtol=0,
                                       atol=1e-13 * (1.0 + u @ u) * np.abs(expected).max())

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_returned_log_det(self, n):
        # log det Sigma for Sigma = L S L', against the slogdet of the
        # inverse of the returned S^-1 mapped to asset coordinates
        gen = np.random.default_rng(207 + n)
        for k, a in enumerate(bartlett_factors(n + 4.5, n, 50, rng_stream(207, n))):
            lower = np.linalg.cholesky(random_spd(np.random.default_rng(k), n))
            u = gen.normal(size=n) * (0.0, 0.1, 1.0, 3.0)[k % 4]
            sigma_inv, log_det = iw_draw(u, a, two_log_det(lower))
            sign, expected = np.linalg.slogdet(np.linalg.inv(asset_inverse(sigma_inv, lower)))
            assert sign == 1.0
            assert log_det == pytest.approx(expected, rel=1e-12, abs=1e-12)
            # whitened: log det S = log(1 + s) - 2 sum log diag A = -log det S^-1
            assert log_det - 2.0 * np.log(np.diag(lower)).sum() == pytest.approx(
                -np.linalg.slogdet(sigma_inv)[1], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_bartlett_block_equals_loop_oracle(self, n):
        # the block is drawn as by scalar calls: every factor's chi-squares
        # in order, then every factor's normals, row by row below the diagonal
        def oracle(dof, n, count, rng):
            a = np.zeros((count, n, n))
            for k in range(count):
                for i in range(n):
                    a[k, i, i] = np.sqrt(rng.chisquare(dof - i))
            for k in range(count):
                for i in range(n):
                    for j in range(i):
                        a[k, i, j] = rng.standard_normal()
            return a

        for dof in (n + 0.3, n + 2.0, 61.7):
            fast, slow = rng_stream(206, n), rng_stream(206, n)
            for count in (1, 5, 2):
                assert np.array_equal(bartlett_factors(dof, n, count, fast),
                                      oracle(dof, n, count, slow))
            assert fast.random() == slow.random()

    def test_bartlett_block_law(self):
        # diagonal^2 ~ chi-square(dof - i), strict lower triangle N(0, 1),
        # upper triangle exactly 0
        dof, n, count = 6.5, 4, 20_000
        a = bartlett_factors(dof, n, count, rng_stream(208))
        assert a.shape == (count, n, n)
        for i in range(n):
            p = stats.kstest(a[:, i, i] ** 2, stats.chi2(dof - i).cdf).pvalue
            assert p > 0.001, i
        rows, cols = np.tril_indices(n, k=-1)
        lower = a[:, rows, cols]
        for j in range(lower.shape[1]):
            assert stats.kstest(lower[:, j], stats.norm.cdf).pvalue > 0.001, j
        assert (a[:, cols, rows] == 0.0).all()


class TestBatch:
    """G chains drawn as one stack, each from its own stream: every chain's
    draw is bit for bit the draw of its slice alone."""

    @staticmethod
    def streams(count, seed):
        return [rng_stream(seed, g) for g in range(count)]

    @pytest.mark.parametrize("g_count", [1, 3, 9])
    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_inverse_wishart_equals_its_slices(self, n, g_count):
        # the chains of a batch share the factor L and its log det
        gen = np.random.default_rng(310 + n)
        lower_log_det = two_log_det(np.linalg.cholesky(random_spd(gen, n)))
        u = gen.normal(size=(g_count, n))
        batch, alone = self.streams(g_count, 311), self.streams(g_count, 311)
        sigma_inv, log_det = iw_draw(u, factor_stack(n + 2.5, n, batch), lower_log_det)
        assert sigma_inv.shape == (g_count, n, n)
        assert len(log_det) == g_count
        for g in range(g_count):
            s_inv, ld = iw_draw(u[g], one_factor(n + 2.5, n, alone[g]), lower_log_det)
            assert np.array_equal(sigma_inv[g], s_inv)
            assert log_det[g] == ld
            # each chain took exactly its own draws from its own stream
            assert batch[g].random() == alone[g].random()

    @pytest.mark.parametrize("cov_cholesky", [False, True])
    @pytest.mark.parametrize("g_count", [1, 3, 9])
    @pytest.mark.parametrize("n", [1, 4, 7, 55])
    def test_mvn_equals_its_slices(self, n, g_count, cov_cholesky):
        gen = np.random.default_rng(320 + n)
        precision = np.array([random_spd(gen, n) for _ in range(g_count)])
        shift = gen.normal(size=(g_count, n))
        batch, alone = self.streams(g_count, 321), self.streams(g_count, 321)
        draws = sample_mvn(shift, precision=precision, z=normals(batch, n),
                           cov_cholesky=cov_cholesky)
        assert draws.shape == (g_count, n)
        for g in range(g_count):
            one = sample_mvn(shift[g], precision=precision[g], z=alone[g].standard_normal(n),
                             cov_cholesky=cov_cholesky)
            assert np.array_equal(draws[g], one)
            assert batch[g].random() == alone[g].random()

    def test_one_stream_per_chain(self):
        stack = np.tile(np.eye(2), (3, 1, 1))
        with pytest.raises(DimensionError, match=r"normals \(2, 2\) do not match shift \(3, 2\)"):
            sample_mvn(np.zeros((3, 2)), precision=stack, z=normals(self.streams(2, 1), 2))
        with pytest.raises(DimensionError, match=r"factor \(2, 2, 2\) does not match"):
            iw_draw(np.zeros((3, 2)), factor_stack(5.0, 2, self.streams(2, 1)), 0.0)

    def test_condition_warnings_are_per_chain(self, caplog):
        # of three chains only the middle one is ill-conditioned, and only
        # it logs, once: its precision through a spread spectrum
        q = np.linalg.qr(np.random.default_rng(42).normal(size=(2, 2)))[0]
        ill = (q * [1.0, 1e-12]) @ q.T
        stack = np.array([np.eye(2), 0.5 * (ill + ill.T), 2.0 * np.eye(2)])
        with caplog.at_level(logging.WARNING, logger="blbayes.linalg"):
            sample_mvn(np.ones((3, 2)), precision=stack, z=normals(self.streams(3, 8), 2),
                       name="probe")
        assert [r.message.split(":")[0] for r in caplog.records] == ["probe"]


class TestInverseGamma:
    def test_mean(self):
        rng = rng_stream(300)
        draws = np.array([sample_inverse_gamma(3.0, 4.0, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(2.0, rel=0.05)

    def test_heavy_tail_shape_half(self):
        # shape 0.5 has no mean; draws must still be finite and positive
        rng = rng_stream(301)
        draws = np.array([sample_inverse_gamma(0.5, 1.0, rng) for _ in range(5_000)])
        assert np.all(draws > 0) and np.all(np.isfinite(draws))

    def test_density_match_scipy(self):
        rng = rng_stream(302)
        draws = np.array([sample_inverse_gamma(2.5, 1.5, rng) for _ in range(20_000)])
        p = stats.kstest(draws, stats.invgamma(a=2.5, scale=1.5).cdf).pvalue
        assert p > 0.001

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            sample_inverse_gamma(0.0, 1.0, rng_stream(1))
        with pytest.raises(ParameterError):
            sample_inverse_gamma(1.0, -2.0, rng_stream(1))
