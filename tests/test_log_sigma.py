"""Volterra machinery, the structural prior, and the MH-within-Gibbs chain."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from blbayes import linalg, log_sigma
from blbayes.diagnostics import posterior_mean_se
from blbayes.errors import ModelSizeError, ValidationError
from blbayes.linalg import (
    matrix_log_spd,
    spd_inverse,
    symmetrize,
    vec_star,
    vec_star_inverse,
)
from blbayes.log_sigma import (
    IG_SCALE_FLOOR,
    LogSigmaConfig,
    build_G,
    build_Q,
    build_f_vectors,
    exact_log_target,
    gibbs_log_sigma,
    mh_log_ratio,
    sigma_sq_conditionals,
    xi_coefficient,
)
from blbayes.sampling import rng_stream, sample_mvn
from blbayes.views import ViewSet
from conftest import calls_per_iteration, count_engine_calls, random_spd, random_symmetric
from oracles import (
    StructuralDesign,
    f_vectors_all_pairs,
    g_core_solve,
    matrix_exp_sym,
    volterra_log_density,
    xi_two_branch,
)


def random_orthonormal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def pairs(n):
    """The f-vector row order: the diagonal pairs, then i < j row-major."""
    return [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestXi:
    def test_equal_eigenvalues_limit(self):
        assert xi_coefficient(2.0, 2.0) == 1.0

    def test_hand_value(self):
        assert xi_coefficient(np.e, 1.0) == pytest.approx((np.e - 1) ** 2 / np.e, rel=1e-12)
        assert xi_coefficient(np.e, 1.0) == pytest.approx(1.08616, abs=1e-5)

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert xi_coefficient(a, b) == pytest.approx(xi_coefficient(b, a), rel=1e-12)

    def test_series_continuity_at_threshold(self):
        # raw formula just above the switch, series just below: both ~ 1
        lo = xi_coefficient(1.0, 1.0 + 5e-10)
        hi = xi_coefficient(1.0, 1.0 + 5e-8)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-8)

    def test_array_equal_eigenvalues_exact_and_silent(self):
        d = np.array([0.5, 2.0, 7.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi = xi_coefficient(d, d)
        assert np.array_equal(xi, np.ones(3))

    def test_array_matches_scalar_formula_on_both_branches(self):
        # pairs on the series side (|h| < 1e-8) and on the raw side
        d_i = np.array([1.0, 3.0, 1.0 + 5e-10, np.e, 0.2, 5.0])
        d_j = np.array([1.0 + 2e-9, 3.0, 1.0, 1.0, 9.0, 0.01])
        got = xi_coefficient(d_i, d_j)
        for a, b, x in zip(d_i, d_j, got):
            h = np.log(a) - np.log(b)
            if abs(h) < 1e-8:
                want = (1.0 + h * h / 24.0 + h**4 / 1920.0) ** 2
            else:
                want = (a - b) ** 2 / (a * b * h * h)
            assert x == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("near", [False, True])
    def test_equals_two_branch_form(self, near):
        # the raw-only path (no pair within the series threshold) and the
        # two-branch path select the same bits as evaluating both branches
        rng = np.random.default_rng(88)
        d = np.sort(rng.uniform(0.05, 20.0, size=10))
        if near:
            d[4] = d[3] * (1.0 + 3e-9)
        i, j = np.triu_indices(10, k=1)
        h = np.log(d[i]) - np.log(d[j])
        assert bool((np.abs(h) < 1e-8).any()) is near
        assert np.array_equal(xi_coefficient(d[i], d[j]), xi_two_branch(d[i], d[j]))


class TestFVectors:
    def test_standard_basis_n2(self):
        # rows: pairs (0, 0), (1, 1), (0, 1)
        f = build_f_vectors(np.eye(2))
        np.testing.assert_array_equal(f[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(f[1], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(f[2], [0.0, 0.0, 1.0])

    def test_defining_identity_random_basis(self):
        rng = np.random.default_rng(80)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            e = random_orthonormal(rng, n)
            f = build_f_vectors(e)
            a = random_symmetric(rng, n)
            va = vec_star(a)
            for p, (i, j) in enumerate(pairs(n)):
                lhs = va @ f[p]
                for rhs in (e[:, i] @ a @ e[:, j], e[:, j] @ a @ e[:, i]):
                    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_component_formula(self):
        # entries spelled out from the bilinear expansion, independent loop
        rng = np.random.default_rng(81)
        n = 3
        e = random_orthonormal(rng, n)
        f = build_f_vectors(e)
        order = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]
        for p, (i, j) in enumerate(pairs(n)):
            for pos, (k, l) in enumerate(order):
                if k == l:
                    expected = e[k, i] * e[k, j]
                else:
                    expected = e[k, i] * e[l, j] + e[l, i] * e[k, j]
                assert f[p][pos] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 7, 10, 20])
    def test_equals_double_loop_oracle(self, n):
        # the d pair rows, bit for bit, of the (n, n, d) all-pairs oracle
        e = random_orthonormal(np.random.default_rng(84 + n), n)
        i, j = np.array(pairs(n)).T
        got = build_f_vectors(e)
        assert got.shape == (n * (n + 1) // 2,) * 2
        assert np.array_equal(got, f_vectors_all_pairs(e)[i, j])


class TestBuildQ:
    def test_isotropic_scatter_gives_frobenius_form(self):
        # with S = cI the quadratic reduces to m/2 times the squared
        # Frobenius distance of the log-matrices, whatever the basis
        rng = np.random.default_rng(82)
        m = 7
        quad = build_Q(2.5 * np.eye(3), m)
        for _ in range(10):
            dmat = random_symmetric(rng, 3)
            d = vec_star(dmat)
            val = d @ quad.q_matrix @ d
            assert val == pytest.approx(m / 2 * np.sum(dmat * dmat), rel=1e-10)

    def test_hand_instance_diag_e_1(self):
        quad = build_Q(np.diag([np.e, 1.0]), m=5)
        xi = (np.e - 1) ** 2 / np.e
        # stacking order [a11, a22, a12]; eigenbasis is the standard basis
        expected = np.diag([2.5, 2.5, 5 * xi])
        np.testing.assert_allclose(quad.q_matrix, expected, atol=1e-12)
        np.testing.assert_allclose(quad.lambda_vec, [1.0, 0.0, 0.0], atol=1e-12)

    def test_psd_on_random_spd(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            quad = build_Q(random_spd(rng, n), m=int(rng.integers(1, 40)))
            w = np.linalg.eigvalsh(quad.q_matrix)
            assert w[0] > -1e-10 * max(w[-1], 1.0)

    def test_quadratic_zero_at_center(self):
        quad = build_Q(np.diag([1.0, 2.0, 3.0]), m=4)
        d = np.zeros(6)
        assert d @ quad.q_matrix @ d == 0.0


class TestVolterraDensity:
    def exact_gaussian_loglik(self, returns, mu):
        cov = (returns - mu).T @ (returns - mu) / len(returns)
        return float(
            np.sum(stats.multivariate_normal(mean=mu, cov=cov).logpdf(returns))
        )

    def test_exact_at_center_against_scipy(self):
        # at alpha = vec_star(log S) the approximation equals the exact
        # log-likelihood evaluated at Sigma = S (scipy is the oracle)
        rng = np.random.default_rng(84)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n + 1, 30))
            returns = rng.normal(size=(m, n)) * 0.3
            mu = rng.normal(size=n) * 0.1
            s = (returns - mu).T @ (returns - mu) / m
            lam = vec_star(matrix_log_spd(s))
            approx = volterra_log_density(lam, s, m)
            assert approx == pytest.approx(self.exact_gaussian_loglik(returns, mu), abs=1e-9)

    def test_even_around_center(self):
        rng = np.random.default_rng(85)
        s = random_spd(rng, 3)
        quad = build_Q(s, 9)
        v = rng.normal(size=quad.lambda_vec.size)
        plus = volterra_log_density(quad.lambda_vec + v, s, 9, quad)
        minus = volterra_log_density(quad.lambda_vec - v, s, 9, quad)
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_third_order_error(self):
        # halving the perturbation must shrink the approximation error by
        # ~2^3; measured over 20 random directions in aggregate (individual
        # directions can hit cubic/quartic cancellations)
        rng = np.random.default_rng(86)
        n, m = 3, 21
        s = random_spd(rng, n)
        quad = build_Q(s, m)
        norm = 0.5 * m * n * np.log(2 * np.pi)  # from the (2 pi)^{-mn/2} factor
        ratios, coarse, fine = [], [], []
        for _ in range(20):
            v = rng.normal(size=quad.lambda_vec.size)
            v /= np.linalg.norm(v)
            errs = []
            for t in (0.1, 0.05):
                a = quad.lambda_vec + t * v
                exact = exact_log_target(a, s, m) - norm
                errs.append(abs(volterra_log_density(a, s, m, quad) - exact))
            ratios.append(errs[0] / errs[1])
            coarse.append(errs[0])
            fine.append(errs[1])
        assert np.mean(coarse) >= 6.0 * np.mean(fine)
        assert np.median(ratios) >= 6.0


class TestExactTarget:
    def test_constant_offset_from_volterra_at_center(self):
        rng = np.random.default_rng(87)
        for n, m in ((2, 5), (4, 21)):
            s = random_spd(rng, n)
            lam = vec_star(matrix_log_spd(s))
            offset = exact_log_target(lam, s, m) - volterra_log_density(lam, s, m)
            assert offset == pytest.approx(0.5 * m * n * np.log(2 * np.pi), rel=1e-12)

    def test_matches_direct_likelihood_oracle(self):
        # exact target at arbitrary alpha == scipy log-likelihood at
        # Sigma = exp(unstack(alpha)) plus the (2 pi)^{-mn/2} constant
        rng = np.random.default_rng(89)
        n, m = 3, 12
        returns = rng.normal(size=(m, n)) * 0.4
        mu = rng.normal(size=n) * 0.1
        s = (returns - mu).T @ (returns - mu) / m
        alpha = vec_star(random_symmetric(rng, n, scale=0.4))
        sigma = _exp_sym(vec_star_inverse(alpha))
        direct = float(
            np.sum(stats.multivariate_normal(mean=mu, cov=sigma).logpdf(returns))
        )
        val = exact_log_target(alpha, s, m) - 0.5 * m * n * np.log(2 * np.pi)
        assert val == pytest.approx(direct, rel=1e-10)


def _exp_sym(a):
    w, v = np.linalg.eigh(a)
    return (v * np.exp(w)) @ v.T


class TestStructuralPrior:
    def test_g_annihilates_j(self):
        for n, s1, s2 in ((2, 1.0, 2.0), (4, 0.3, 5.0), (6, 2.2, 0.1)):
            design = StructuralDesign(n, s1, s2)
            g = build_G(n, design.sigma1_sq, design.sigma2_sq)
            assert np.abs(g @ design.j_matrix).max() < 1e-12

    def test_scalar_form_of_quadratic(self):
        rng = np.random.default_rng(90)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            design = StructuralDesign(n, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
            g = build_G(n, design.sigma1_sq, design.sigma2_sq)
            alpha = rng.normal(size=design.d) * 2
            diag, off = alpha[:n], alpha[n:]
            expected = (
                np.sum((diag - diag.mean()) ** 2) / design.sigma1_sq
                + np.sum((off - off.mean()) ** 2) / design.sigma2_sq
            )
            val = alpha @ g @ alpha
            assert abs(val - expected) < 1e-10 * max(expected, 1.0)

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_block_centering_equals_core_solve(self, n):
        rng = np.random.default_rng(95 + n)
        for s1, s2 in [(1.0, 1.0), (0.7, 1.9)] + [tuple(rng.uniform(0.01, 5.0, 2))
                                                  for _ in range(5)]:
            design = StructuralDesign(n, s1, s2)
            g = build_G(n, design.sigma1_sq, design.sigma2_sq)
            assert np.array_equal(g, g.T)
            np.testing.assert_allclose(g, g_core_solve(design), rtol=1e-14, atol=0.0)

    def test_quadrature_matches_closed_form(self):
        # 2-D quadrature of the location integral (n=4, d=10)
        rng = np.random.default_rng(91)
        n = 4
        design = StructuralDesign(n, 0.7, 1.9)
        d = design.d
        g = build_G(n, design.sigma1_sq, design.sigma2_sq)
        alpha = rng.normal(size=d)
        delta = design.delta_diag

        def integrand(t2, t1):
            jt = np.concatenate([np.full(n, t1), np.full(d - n, t2)])
            diff = alpha - jt
            return np.exp(-0.5 * np.sum(diff * diff / delta))

        av, ac = alpha[:n].mean(), alpha[n:].mean()
        s1sd = np.sqrt(design.sigma1_sq / n)
        s2sd = np.sqrt(design.sigma2_sq / (d - n))
        val, _ = integrate.dblquad(
            integrand, av - 12 * s1sd, av + 12 * s1sd,
            lambda _: ac - 12 * s2sd, lambda _: ac + 12 * s2sd,
            epsabs=1e-14, epsrel=1e-12,
        )
        det_d = np.prod(delta)
        lhs = det_d ** -0.5 * val
        core_det = (n / design.sigma1_sq) * ((d - n) / design.sigma2_sq)
        rhs = 2 * np.pi * det_d ** -0.5 * core_det ** -0.5 * np.exp(-0.5 * alpha @ g @ alpha)
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestSigmaSqConditionals:
    def test_hand_case_n4(self):
        alpha = np.array([0.0, 1.0, 2.0, 3.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        (sh1, sc1), (sh2, sc2) = sigma_sq_conditionals(alpha, 4)
        assert sh1 == pytest.approx(0.5)
        assert sc1 == pytest.approx(2.5)
        assert sh2 == pytest.approx(1.5)
        assert sc2 == IG_SCALE_FLOOR  # off-diagonal block is constant

    def test_shapes_n5(self):
        alpha = np.arange(15, dtype=float)
        (sh1, _), (sh2, _) = sigma_sq_conditionals(alpha, 5)
        assert (sh1, sh2) == (1.0, 3.5)

    def test_degenerate_diag_block_floored(self):
        alpha = np.concatenate([np.ones(4), np.arange(6, dtype=float)])
        (_, sc1), _ = sigma_sq_conditionals(alpha, 4)
        assert sc1 == IG_SCALE_FLOOR


class TestMhRatio:
    def setup_instance(self, seed=92, n=2):
        rng = np.random.default_rng(seed)
        m = n + 3
        returns = rng.normal(size=(m, n)) * 0.5
        mu = rng.normal(size=n) * 0.1
        s = (returns - mu).T @ (returns - mu) / m
        quad = build_Q(s, m)
        d = quad.lambda_vec.size
        g = 0.3 * (np.eye(d) - np.ones((d, d)) / d)
        return s, m, quad, g, rng

    @staticmethod
    def ratio(cand, curr, s, m, quad):
        return mh_log_ratio(cand, curr, exact_log_target(cand, s, m),
                            exact_log_target(curr, s, m), quad)

    def test_identity_candidate(self):
        s, m, quad, g, rng = self.setup_instance()
        a = rng.normal(size=3)
        assert self.ratio(a, a, s, m, quad) == 0.0

    def test_antisymmetry(self):
        s, m, quad, g, rng = self.setup_instance()
        a, b = rng.normal(size=3), rng.normal(size=3)
        fwd = self.ratio(a, b, s, m, quad)
        rev = self.ratio(b, a, s, m, quad)
        assert fwd == pytest.approx(-rev, rel=1e-12)

    def test_against_raw_density_oracle(self):
        # recompute rho from raw densities written out longhand, prior terms
        # included with a non-zero G: they cancel, so the G-free ratio must
        # match
        for n in (2, 4):
            s, m, quad, g, rng = self.setup_instance(93, n)
            assert np.abs(g).max() > 0.0
            cand, curr = rng.normal(size=(2, quad.lambda_vec.size))

            def raw_exact(alpha):
                a = vec_star_inverse(alpha)
                w, v = np.linalg.eigh(a)
                tr = w.sum() + np.sum(s * ((v * np.exp(-w)) @ v.T))
                return -0.5 * m * tr - 0.5 * alpha @ g @ alpha

            def raw_approx(alpha):
                d = alpha - quad.lambda_vec
                return -0.5 * d @ quad.q_matrix @ d - 0.5 * alpha @ g @ alpha

            expected = raw_exact(cand) - raw_exact(curr) + raw_approx(curr) - raw_approx(cand)
            got = self.ratio(cand, curr, s, m, quad)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_detailed_balance_against_importance_sampling(self):
        # frozen (S, G, Q): the MH subchain's mean must agree with an
        # importance-sampling estimate of the exact conditional mean
        rng0 = np.random.default_rng(3)
        x = rng0.normal(size=(40, 2))
        s = x.T @ x / 40 + 0.05 * np.eye(2)
        m = 30
        quad = build_Q(s, m)
        g = 0.4 * (np.eye(3) - np.ones((3, 3)) / 3)
        prop_prec = quad.q_matrix + g
        prop_shift = quad.q_matrix @ quad.lambda_vec
        prop_cov = spd_inverse(prop_prec)
        center = prop_cov @ prop_shift

        stream = rng_stream(99)
        alpha = quad.lambda_vec.copy()
        n_iter, burn = 40_000, 2_000
        draws = np.empty((n_iter, 3))
        for t in range(n_iter):
            cand = sample_mvn(prop_shift, precision=prop_prec, z=stream.standard_normal(3))
            lr = self.ratio(cand, alpha, s, m, quad)
            if np.log(stream.random()) < lr:
                alpha = cand
            draws[t] = alpha
        post = draws[burn:]
        mh_mean = post.mean(axis=0)
        mh_se = np.array([posterior_mean_se(post[:, i]) for i in range(3)])

        gen = rng_stream(1234)
        n_is = 200_000
        chol = np.linalg.cholesky(prop_cov)
        samples = center + gen.standard_normal((n_is, 3)) @ chol.T
        # exact conditional over proposal; the prior term of each cancels
        logw = np.array([exact_log_target(a, s, m) - quad.log_kernel(a) for a in samples])
        w = np.exp(logw - logw.max())
        w /= w.sum()
        is_mean = w @ samples
        is_se = np.sqrt(np.sum((w[:, None] * (samples - is_mean)) ** 2, axis=0))
        comb = np.hypot(mh_se, is_se)
        assert np.all(np.abs(mh_mean - is_mean) < 4 * comb)


@pytest.fixture(scope="module")
def four_asset_data():
    rng = np.random.default_rng(94)
    vols = np.array([0.018, 0.022, 0.016, 0.015])
    corr = 0.4 + 0.6 * np.eye(4)
    cov = corr * np.outer(vols, vols)
    returns = rng.multivariate_normal([5e-4, 8e-4, 4e-4, 6e-4], cov, size=21)
    views = ViewSet(
        np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]),
        np.array([0.02, 0.05]),
        np.array([1e-4, 1e-4]),
    )
    return returns, views


class TestSigmaPair:
    """Sigma and Sigma^-1 from one eigendecomposition of the accepted alpha."""

    @staticmethod
    def alpha_with_log_eigvals(w):
        q, _ = np.linalg.qr(np.random.default_rng(43).normal(size=(len(w), len(w))))
        return vec_star(symmetrize((q * w) @ q.T))

    def test_pair_is_exp_and_its_inverse(self):
        rng = np.random.default_rng(44)
        for n in (1, 4, 7):
            a = random_symmetric(rng, n)
            sigma, sigma_inv, _ = log_sigma._sigma_pair(*log_sigma._decompose(vec_star(a)))
            assert np.array_equal(sigma, matrix_exp_sym(a))
            assert np.array_equal(sigma_inv, sigma_inv.T)
            np.testing.assert_allclose(sigma_inv, matrix_exp_sym(-a), rtol=1e-12)
            np.testing.assert_allclose(sigma @ sigma_inv, np.eye(n), rtol=0, atol=1e-12)

    def test_log_det_matches_slogdet(self):
        rng = np.random.default_rng(45)
        for n in (1, 4, 7):
            for _ in range(20):
                a = random_symmetric(rng, n)
                sigma, _, log_det = log_sigma._sigma_pair(*log_sigma._decompose(vec_star(a)))
                sign, expected = np.linalg.slogdet(sigma)
                assert sign == 1.0
                assert log_det == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_log_eigenvalue_spread_above_cond_warn_logs(self, caplog):
        # ln(1e10) = 23.03; the warning reports the exact exp(w_max - w_min)
        alpha = self.alpha_with_log_eigvals([-12.0, 0.0, 3.0, 11.5])
        with caplog.at_level(logging.DEBUG, logger="blbayes.linalg"):
            log_sigma._sigma_pair(*log_sigma._decompose(alpha))
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "Sigma draw: condition number >= " in caplog.records[0].message
        assert f"{np.exp(23.5):.3e}" in caplog.records[0].message

    def test_spread_below_cond_warn_is_silent(self, caplog):
        alpha = self.alpha_with_log_eigvals([-12.0, 0.0, 3.0, 10.5])
        with caplog.at_level(logging.DEBUG, logger="blbayes.linalg"):
            log_sigma._sigma_pair(*log_sigma._decompose(alpha))
        assert caplog.records == []


class TestGibbsLogSigma:
    def test_determinism(self, four_asset_data):
        returns, views = four_asset_data
        cfg = LogSigmaConfig(iters=400, burn=100, seed=7)
        a = gibbs_log_sigma(returns, views, cfg)
        b = gibbs_log_sigma(returns, views, cfg)
        np.testing.assert_array_equal(a.mu_post, b.mu_post)
        np.testing.assert_array_equal(a.sigma_post, b.sigma_post)
        assert a.acceptance_rate == b.acceptance_rate

    def test_builds_Q_once_per_iteration(self, four_asset_data, monkeypatch):
        returns, views = four_asset_data
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return build_Q(*args, **kwargs)

        monkeypatch.setattr(log_sigma, "build_Q", counting)
        gibbs_log_sigma(returns, views, LogSigmaConfig(iters=50, burn=10, seed=4))
        assert len(calls) == 50

    @staticmethod
    def chain(returns, views):
        def run(iters):
            gibbs_log_sigma(returns, views, LogSigmaConfig(iters=iters, burn=5, seed=4))
        return run

    def test_factors_each_matrix_once(self, four_asset_data, monkeypatch):
        # per iteration: one Cholesky factor of the proposal precision Q+G,
        # one of mu's conditional precision, and no inverse; the step hands
        # the loop Sigma^-1, so spd_inverse runs only in set-up (Omega^-1).
        # One solve per normal draw: the proposal and mu
        counters = [count_engine_calls(monkeypatch, np.linalg, "cholesky"),
                    count_engine_calls(monkeypatch, np.linalg, "inv"),
                    count_engine_calls(monkeypatch, linalg, "spd_inverse"),
                    count_engine_calls(monkeypatch, np.linalg, "solve")]
        assert calls_per_iteration(self.chain(*four_asset_data), counters) == [2, 0, 0, 2]

    def test_decomposes_once_per_iteration(self, four_asset_data, monkeypatch):
        # one eigh of the scatter in build_Q and one of the candidate, on
        # accepted and rejected iterations alike: the current alpha's side of
        # the ratio and an accepted Sigma reuse decompositions already made
        returns, views = four_asset_data
        counts = [0]  # the start, then one entry per iteration
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            counts[-1] += 1
            return eigh(*args, **kwargs)

        def marking_build_Q(*args, **kwargs):
            counts.append(0)
            return build_Q(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(log_sigma, "build_Q", marking_build_Q)
        s = gibbs_log_sigma(returns, views, LogSigmaConfig(iters=60, burn=10, seed=4))
        assert set(s.accepted.tolist()) == {False, True}
        assert counts[1:] == [2] * 60

    def test_lean_step_call_counts(self, four_asset_data, monkeypatch):
        # per iteration: one build_f_vectors (inside build_Q) and one build_G;
        # the pair indices come from their cache, never from np.triu_indices
        returns, views = four_asset_data
        counts = []  # per iteration: [build_f_vectors calls, build_G calls]
        triu_calls = []
        triu_indices = np.triu_indices

        def marking_build_Q(*args, **kwargs):
            counts.append([0, 0])
            return build_Q(*args, **kwargs)

        def counting(slot, fn):
            def wrapped(*args, **kwargs):
                counts[-1][slot] += 1
                return fn(*args, **kwargs)
            return wrapped

        def counting_triu(*args, **kwargs):
            triu_calls.append(args)
            return triu_indices(*args, **kwargs)

        monkeypatch.setattr(log_sigma, "build_Q", marking_build_Q)
        monkeypatch.setattr(log_sigma, "build_f_vectors", counting(0, build_f_vectors))
        monkeypatch.setattr(log_sigma, "build_G", counting(1, build_G))
        monkeypatch.setattr(np, "triu_indices", counting_triu)
        gibbs_log_sigma(returns, views, LogSigmaConfig(iters=50, burn=10, seed=4))
        assert counts == [[1, 1]] * 50
        assert triu_calls == []

    def test_acceptance_rate_healthy(self, four_asset_data):
        returns, views = four_asset_data
        s = gibbs_log_sigma(returns, views, LogSigmaConfig(iters=1500, burn=300, seed=8))
        assert 0.05 < s.acceptance_rate <= 1.0
        assert 0.0 <= s.acceptance_rate_burn <= 1.0
        assert s.extra["ig_scale_floor_hits"] == 0

    def test_view_anchoring(self, four_asset_data):
        returns, views = four_asset_data
        dists = []
        for om in (1e-4, 1e-6):
            s = gibbs_log_sigma(
                returns, views.with_omega([om, om]),
                LogSigmaConfig(iters=2500, burn=500, seed=9),
            )
            dists.append(np.linalg.norm(views.p @ s.mu_post - views.q))
        assert dists[1] < dists[0]

    def test_small_n_rejected(self):
        returns = np.random.default_rng(1).normal(size=(21, 3))
        views = ViewSet(np.array([[1.0, -1.0, 0.0]]), [0.02], [1e-4])
        with pytest.raises(ModelSizeError):
            gibbs_log_sigma(returns, views, LogSigmaConfig(iters=10, burn=1, seed=1))

    def test_short_window_rejected(self, four_asset_data):
        _, views = four_asset_data
        returns = np.random.default_rng(2).normal(size=(4, 4)) * 0.01
        with pytest.raises(ValidationError, match=r"^data\.m: .*m > n = 4"):
            gibbs_log_sigma(returns, views, LogSigmaConfig(iters=10, burn=1, seed=1))

    def test_omega_hard_floor(self, four_asset_data):
        returns, views = four_asset_data
        with pytest.raises(ValidationError):
            gibbs_log_sigma(
                returns, views.with_omega([1e-13, 1e-4]),
                LogSigmaConfig(iters=10, burn=1, seed=1),
            )

    def test_trace_includes_accept_column(self, four_asset_data):
        # the per-iteration record holds every accept flag, burn-in included,
        # and the acceptance rates are its shares
        returns, views = four_asset_data
        s = gibbs_log_sigma(returns, views, LogSigmaConfig(iters=30, burn=5, seed=3))
        assert s.accepted.dtype == bool and s.accepted.shape == (30,)
        assert s.mu_draws.shape == (30, 4) and s.log_det_sigma.shape == (30,)
        assert s.acceptance_rate == s.accepted[5:].mean()
        assert s.acceptance_rate_burn == s.accepted[:5].mean()
