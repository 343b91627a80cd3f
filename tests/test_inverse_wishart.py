"""Conditionals and full chains of the Inverse-Wishart models."""

import csv
import logging
from dataclasses import replace

import numpy as np
import pytest

from blbayes import inverse_wishart
from blbayes.errors import InsufficientDataError, ValidationError
from blbayes.inverse_wishart import (
    IwConfig,
    check_chain_length,
    check_omega_floor,
    gibbs_augmented,
    gibbs_chain,
    gibbs_nonsquare,
    sigma_conditional,
)
from blbayes.linalg import spd_inverse
from blbayes.log_sigma import LogSigmaConfig
from blbayes.sampling import RngStream, sample_mvn
from blbayes.views import ViewSet
from conftest import random_spd
from oracles import mu_conditional


def make_config(n=2, **kw):
    defaults = dict(nu=n + 2, sigma0=0.02 * np.eye(n), iters=3000, burn=500, seed=11)
    defaults.update(kw)
    return IwConfig(**defaults)


class TestMuConditional:
    def test_scalar_hand_values(self):
        mean, cov = mu_conditional(
            rbar=np.array([1.0]), sigma=np.array([[1.0]]),
            q_eff=np.array([0.0]), omega_eff=np.array([[1.0]]),
            p_eff=np.array([[1.0]]), m=4,
        )
        assert cov[0, 0] == pytest.approx(0.2, rel=1e-14)
        assert mean[0] == pytest.approx(0.8, rel=1e-14)

    def test_vague_views_limit(self):
        rng = np.random.default_rng(1)
        sigma = random_spd(rng, 3)
        rbar = rng.normal(size=3)
        mean, cov = mu_conditional(rbar, sigma, None, None, None, m=7)
        np.testing.assert_allclose(mean, rbar, rtol=1e-12)
        np.testing.assert_allclose(cov, sigma / 7, rtol=1e-12)

    def test_matches_independent_conjugate_path(self):
        # direct matrix algebra with numpy.linalg.inv, no shared helpers
        rng = np.random.default_rng(2)
        n, k, m = 4, 2, 9
        sigma = random_spd(rng, n)
        p = rng.normal(size=(k, n))
        q = rng.normal(size=k)
        omega = np.diag(rng.uniform(0.01, 0.1, size=k))
        rbar = rng.normal(size=n)
        mean, cov = mu_conditional(rbar, sigma, q, omega, p, m)
        si = np.linalg.inv(sigma)
        oi = np.linalg.inv(omega)
        cov_o = np.linalg.inv(m * si + p.T @ oi @ p)
        mean_o = cov_o @ (m * si @ rbar + p.T @ oi @ q)
        np.testing.assert_allclose(cov, cov_o, atol=1e-10)
        np.testing.assert_allclose(mean, mean_o, atol=1e-10)

    def test_identity_pick_matrix(self):
        rng = np.random.default_rng(3)
        n, m = 3, 6
        sigma = random_spd(rng, n)
        omega = random_spd(rng, n, jitter=0.5)
        q = rng.normal(size=n)
        rbar = rng.normal(size=n)
        mean_id, cov_id = mu_conditional(rbar, sigma, q, omega, None, m)
        mean_p, cov_p = mu_conditional(rbar, sigma, q, omega, np.eye(n), m)
        np.testing.assert_allclose(mean_id, mean_p, atol=1e-13)
        np.testing.assert_allclose(cov_id, cov_p, atol=1e-13)


class TestSigmaConditional:
    def test_zero_residuals(self):
        dof, scale = sigma_conditional(np.zeros((2, 2)), nu=4.0, sigma0=0.1 * np.eye(2), m=6)
        assert dof == 10.0
        np.testing.assert_array_equal(scale, 0.1 * np.eye(2))

    def test_scalar_hand_values(self):
        dof, scale = sigma_conditional(np.array([[2.0]]), nu=3.0, sigma0=np.array([[1.0]]), m=2)
        assert dof == 5.0
        assert scale[0, 0] == 3.0

    def test_posterior_mean_consistency(self):
        # scatter from many draws of a known normal: the implied posterior
        # mean scale/(dof-n-1) approaches the true covariance
        rng = np.random.default_rng(4)
        n, m = 3, 10_000
        sigma_true = random_spd(rng, n, jitter=0.2)
        mu_true = rng.normal(size=n)
        draws = rng.multivariate_normal(mu_true, sigma_true, size=m)
        resid = draws - mu_true
        dof, scale = sigma_conditional(resid.T @ resid, nu=n + 2.0, sigma0=0.01 * np.eye(n), m=m)
        post_mean = scale / (dof - n - 1)
        rel = np.linalg.norm(post_mean - sigma_true) / np.linalg.norm(sigma_true)
        assert rel < 0.10


class TestOmegaFloors:
    def views(self, om):
        return ViewSet(np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([0.02, 0.05]), om)

    def test_nonsquare_floor(self):
        check_omega_floor(self.views([1e-7, 1e-7]), 1e-9, False, "non-square")
        with pytest.raises(ValidationError, match="floor"):
            check_omega_floor(self.views([1e-10, 1e-7]), 1e-9, False, "non-square")

    def test_augmented_floor(self):
        with pytest.raises(ValidationError):
            check_omega_floor(self.views([1e-7, 1e-7]), 1e-6, False, "augmented")

    def test_override_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="blbayes.inverse_wishart"):
            check_omega_floor(self.views([1e-10, 1e-7]), 1e-9, True, "non-square")
        assert any("proceeding on request" in r.message for r in caplog.records)

    def test_hard_floor_not_overridable(self):
        with pytest.raises(ValidationError, match="hard floor"):
            check_omega_floor(self.views([1e-13, 1e-7]), 1e-9, True, "non-square")


class TestDefaultFor:
    hist = np.array([[4e-4, 1e-4], [1e-4, 6e-4]])

    def test_prior_mean_is_historical_covariance(self):
        cfg = IwConfig.default_for(self.hist, iters=10, burn=1, seed=1)
        assert cfg.nu == 4
        np.testing.assert_array_equal(cfg.sigma0, self.hist)

    def test_small_nu_without_sigma0_rejected(self):
        # nu = n + 0.5 would scale the default Sigma0 by a non-positive factor
        with pytest.raises(ValidationError, match="sigma0") as info:
            IwConfig.default_for(self.hist, iters=10, burn=1, seed=1, nu=2.5)
        assert info.value.path == "nu"

    def test_small_nu_with_sigma0_accepted(self):
        cfg = IwConfig.default_for(self.hist, iters=10, burn=1, seed=1,
                                   nu=2.5, sigma0=0.02 * np.eye(2))
        assert cfg.nu == 2.5
        np.testing.assert_array_equal(cfg.sigma0, 0.02 * np.eye(2))


class TestChainLength:
    """One rule, 0 <= burn <= iters - 2, for the config file and both chain
    configs: a single post-burn draw has no standard error."""

    @pytest.mark.parametrize("iters, burn", [(2, 1), (10, 9), (10, 10), (10, -1), (1, 0)])
    def test_rejected(self, iters, burn):
        for make in (check_chain_length,
                     lambda i, b: IwConfig(nu=4.0, sigma0=np.eye(2), iters=i, burn=b, seed=1),
                     lambda i, b: LogSigmaConfig(iters=i, burn=b, seed=1)):
            with pytest.raises(ValidationError) as info:
                make(iters, burn)
            assert info.value.path == "burn"

    @pytest.mark.parametrize("iters, burn", [(2, 0), (3, 1), (10, 8)])
    def test_accepted(self, iters, burn):
        check_chain_length(iters, burn)
        IwConfig(nu=4.0, sigma0=np.eye(2), iters=iters, burn=burn, seed=1)
        LogSigmaConfig(iters=iters, burn=burn, seed=1)


@pytest.fixture(scope="module")
def small_dataset():
    rng = np.random.default_rng(50)
    n, m = 2, 25
    sigma_true = np.array([[4e-4, 1e-4], [1e-4, 6e-4]])
    returns = rng.multivariate_normal([0.001, -0.002], sigma_true, size=m)
    views = ViewSet(np.array([[1.0, -1.0]]), np.array([0.02]), np.array([1e-4]))
    return returns, views


class TestChains:
    def test_determinism(self, small_dataset):
        returns, views = small_dataset
        cfg = make_config(iters=800, burn=100)
        a = gibbs_nonsquare(returns, views, cfg)
        b = gibbs_nonsquare(returns, views, cfg)
        np.testing.assert_array_equal(a.mu_post, b.mu_post)
        np.testing.assert_array_equal(a.sigma_post, b.sigma_post)
        c = gibbs_nonsquare(returns, views, replace(cfg, seed=988))
        assert not np.array_equal(a.mu_post, c.mu_post)

    def test_vague_views_track_sample_mean(self, small_dataset):
        returns, views = small_dataset
        vague = views.with_omega([1e3])
        cfg = make_config(iters=4000, burn=500, seed=21)
        s = gibbs_nonsquare(returns, vague, cfg)
        rbar = returns.mean(axis=0)
        post_sd = np.sqrt(np.diag(s.mu_draw_cov))
        assert np.all(np.abs(s.mu_post - rbar) < 3 * post_sd)

    def test_view_anchoring_ordering(self, small_dataset):
        returns, views = small_dataset
        cfg = make_config(iters=3000, burn=400, seed=31)
        dists = []
        for om in (1e-2, 1e-4, 1e-6):
            s = gibbs_nonsquare(returns, views.with_omega([om]), cfg)
            dists.append(np.linalg.norm(views.p @ s.mu_post - views.q))
        assert dists[0] > dists[1] > dists[2]

    def test_augmented_agrees_with_nonsquare_for_square_p(self):
        rng = np.random.default_rng(51)
        n, m = 2, 25
        returns = rng.multivariate_normal([0.01, -0.02], random_spd(rng, n, jitter=0.3) * 0.01, size=m)
        views = ViewSet(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.02, 0.05]), [5e-3, 8e-3])
        cfg = make_config(iters=12_000, burn=1500, seed=314)
        months = rng.normal(size=(8, 2)) * 0.01
        sa = gibbs_augmented(returns, views, months, cfg)
        sb = gibbs_nonsquare(returns, views, replace(cfg, seed=2718))
        comb = np.sqrt(sa.mu_se**2 + sb.mu_se**2)
        assert np.all(np.abs(sa.mu_post - sb.mu_post) < 3 * comb)

    @pytest.mark.parametrize("variant", ["nonsquare", "augmented"])
    def test_inverts_once_per_iteration(self, small_dataset, monkeypatch, variant):
        # the covariance step returns its draw's inverse, so the loop inverts
        # only the mu conditional's precision
        returns, views = small_dataset
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return spd_inverse(*args, **kwargs)

        monkeypatch.setattr(inverse_wishart, "spd_inverse", counting)
        cfg = make_config(iters=40, burn=10)
        if variant == "nonsquare":
            gibbs_nonsquare(returns, views, cfg)
        else:
            months = np.random.default_rng(52).normal(size=(8, 2)) * 0.01
            gibbs_augmented(returns, views, months, cfg)
        assert len(calls) == 40

    def test_stationarity_split_check(self, small_dataset):
        returns, views = small_dataset
        s = gibbs_nonsquare(returns, views, make_config(iters=4000, burn=500, seed=61))
        assert s.geweke_pass()
        assert s.acceptance_rate == 1.0 and s.acceptance_rate_burn == 1.0

    def test_trace_csv(self, small_dataset, tmp_path):
        returns, views = small_dataset
        cfg = make_config(iters=50, burn=10)
        path = tmp_path / "trace.csv"
        gibbs_nonsquare(returns, views, cfg, trace_path=path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["iteration", "mu_0", "mu_1", "logdet_sigma"]
        assert len(rows) == 51
        float(rows[1][3])  # parses
        # byte determinism
        path2 = tmp_path / "trace2.csv"
        gibbs_nonsquare(returns, views, cfg, trace_path=path2)
        assert path.read_bytes() == path2.read_bytes()


class TestGibbsChain:
    """The shared loop, driven by a stub covariance step that returns a
    fixed Sigma and accepts every other iteration."""

    sigma_fix = np.array([[4e-4, 1e-4], [1e-4, 6e-4]])
    # not log det sigma_fix: the trace must carry the step's value as given
    log_det_fix = -1.25

    def stub(self, seen, fail_at=None):
        def step(mu, rng):
            if len(seen) == fail_at:
                raise RuntimeError("stub step failed")
            seen.append(mu.copy())
            return (self.sigma_fix, np.linalg.inv(self.sigma_fix), self.log_det_fix,
                    len(seen) % 2 == 1)
        return step

    def run(self, returns, views, step, cfg, trace_path=None):
        return gibbs_chain(returns, views.q, views.omega, views.p, cfg, step,
                           trace_path, mh=True)

    def test_flags_trace_and_sigma_mean(self, small_dataset, tmp_path):
        returns, views = small_dataset
        seen = []
        path = tmp_path / "trace.csv"
        mu_draws, sigma_mean, accepts = self.run(
            returns, views, self.stub(seen), make_config(iters=20, burn=5), path
        )
        flags = [t % 2 == 0 for t in range(20)]
        assert accepts.tolist() == flags
        np.testing.assert_array_equal(seen[0], returns.mean(axis=0))
        np.testing.assert_array_equal(seen[1:], mu_draws[:-1])
        np.testing.assert_allclose(sigma_mean, self.sigma_fix, rtol=1e-14)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["iteration", "mu_0", "mu_1", "logdet_sigma", "accepted"]
        assert [r[-1] for r in rows[1:]] == [str(int(f)) for f in flags]
        assert {r[-2] for r in rows[1:]} == {"-1.25"}

    def test_step_error_propagates_and_trace_is_closed(self, small_dataset, tmp_path):
        returns, views = small_dataset
        path = tmp_path / "trace.csv"
        with pytest.raises(RuntimeError, match="stub step failed") as info:
            self.run(returns, views, self.stub([], fail_at=3),
                     make_config(iters=20, burn=5), path)
        # info keeps the loop's frame, and so its open trace, alive: the rows
        # reach the file only if the loop closed it
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0][0] == "iteration"
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]

    def test_empty_window_rejected(self, small_dataset):
        _, views = small_dataset
        with pytest.raises(InsufficientDataError):
            self.run(np.empty((0, 2)), views, self.stub([]), make_config(iters=20, burn=5))


class TestFullChainOracle:
    def test_concentrated_prior_recovers_fixed_sigma_posterior(self):
        # with enormous nu the covariance prior pins Sigma at Sigma_fix, so
        # the full chain's mu mean must match the closed-form conditional at
        # that fixed covariance
        rng = np.random.default_rng(75)
        n, m = 2, 25
        sigma_fix = np.array([[4e-4, 1e-4], [1e-4, 6e-4]])
        returns = rng.multivariate_normal([0.001, -0.002], sigma_fix, size=m)
        views = ViewSet(np.array([[1.0, -1.0]]), np.array([0.02]), np.array([1e-3]))
        nu = 1e6
        cfg = IwConfig(nu=nu, sigma0=(nu - n - 1) * sigma_fix,
                       iters=6000, burn=1000, seed=76)
        s = gibbs_nonsquare(returns, views, cfg)
        mean, _ = mu_conditional(returns.mean(axis=0), sigma_fix, views.q,
                                 views.omega, views.p, m)
        assert np.all(np.abs(s.mu_post - mean) < 4 * s.mu_se)
        rel = np.linalg.norm(s.sigma_post - sigma_fix) / np.linalg.norm(sigma_fix)
        assert rel < 0.01


class TestMuSamplerLongRun:
    def test_long_run_mean_matches_closed_form(self):
        # known Sigma held fixed: the mean draw's long-run average must match
        # the closed-form conditional mean within Monte-Carlo error
        rng = np.random.default_rng(70)
        n, m = 3, 15
        sigma = random_spd(rng, n) * 0.01
        p = np.array([[1.0, -1.0, 0.0]])
        views = ViewSet(p, np.array([0.05]), np.array([2e-3]))
        rbar = rng.normal(size=n) * 0.01
        mean, cov = mu_conditional(rbar, sigma, views.q, views.omega, p, m)
        stream = RngStream(71)
        draws = np.array([sample_mvn(mean, cov, stream) for _ in range(10_000)])
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)
