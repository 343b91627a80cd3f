"""Conditionals and full chains of the Inverse-Wishart models."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from blbayes import demo, inverse_wishart, linalg, log_sigma, sampling
from blbayes.backtest import ModelSettings, historical_covariance, run_model
from blbayes.data import monthly_means
from blbayes.errors import (
    ChainError,
    DimensionError,
    InsufficientDataError,
    ValidationError,
)
from blbayes.inverse_wishart import (
    IwConfig,
    check_chain_length,
    check_omega_floor,
    gibbs_augmented,
    gibbs_nonsquare,
)
from blbayes.log_sigma import LogSigmaConfig, gibbs_log_sigma
from blbayes.sampling import rng_stream, sample_mvn
from blbayes.views import ViewSet, augment_to_invertible, build_transformed_hyperparams
from conftest import calls_per_iteration, count_engine_calls, random_spd
from oracles import (
    collapsed_iw_moments,
    gibbs_augmented_view_space,
    mu_conditional,
    mu_conditional_precision,
)


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
        # the view-space chain's pick matrix: no P in the direct algebra
        mean_id, cov_id = mu_conditional(rbar, sigma, q, omega, np.eye(n), m)
        si = np.linalg.inv(sigma)
        oi = np.linalg.inv(omega)
        cov_o = np.linalg.inv(m * si + oi)
        mean_o = cov_o @ (m * si @ rbar + oi @ q)
        np.testing.assert_allclose(cov_id, cov_o, atol=1e-12)
        np.testing.assert_allclose(mean_id, mean_o, atol=1e-12)


class TestOmegaFloors:
    def views(self, om):
        return ViewSet(np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([0.02, 0.05]), om)

    def test_nonsquare_floor(self):
        check_omega_floor(self.views([1e-7, 1e-7]), 1e-9, False, "non-square")
        with pytest.raises(ValidationError, match="floor"):
            check_omega_floor(self.views([1e-10, 1e-7]), 1e-9, False, "non-square")

    def test_augmented_floor(self, small_dataset):
        # the augmented sampler shares the non-square one's floor
        returns, views = small_dataset
        months = np.random.default_rng(55).normal(size=(8, 2)) * 0.01
        with pytest.raises(ValidationError, match="augmented floor 1e-09"):
            gibbs_augmented(returns, [views.with_omega([1e-10])], months, make_config(), [0])

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
        cfg = IwConfig.default_for(2, self.hist, iters=10, burn=1, seed=1)
        assert cfg.nu == 4
        np.testing.assert_array_equal(cfg.sigma0, self.hist)

    def test_small_nu_without_sigma0_rejected(self):
        # nu = n + 0.5 would scale the default Sigma0 by a non-positive factor
        with pytest.raises(ValidationError, match="sigma0") as info:
            IwConfig.default_for(2, self.hist, iters=10, burn=1, seed=1, nu=2.5)
        assert info.value.path == "nu"

    @pytest.mark.parametrize("sigma0", [np.diag([1.0, -1.0]), [[1.0, 0.5], [0.0, 1.0]]],
                             ids=["indefinite", "asymmetric"])
    def test_bad_sigma0_rejected(self, sigma0):
        # the config reader applies the same check, to the IW models only
        with pytest.raises(ValidationError) as info:
            IwConfig(nu=4.0, sigma0=np.array(sigma0), iters=10, burn=1, seed=1)
        assert info.value.path == "sigma0"

    @pytest.mark.parametrize("nu", [float("nan"), float("inf")])
    def test_non_finite_nu_rejected(self, nu):
        # checked before the default Sigma0 is scaled by nu - n - 1
        for make in (lambda: IwConfig.default_for(2, self.hist, iters=10, burn=1, seed=1, nu=nu),
                     lambda: IwConfig(nu=nu, sigma0=np.eye(2), iters=10, burn=1, seed=1)):
            with pytest.raises(ValidationError) as info:
                make()
            assert info.value.path == "nu"

    def test_small_nu_with_sigma0_accepted(self):
        cfg = IwConfig.default_for(2, self.hist, iters=10, burn=1, seed=1,
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
        [a] = gibbs_nonsquare(returns, [views], cfg, [0])
        [b] = gibbs_nonsquare(returns, [views], cfg, [0])
        np.testing.assert_array_equal(a.mu_post, b.mu_post)
        np.testing.assert_array_equal(a.sigma_post, b.sigma_post)
        [c] = gibbs_nonsquare(returns, [views], replace(cfg, seed=988), [0])
        assert not np.array_equal(a.mu_post, c.mu_post)

    def test_vague_views_track_sample_mean(self, small_dataset):
        returns, views = small_dataset
        vague = views.with_omega([1e3])
        cfg = make_config(iters=4000, burn=500, seed=21)
        [s] = gibbs_nonsquare(returns, [vague], cfg, [0])
        rbar = returns.mean(axis=0)
        post_sd = np.sqrt(np.diag(s.mu_draw_cov))
        assert np.all(np.abs(s.mu_post - rbar) < 3 * post_sd)

    def test_view_anchoring_ordering(self, small_dataset):
        returns, views = small_dataset
        cfg = make_config(iters=3000, burn=400, seed=31)
        dists = []
        for om in (1e-2, 1e-4, 1e-6):
            [s] = gibbs_nonsquare(returns, [views.with_omega([om])], cfg, [0])
            dists.append(np.linalg.norm(views.p @ s.mu_post - views.q))
        assert dists[0] > dists[1] > dists[2]

    def test_augmented_distance_follows_omega_to_the_floor(self, demo_panel,
                                                           demo_views_factory):
        # Omega* keeps the investor's Omega in its view block at every
        # confidence, so on the demo data the distance keeps falling below
        # 1e-5, where the overwrite alone is not SPD, down to the 1e-9 floor
        views = demo_views_factory()
        settings = ModelSettings(iters=2000, burn=400)
        d = {om: run_model("iw_augmented", demo_panel, views.with_omega([om, om]), settings,
                           seed=11, compute_profit=False).distance
             for om in (1e-4, 1e-6, 1e-9)}
        assert d[1e-6] < d[1e-4]
        assert d[1e-9] < d[1e-6] / 4

    def test_augmented_is_nonsquare_chain_for_square_p(self):
        # a square invertible P gains no row and keeps q and Omega, so the
        # augmented sampler runs the very chain of the non-square one
        rng = np.random.default_rng(53)
        returns = rng.multivariate_normal([0.01, -0.02], random_spd(rng, 2, jitter=0.3) * 0.01,
                                          size=25)
        views = ViewSet(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.02, 0.05]), [5e-3, 8e-3])
        months = rng.normal(size=(8, 2)) * 0.01
        p_star = augment_to_invertible(views.p)
        q_star, omega_star = build_transformed_hyperparams(p_star, views.q, views.omega, months)
        assert np.array_equal(p_star, views.p)
        assert np.array_equal(q_star, views.q) and np.array_equal(omega_star, views.omega)

        cfg = make_config(iters=400, burn=80, seed=315)
        [sa] = gibbs_augmented(returns, [views], months, cfg, [0])
        [sb] = gibbs_nonsquare(returns, [views], cfg, [0])
        for field in ("mu_post", "sigma_post", "n_eff", "mu_draws", "log_det_sigma", "accepted"):
            assert np.array_equal(getattr(sa, field), getattr(sb, field)), field

    def test_augmented_trace_is_in_asset_space(self, small_dataset):
        # the recorded mean draws are the asset-space draws mu_post averages
        returns, views = small_dataset
        months = np.random.default_rng(54).normal(size=(8, 2)) * 0.01
        cfg = make_config(iters=300, burn=60, seed=17)
        [s] = gibbs_augmented(returns, [views], months, cfg, [0])
        assert s.mu_draws.shape == (300, 2)
        np.testing.assert_allclose(s.mu_draws[cfg.burn:].mean(axis=0), s.mu_post,
                                   rtol=1e-12, atol=0.0)

    def test_augmented_matches_view_space_oracle(self):
        # The whitened chain with the views (P*, q*, Omega*) and the oracle's
        # chain, run in view space P* mu with a factorization and a solve per
        # covariance draw and mapped back, have the same law. Compare
        # their posterior means of mu and Sigma over 32 independent seeds
        # each: with 8, the t-tail of the seed-to-seed standard error alone
        # can carry |z| near the bound.
        panel = demo.demo_return_panel()
        views = demo.demo_views()
        months = monthly_means(panel.historical, panel.m)
        hist_cov = historical_covariance(panel)

        def seed_means(sampler, seeds):
            out = []
            for seed in seeds:
                cfg = IwConfig.default_for(4, hist_cov, iters=1000, burn=200, seed=seed)
                s = sampler(panel.current, views, months, cfg)
                out.append(np.concatenate([s.mu_post, s.sigma_post.ravel()]))
            out = np.array(out)
            return out.mean(axis=0), out.std(axis=0, ddof=1) / np.sqrt(len(seeds))

        mean_a, se_a = seed_means(
            lambda returns, v, months, cfg: gibbs_augmented(returns, [v], months, cfg, [0])[0],
            range(100, 132))
        mean_b, se_b = seed_means(gibbs_augmented_view_space, range(200, 232))
        z = (mean_a - mean_b) / np.sqrt(se_a**2 + se_b**2)
        assert np.abs(z).max() < 4

    @staticmethod
    def chain(returns, views, variant):
        months = np.random.default_rng(52).normal(size=(8, 2)) * 0.01

        def run(iters):
            cfg = make_config(iters=iters, burn=5)
            if variant == "nonsquare":
                gibbs_nonsquare(returns, [views], cfg, [0])
            else:
                gibbs_augmented(returns, [views], months, cfg, [0])
        return run

    @pytest.mark.parametrize("variant", ["nonsquare", "augmented"])
    def test_factors_each_matrix_once(self, small_dataset, monkeypatch, variant):
        # per iteration: one Cholesky factor, of mu's conditional precision,
        # and one solve, for mu, and no inverse. The whitened covariance
        # step needs neither a factor nor a solve, and returns its draw's
        # inverse; the scale's fixed part is factored, and Omega inverted
        # (spd_inverse), once per chain in set-up
        counters = [count_engine_calls(monkeypatch, np.linalg, "cholesky"),
                    count_engine_calls(monkeypatch, np.linalg, "inv"),
                    count_engine_calls(monkeypatch, linalg, "spd_inverse"),
                    count_engine_calls(monkeypatch, np.linalg, "solve")]
        assert calls_per_iteration(self.chain(*small_dataset, variant),
                                   counters) == [1, 0, 0, 1]

    def test_stationarity_split_check(self, small_dataset):
        returns, views = small_dataset
        [s] = gibbs_nonsquare(returns, [views], make_config(iters=4000, burn=500, seed=61), [0])
        assert s.geweke_pass()
        assert s.acceptance_rate == 1.0 and s.acceptance_rate_burn == 1.0

    def test_trace_csv(self, small_dataset):
        # the per-iteration record covers every iteration and a rerun
        # repeats it bit for bit
        returns, views = small_dataset
        cfg = make_config(iters=50, burn=10)
        [s] = gibbs_nonsquare(returns, [views], cfg, [0])
        assert s.mu_draws.shape == (50, 2) and s.log_det_sigma.shape == (50,)
        assert s.accepted.shape == (50,) and s.accepted.all()
        assert np.isfinite(s.log_det_sigma).all()
        [again] = gibbs_nonsquare(returns, [views], cfg, [0])
        for field in ("mu_draws", "log_det_sigma", "accepted"):
            assert np.array_equal(getattr(s, field), getattr(again, field)), field


class TestBatchedChains:
    """Chains advanced in lock step as one batch: each chain's summary is bit
    for bit the summary of its chain run alone."""

    months = np.random.default_rng(55).normal(size=(8, 2)) * 0.01

    def sampler(self, variant):
        if variant == "nonsquare":
            return gibbs_nonsquare
        return lambda returns, views, cfg, stream_ids: gibbs_augmented(
            returns, views, self.months, cfg, stream_ids)

    cfg = make_config(iters=300, burn=60, seed=5)

    @staticmethod
    def points(views, count):
        return [views.with_omega([10.0 ** -(2 + g)]) for g in range(count)], list(range(count))

    @pytest.mark.parametrize("variant", ["nonsquare", "augmented"])
    def test_batch_equals_chains_alone(self, small_dataset, variant):
        returns, views = small_dataset
        run = self.sampler(variant)
        point_views, stream_ids = self.points(views, 3)
        batch = run(returns, point_views, self.cfg, stream_ids)
        assert len(batch) == 3
        for v, stream_id, s in zip(point_views, stream_ids, batch):
            [alone] = run(returns, [v], self.cfg, [stream_id])
            for field in ("mu_post", "sigma_post", "n_eff", "mu_se", "mu_draw_cov", "geweke_z",
                          "mu_draws", "log_det_sigma", "accepted"):
                assert np.array_equal(getattr(s, field), getattr(alone, field)), field
            assert s.acceptance_rate == alone.acceptance_rate == 1.0

    @pytest.mark.parametrize("variant", ["nonsquare", "augmented"])
    def test_batch_across_factor_blocks(self, small_dataset, monkeypatch, variant):
        # a chain of two blocks of Bartlett factors and three iterations
        # more: each chain draws its factors from its own stream at
        # iterations 0, BLOCK and 2 BLOCK, the last time only the 3 it has
        # left, and a batch's draws are bit for bit those of each chain alone
        returns, views = small_dataset
        run = self.sampler(variant)
        original, counts = inverse_wishart.bartlett_factors, []

        def counting(dof, n, count, rng):
            counts.append(count)
            return original(dof, n, count, rng)

        monkeypatch.setattr(inverse_wishart, "bartlett_factors", counting)
        block = inverse_wishart.BLOCK
        cfg = replace(self.cfg, iters=2 * block + 3, burn=block)
        point_views, stream_ids = self.points(views, 3)
        batch = run(returns, point_views, cfg, stream_ids)
        assert counts == [block] * 3 + [block] * 3 + [3] * 3
        for v, stream_id, s in zip(point_views, stream_ids, batch):
            counts.clear()
            [alone] = run(returns, [v], cfg, [stream_id])
            assert counts == [block, block, 3]
            for field in ("mu_post", "sigma_post", "mu_draws", "log_det_sigma"):
                assert np.array_equal(getattr(s, field), getattr(alone, field)), field

    def test_batch_shares_chain_length_and_prior(self, small_dataset):
        # the points of a batch share its one config, so chain length and
        # prior cannot differ; what can is the number of stream ids
        returns, views = small_dataset
        point_views, stream_ids = self.points(views, 2)
        with pytest.raises(DimensionError, match="2 view sets for 1 stream ids"):
            gibbs_nonsquare(returns, point_views, self.cfg, stream_ids[:1])

    @pytest.mark.parametrize("variant", ["nonsquare", "augmented"])
    def test_invalid_points_are_named_before_any_chain(self, small_dataset, monkeypatch,
                                                       variant):
        # the points are validated in order before any chain runs, and the
        # first that fails raises the error of its point run alone
        returns, views = small_dataset
        run = self.sampler(variant)
        chains = count_engine_calls(monkeypatch, sampling, "rng_stream")
        for invalid in ([0, 2], [2]):
            point_views, stream_ids = self.points(views, 3)
            for g in invalid:
                point_views[g] = views.with_omega([10.0 ** -(10 + g)])
            with pytest.raises(ValidationError) as exc:
                run(returns, point_views, self.cfg, stream_ids)
            first = invalid[0]
            with pytest.raises(ValidationError) as alone:
                run(returns, point_views[first:first + 1], self.cfg, stream_ids[first:first + 1])
            assert type(exc.value) is ValidationError
            assert str(exc.value) == str(alone.value)
        assert chains == []

    @pytest.mark.parametrize("variant", ["nonsquare", "augmented"])
    def test_one_invalid_point_raises_its_own_error(self, small_dataset, monkeypatch,
                                                    variant):
        # a batch of one is a run of its point: its error is not wrapped
        returns, views = small_dataset
        chains = count_engine_calls(monkeypatch, sampling, "rng_stream")
        with pytest.raises(ValidationError, match="floor 1e-09") as exc:
            self.sampler(variant)(returns, [views.with_omega([1e-10])], self.cfg, [0])
        assert type(exc.value) is ValidationError and exc.value.path == "views.omega"
        assert chains == []

    def test_factors_each_stack_once(self, small_dataset, monkeypatch):
        # a lock-step iteration of three chains makes the one Cholesky call
        # and one solve of one chain, each on a stack of three
        returns, views = small_dataset
        counters = [count_engine_calls(monkeypatch, np.linalg, "cholesky"),
                    count_engine_calls(monkeypatch, np.linalg, "inv"),
                    count_engine_calls(monkeypatch, linalg, "spd_inverse"),
                    count_engine_calls(monkeypatch, np.linalg, "solve")]

        point_views, stream_ids = self.points(views, 3)

        def run(iters):
            gibbs_nonsquare(returns, point_views, replace(self.cfg, iters=iters, burn=5),
                            stream_ids)

        assert calls_per_iteration(run, counters) == [1, 0, 0, 1]


class TestGibbsChain:
    """The chain loops of both samplers, watched through the engine
    functions each calls: the log-covariance chain on the demo data, whose
    MH step rejects some proposals, and the Inverse-Wishart chains, whose
    every step is accepted (:class:`TestRaoBlackwellisedSigma` checks the mu
    each of their covariance draws sees)."""

    @staticmethod
    def log_sigma_chain(demo_panel, iters=20, burn=5):
        return gibbs_log_sigma(demo_panel.current, demo.demo_views(),
                               LogSigmaConfig(iters=iters, burn=burn, seed=3))

    @staticmethod
    def spy(monkeypatch, module, attr, record):
        """Wrap ``module.<attr>``: ``record(args, result)`` sees each call."""
        original = getattr(module, attr)

        def wrapped(*args):
            result = original(*args)
            record(args, result)
            return result

        monkeypatch.setattr(module, attr, wrapped)

    def test_flags_trace_and_sigma_mean(self, demo_panel, monkeypatch):
        # the first covariance step sees rbar and each later one the previous
        # mu draw; the chain's Sigma is the start's pair until an accepted
        # proposal replaces it, so a rejected step repeats the log det, and
        # sigma_post is the post-burn mean of the chain's Sigma
        seen, pairs = [], []
        self.spy(monkeypatch, log_sigma, "scatter_about",
                 lambda args, _: seen.append(args[2].copy()))
        self.spy(monkeypatch, log_sigma, "_sigma_pair", lambda _, pair: pairs.append(pair))
        iters, burn = 40, 10
        s = self.log_sigma_chain(demo_panel, iters, burn)
        accepted = s.accepted.tolist()
        assert 0 < sum(accepted) < iters and len(pairs) == 1 + sum(accepted)
        rbar, _ = linalg.centred_scatter(demo_panel.current)
        np.testing.assert_array_equal(seen[0], rbar)
        np.testing.assert_array_equal(seen[1:], s.mu_draws[:-1])
        pair, later = pairs[0], iter(pairs[1:])
        sigma_sum = np.zeros((4, 4))
        for t in range(iters):
            if accepted[t]:
                pair = next(later)
            elif t > 0:
                assert s.log_det_sigma[t] == s.log_det_sigma[t - 1]
            assert s.log_det_sigma[t] == pair[2]
            if t >= burn:
                sigma_sum += pair[0]
        np.testing.assert_array_equal(s.sigma_post, sigma_sum / (iters - burn))

    def test_step_error_propagates(self, small_dataset, demo_panel, monkeypatch):
        # an error in the fourth covariance step of either chain ends it there
        returns, views = small_dataset
        for module, attr, run in (
                (log_sigma, "build_Q", lambda: self.log_sigma_chain(demo_panel)),
                (inverse_wishart, "sample_inverse_wishart",
                 lambda: gibbs_nonsquare(returns, [views], make_config(iters=20, burn=5), [0]))):
            original, calls = getattr(module, attr), []

            def failing(*args):
                calls.append(1)
                if len(calls) == 4:
                    raise RuntimeError("stub step failed")
                return original(*args)

            monkeypatch.setattr(module, attr, failing)
            with pytest.raises(RuntimeError, match="stub step failed"):
                run()
            assert len(calls) == 4

    @pytest.mark.parametrize("bad_iteration", [2, 12])
    def test_non_finite_sigma_term(self, demo_panel, monkeypatch, bad_iteration):
        # a Sigma term only feeds the post-burn average, so an infinite one
        # fails the chain when it enters that average and is ignored in the
        # burn-in, like the rest of the burn-in's Sigma terms. Every proposal
        # is accepted, so iteration t holds the pair of call t + 1 (call 0
        # is the start's).
        pair, calls = log_sigma._sigma_pair, []

        def sigma_pair(*args):
            sigma, *rest = pair(*args)
            calls.append(sigma)
            return (sigma * np.inf if len(calls) == bad_iteration + 2 else sigma), *rest

        monkeypatch.setattr(log_sigma, "_sigma_pair", sigma_pair)
        monkeypatch.setattr(log_sigma, "mh_log_ratio", lambda *args: np.inf)
        if bad_iteration < 5:
            s = self.log_sigma_chain(demo_panel, iters=20, burn=5)
            np.testing.assert_allclose(s.sigma_post, np.mean(calls[6:], axis=0), rtol=1e-14)
        else:
            with pytest.raises(ChainError, match="^non-finite Sigma mean in Gibbs chain$"):
                self.log_sigma_chain(demo_panel, iters=20, burn=5)
        assert len(calls) == 21

    @pytest.mark.parametrize("count", [1, 3])
    def test_step_sees_plain_arrays_for_one_chain(self, small_dataset, demo_panel, monkeypatch,
                                                  count):
        # one Inverse-Wishart chain hands the covariance draw u of shape (n,)
        # and the mu draw normals of shape (n,), and draws its factors from
        # one Generator; a batch hands them (G, n) stacks and draws from its
        # G streams in order. The log-covariance chain draws from one
        # Generator throughout and hands each normal draw its own normals.
        returns, views = small_dataset
        shapes, streams = [], []
        self.spy(monkeypatch, inverse_wishart, "sample_inverse_wishart",
                 lambda args, _: shapes.append((args[0].shape, args[1].shape)))
        self.spy(monkeypatch, inverse_wishart, "bartlett_factors",
                 lambda args, _: streams.append(args[3]))
        normals = self.spy_normals(monkeypatch, inverse_wishart)
        point_views = [views.with_omega([10.0 ** -(2 + g)]) for g in range(count)]
        summaries = gibbs_nonsquare(returns, point_views, make_config(iters=4, burn=1),
                                    list(range(7, 7 + count)))
        assert len(summaries) == count and len(shapes) == 4
        assert all(s.mu_draws.shape == (4, 2) and s.accepted.all() for s in summaries)
        lead = (count,) if count > 1 else ()
        assert set(shapes) == {(lead + (2,), lead + (2, 2))}
        assert [z.shape for z in normals] == [lead + (2,)] * 4
        assert all(isinstance(rng, np.random.Generator) for rng in streams)
        assert [r.bit_generator.seed_seq.spawn_key for r in streams] == [
            (s,) for s in range(7, 7 + count)]
        if count == 1:
            generators = count_engine_calls(monkeypatch, sampling, "rng_stream")
            normals = self.spy_normals(monkeypatch, log_sigma)
            self.log_sigma_chain(demo_panel, iters=4, burn=1)
            assert len(normals) == 8 and len(generators) == 1
            assert [z.shape for z in normals] == [(10,), (4,)] * 4

    @staticmethod
    def spy_normals(monkeypatch, module):
        """Record the normals ``z`` of each ``sample_mvn`` call from ``module``."""
        original, normals = module.sample_mvn, []

        def spying(shift, **kw):
            normals.append(kw["z"])
            return original(shift, **kw)

        monkeypatch.setattr(module, "sample_mvn", spying)
        return normals

    def test_empty_window_rejected(self, small_dataset, monkeypatch):
        # the Inverse-Wishart samplers take any number of rows; they reject
        # none before their set-up and before any chain starts
        _, views = small_dataset
        chains = count_engine_calls(monkeypatch, sampling, "rng_stream")
        months = np.random.default_rng(57).normal(size=(8, 2)) * 0.01
        cfg = make_config(iters=20, burn=5)
        with pytest.raises(InsufficientDataError, match="at least one row"):
            gibbs_nonsquare(np.empty((0, 2)), [views], cfg, [0])
        with pytest.raises(InsufficientDataError, match="at least one row"):
            gibbs_augmented(np.empty((0, 2)), [views], months, cfg, [0])
        assert chains == []


class TestScaleWarning:
    """A chain factors ``A = Sigma0 +`` the centred scatter once per batch,
    so an ill-conditioned A logs one warning per run, whatever the number
    of chains."""

    @pytest.mark.parametrize("count", [1, 3])
    def test_ill_conditioned_scale_warns_once(self, demo_panel, caplog, count):
        cfg = IwConfig.default_for(4, None, iters=150, burn=10, seed=5,
                                   sigma0=np.diag([1e11, 1.0, 1.0, 1.0]))
        with caplog.at_level(logging.WARNING, logger="blbayes"):
            gibbs_nonsquare(demo_panel.current, [demo.demo_views()] * count, cfg,
                            list(range(count)))
        warned = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("Sigma0 + centred scatter:")]
        assert len(warned) == 1
        assert float(warned[0].split(">= ")[1].split()[0]) > linalg.COND_WARN


class TestStreamLayout:
    """Each chain's stream holds, per block of
    :data:`~blbayes.inverse_wishart.BLOCK` iterations (the last block only
    as many as are left), the block's chi-squares, then its Bartlett
    factors' normals below the diagonal, then its mu normals, one call
    each, alone or in a batch."""

    iters = 150  # two full blocks and 22 iterations

    @pytest.mark.parametrize("count", [1, 3])
    def test_chain_replays_by_hand(self, demo_panel, monkeypatch, count):
        draw, mvn, bartlett = (getattr(inverse_wishart, attr) for attr in (
            "sample_inverse_wishart", "sample_mvn", "bartlett_factors"))
        factors, log_dets, normals, streams = [], [], [], []

        def spy_draw(u, factor, bartlett_log_det, log_det_lower):
            factors.append(factor.copy())
            log_dets.append(bartlett_log_det)
            return draw(u, factor, bartlett_log_det, log_det_lower)

        def spy_mvn(shift, **kw):
            normals.append(kw["z"].copy())
            return mvn(shift, **kw)

        def spy_bartlett(dof, n, size, rng):
            streams.append(rng)
            return bartlett(dof, n, size, rng)

        for attr, spy in (("sample_inverse_wishart", spy_draw), ("sample_mvn", spy_mvn),
                          ("bartlett_factors", spy_bartlett)):
            monkeypatch.setattr(inverse_wishart, attr, spy)
        cfg = IwConfig.default_for(4, historical_covariance(demo_panel), iters=self.iters,
                                   burn=10, seed=5)
        views = [demo.demo_views(omega=(10.0 ** -(3 + g), 1e-4)) for g in range(count)]
        gibbs_nonsquare(demo_panel.current, views, cfg, list(range(count)))
        m, n = demo_panel.current.shape
        dof, block = cfg.nu + m, inverse_wishart.BLOCK
        rows, cols = np.tril_indices(n, k=-1)
        got_factors = np.array(factors).reshape(self.iters, count, n, n)
        got_log_dets = np.array(log_dets).reshape(self.iters, count)
        got_normals = np.array(normals).reshape(self.iters, count, n)
        for g in range(count):
            rng = rng_stream(5, g)
            for start in range(0, self.iters, block):
                size = min(block, self.iters - start)
                chi = rng.chisquare(dof - np.arange(n), size=(size, n))
                below = rng.standard_normal((size, rows.size))
                z = rng.standard_normal((size, n))
                a = got_factors[start:start + size, g]
                assert np.array_equal(a.diagonal(0, -2, -1), np.sqrt(chi))
                assert np.array_equal(a[:, rows, cols], below)
                assert not a[:, cols, rows].any()
                assert got_log_dets[start:start + size, g].tolist() == [
                    2.0 * sum(map(math.log, d)) for d in np.sqrt(chi).tolist()]
                assert np.array_equal(got_normals[start:start + size, g], z)
            # the chain drew nothing else from its stream
            assert streams[g].random() == rng.random()


class TestRaoBlackwellisedSigma:
    """``sigma_post`` of the Inverse-Wishart models is the post-burn mean of
    ``E[Sigma | mu, data] = (Sigma0 + sum_i (r_i - mu)(r_i - mu)') / (nu + m -
    n - 1)`` at the mu each covariance step saw: the previous iteration's
    draw, and rbar at iteration 0."""

    @staticmethod
    def terms(returns, cfg, mu_draws):
        """The post-burn Sigma terms ``E[Sigma | mu, data]``, one per step."""
        m, n = returns.shape
        seen = np.vstack([returns.mean(axis=0), mu_draws[:-1]])[cfg.burn:]
        resid = returns[None, :, :] - seen[:, None, :]
        scatter = np.einsum("tki,tkj->tij", resid, resid)
        return (cfg.sigma0 + scatter) / (cfg.nu + m - n - 1)

    @classmethod
    def oracle(cls, returns, cfg, mu_draws):
        return cls.terms(returns, cfg, mu_draws).mean(axis=0)

    @pytest.mark.parametrize("burn", [0, 40])
    @pytest.mark.parametrize("variant", ["nonsquare", "augmented", "batch"])
    def test_sigma_post_is_mean_of_conditional_means(self, small_dataset, variant, burn):
        returns, views = small_dataset
        cfg = make_config(iters=200, burn=burn, seed=23)
        months = np.random.default_rng(56).normal(size=(8, 2)) * 0.01
        if variant == "nonsquare":
            summaries = gibbs_nonsquare(returns, [views], cfg, [0])
        elif variant == "augmented":
            summaries = gibbs_augmented(returns, [views], months, cfg, [0])
        else:
            summaries = gibbs_nonsquare(returns, TestBatchedChains.points(views, 3)[0], cfg,
                                        [4, 5, 6])
            assert len(summaries) == 3
        for s in summaries:
            np.testing.assert_allclose(s.sigma_post, self.oracle(returns, cfg, s.mu_draws),
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("variant", ["nonsquare", "augmented"])
    def test_needs_nu_plus_m_above_n_plus_one(self, small_dataset, monkeypatch, variant):
        # n = 2, nu = 2 is a valid Inverse-Wishart dof and the config takes
        # it with an explicit Sigma0; one row of returns leaves the mean's
        # denominator nu + m - n - 1 at 0, so no chain runs. Two rows run.
        returns, views = small_dataset
        months = np.random.default_rng(56).normal(size=(8, 2)) * 0.01
        chains = count_engine_calls(monkeypatch, sampling, "rng_stream")
        cfg = make_config(nu=2.0, iters=20, burn=5)

        def run(rows):
            if variant == "nonsquare":
                return gibbs_nonsquare(rows, [views], cfg, [0])
            return gibbs_augmented(rows, [views], months, cfg, [0])

        with pytest.raises(ValidationError, match=r"^data\.m: .*nu \+ m > n \+ 1 = 3"):
            run(returns[:1])
        assert chains == []
        [s] = run(returns[:2])
        assert len(chains) == 1 and np.isfinite(s.sigma_post).all()


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
        [s] = gibbs_nonsquare(returns, [views], cfg, [0])
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
        shift, precision = mu_conditional_precision(rbar, sigma, views.q, views.omega, p, m)
        stream = rng_stream(71)
        draws = np.array([sample_mvn(shift, precision=precision, z=stream.standard_normal(n),
                                     cov_cholesky=True) for _ in range(10_000)])
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)


def _synthetic_n10():
    """Returns (m = 30), views, historical covariance and monthly means of
    ten assets."""
    rng = np.random.default_rng(10)
    n, m = 10, 30
    cov = random_spd(rng, n) * 2e-5
    mu0 = rng.normal(size=n) * 0.002
    returns = rng.multivariate_normal(mu0, cov, size=m)
    hist = rng.multivariate_normal(mu0, cov, size=150)
    p = np.zeros((3, n))
    p[0, [0, 1]] = [1.0, -1.0]
    p[1, 4] = 1.0
    p[2, [6, 7, 8]] = [0.5, 0.5, -1.0]
    views = ViewSet(p, np.array([0.01, 0.005, -0.01]), np.array([1e-4, 4e-4, 2e-4]))
    months = rng.multivariate_normal(mu0, cov / 21, size=24)
    return returns, views, np.cov(hist, rowvar=False), months


def _demo_case():
    panel = demo.demo_return_panel()
    return (panel.current, demo.demo_views(), historical_covariance(panel),
            monthly_means(panel.historical, panel.m))


class TestCollapsedOracle:
    """The Inverse-Wishart chains against ``collapsed_iw_moments``, which
    integrates Sigma out and leaves a quadrature over one scalar."""

    def test_matches_brute_force_integral_over_mu(self, small_dataset):
        # n = 2: the collapsed density of mu, (1 + m d'A^-1 d)^-(nu+m)/2 times
        # the views' normal, summed over a fine grid of mu
        returns, views = small_dataset
        m, n = returns.shape
        nu, sigma0 = 4.0, np.array([[4e-4, 1e-4], [1e-4, 3e-4]])
        mean, cov, e_sigma = collapsed_iw_moments(returns, views.p, views.q, views.omega,
                                                  nu, sigma0)
        rbar = returns.mean(axis=0)
        a_mat = sigma0 + (returns - rbar).T @ (returns - rbar)
        axis = np.linspace(-0.08, 0.08, 2001)
        d = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        resid = (d + rbar) @ views.p[0] - views.q[0]
        log_p = (-(nu + m) / 2 * np.log1p(m * np.einsum("ki,ij,kj->k", d, np.linalg.inv(a_mat), d))
                 - 0.5 * resid ** 2 / views.omega[0, 0])
        w = np.exp(log_p - log_p.max())
        w /= w.sum()
        grid_mean = rbar + w @ d
        dev = d + rbar - grid_mean
        grid_cov = (w[:, None] * dev).T @ dev
        grid_sigma = (a_mat + m * (w[:, None] * d).T @ d) / (nu + m - n - 1)
        for exact, grid in ((mean, grid_mean), (cov, grid_cov), (e_sigma, grid_sigma)):
            assert np.abs(exact - grid).max() <= 1e-8 * np.abs(grid).max()

    @pytest.mark.parametrize("case", [_demo_case, _synthetic_n10], ids=["demo", "n10"])
    def test_quadrature_converged(self, case):
        returns, views, hist, _ = case()
        cfg = IwConfig.default_for(len(hist), hist, iters=10, burn=0, seed=1)
        args = (returns, views.p, views.q, views.omega, cfg.nu, cfg.sigma0)
        for full, half in zip(collapsed_iw_moments(*args),
                              collapsed_iw_moments(*args, nodes=201)):
            assert np.abs(full - half).max() <= 1e-12 * np.abs(full).max()

    @pytest.mark.parametrize("variant", ["nonsquare", "augmented"])
    @pytest.mark.parametrize("case", [_demo_case, _synthetic_n10], ids=["demo", "n10"])
    def test_chain_matches_exact_moments(self, case, variant):
        # mu_post within 4 of its own standard errors of E[mu]; sigma_post,
        # the mean of E[Sigma | mu, data] over the post-burn steps, within
        # 4.5 batch-means standard errors of those terms of E[Sigma]: the
        # batch-means error is itself estimated from 50 batches, and
        # n(n+1)/2 entries are tested
        returns, views, hist, months = case()
        cfg = IwConfig.default_for(len(hist), hist, iters=10_000, burn=1_000, seed=1)
        if variant == "nonsquare":
            [s] = gibbs_nonsquare(returns, [views], cfg, [0])
            p, q, omega = views.p, views.q, views.omega
        else:
            [s] = gibbs_augmented(returns, [views], months, cfg, [0])
            p = augment_to_invertible(views.p)
            q, omega = build_transformed_hyperparams(p, views.q, views.omega, months)
        mean, _, e_sigma = collapsed_iw_moments(returns, p, q, omega, cfg.nu, cfg.sigma0)
        assert np.all(np.abs(s.mu_post - mean) <= 4 * s.mu_se)
        terms = TestRaoBlackwellisedSigma.terms(returns, cfg, s.mu_draws)
        batches = terms[: len(terms) // 50 * 50].reshape(50, -1, *e_sigma.shape).mean(axis=1)
        se = batches.std(axis=0, ddof=1) / np.sqrt(50)
        assert np.all(np.abs(s.sigma_post - e_sigma) <= 4.5 * se)
