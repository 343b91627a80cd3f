"""Closed-form model: posterior algebra, optimal weights, and the
equilibrium-plus-tilts decomposition."""

import numpy as np
import pytest

from blbayes.errors import ValidationError
from blbayes.original_bl import (
    BlPosterior,
    EquilibriumInputs,
    bl_posterior,
    equilibrium_returns,
    optimal_weights,
    weight_decomposition,
)
from blbayes.views import ViewSet
from conftest import random_spd


def random_instance(rng, n=4, k=2):
    sigma = random_spd(rng, n, jitter=0.3)
    p = rng.normal(size=(k, n))
    while np.linalg.matrix_rank(p) < k:  # pragma: no cover
        p = rng.normal(size=(k, n))
    views = ViewSet(p, rng.normal(size=k) * 0.05, rng.uniform(0.002, 0.05, size=k))
    inputs = EquilibriumInputs(
        risk_aversion=rng.uniform(1.0, 4.0),
        w_eq=rng.normal(size=n),
        sigma=sigma,
        tau=rng.uniform(0.01, 0.8),
    )
    return inputs, views


class TestEquilibrium:
    def test_identity_covariance(self):
        inp = EquilibriumInputs(2.5, np.full(4, 0.25), np.eye(4), 0.05)
        np.testing.assert_allclose(equilibrium_returns(inp), np.full(4, 0.625))

    def test_zero_weights(self):
        inp = EquilibriumInputs(2.5, np.zeros(2), np.eye(2), 0.05)
        np.testing.assert_array_equal(equilibrium_returns(inp), np.zeros(2))

    def test_two_asset_hand_product(self):
        sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
        inp = EquilibriumInputs(2.5, np.array([0.5, 0.5]), sigma, 0.05)
        np.testing.assert_allclose(equilibrium_returns(inp), [0.0625, 0.125], rtol=1e-14)

    @pytest.mark.parametrize("field", ["risk_aversion", "tau"])
    def test_nan_scalar_rejected(self, field):
        kw = dict(risk_aversion=2.5, w_eq=np.full(2, 0.5), sigma=np.eye(2), tau=0.05)
        kw[field] = float("nan")
        with pytest.raises(ValidationError, match=field):
            EquilibriumInputs(**kw)


class TestBlPosterior:
    def test_nan_tau_rejected(self):
        with pytest.raises(ValidationError, match="tau"):
            bl_posterior(np.zeros(2), float("nan"), np.eye(2),
                         ViewSet(np.array([[1.0, -1.0]]), [0.02], [0.005]))

    def test_sigma_bar_consistency(self):
        rng = np.random.default_rng(41)
        inputs, views = random_instance(rng)
        post = bl_posterior(equilibrium_returns(inputs), inputs.tau, inputs.sigma, views)
        assert isinstance(post, BlPosterior)
        np.testing.assert_allclose(post.sigma_bar, post.m_inv + inputs.sigma, atol=1e-12)

    def test_tight_views_force_solution(self):
        # invertible P with omega -> 0: the posterior mean obeys the views
        sigma = np.array([[0.05, 0.01], [0.01, 0.08]])
        pi = np.array([0.02, 0.03])
        p = np.array([[1.0, 1.0], [1.0, -1.0]])
        q = np.array([0.10, 0.01])
        views = ViewSet(p, q, [1e-12, 1e-12])
        post = bl_posterior(pi, 0.4, sigma, views)
        target = np.linalg.solve(p, q)
        assert np.linalg.norm(post.mu_bar - target) / np.linalg.norm(target) < 1e-4

    def test_matches_dense_grid_bayes_oracle(self):
        # brute-force numerical integration of prior x view likelihood (n=2)
        sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
        tau, pi = 0.3, np.array([0.03, 0.06])
        views = ViewSet(np.array([[1.0, -1.0]]), np.array([0.02]), np.array([0.005]))
        post = bl_posterior(pi, tau, sigma, views)

        xs = np.linspace(-1.2, 1.2, 401)
        xg, yg = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
        prior_prec = np.linalg.inv(tau * sigma)
        d = pts - pi
        logp = -0.5 * np.einsum("ij,jk,ik->i", d, prior_prec, d)
        v = pts @ views.p.T - views.q
        logp -= 0.5 * v[:, 0] ** 2 / views.omega_diag[0]
        w = np.exp(logp - logp.max())
        w /= w.sum()
        grid_mean = w @ pts
        assert np.abs(post.mu_bar - grid_mean).max() < 1e-3

    def test_posterior_covariance_dominates(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            inputs, views = random_instance(rng)
            post = bl_posterior(equilibrium_returns(inputs), inputs.tau, inputs.sigma, views)
            assert np.linalg.eigvalsh(post.sigma_bar - inputs.sigma)[0] > -1e-12

    def test_tau_limit_monotone(self):
        # mu_bar -> pi as tau -> 0 with fixed views
        rng = np.random.default_rng(43)
        sigma = random_spd(rng, 3, jitter=0.2)
        views = ViewSet(np.array([[1.0, -1.0, 0.0]]), np.array([0.04]), np.array([0.01]))
        pi = rng.normal(size=3) * 0.05
        errs = []
        for tau in (1e-2, 1e-4, 1e-6):
            post = bl_posterior(pi, tau, sigma, views)
            errs.append(np.linalg.norm(post.mu_bar - pi) / np.linalg.norm(pi))
        assert errs[0] > errs[1] > errs[2]

    def test_omega_limit_rate(self):
        # P mu_bar -> q at least 10x faster per 100x decrease in omega
        sigma = np.array([[0.05, 0.01], [0.01, 0.08]])
        pi = np.array([0.02, 0.03])
        p = np.array([[1.0, -1.0], [1.0, 1.0]])
        q = np.array([0.04, 0.08])
        dists = []
        for om in (1e-2, 1e-4, 1e-6):
            post = bl_posterior(pi, 0.4, sigma, ViewSet(p, q, [om, om]))
            dists.append(np.linalg.norm(p @ post.mu_bar - q))
        assert dists[0] > 10 * dists[1] > 100 * dists[2]


class TestOptimalWeights:
    def test_zero_mean(self):
        np.testing.assert_array_equal(optimal_weights(np.zeros(3), np.eye(3), 2.5), np.zeros(3))

    def test_lambda_scaling_exact(self):
        rng = np.random.default_rng(44)
        sigma_bar = random_spd(rng, 4)
        mu = rng.normal(size=4)
        w1 = optimal_weights(mu, sigma_bar, 2.5)
        w2 = optimal_weights(mu, sigma_bar, 5.0)
        np.testing.assert_allclose(2.0 * w2, w1, rtol=1e-14)

    def test_scalar_hand_value(self):
        w = optimal_weights(np.array([0.05]), np.array([[0.04]]), 2.5)
        assert w[0] == pytest.approx(0.5, rel=1e-14)


class TestWeightDecomposition:
    def test_equals_direct_weights_on_random_instances(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            inputs, views = random_instance(rng, n=n, k=k)
            post = bl_posterior(equilibrium_returns(inputs), inputs.tau, inputs.sigma, views)
            direct = optimal_weights(post.mu_bar, post.sigma_bar, inputs.risk_aversion)
            w_star, _ = weight_decomposition(inputs, views)
            rel = np.linalg.norm(w_star - direct) / np.linalg.norm(direct)
            assert rel < 1e-9

    def test_uninformative_views_leave_equilibrium(self):
        rng = np.random.default_rng(46)
        inputs, views = random_instance(rng)
        pi = equilibrium_returns(inputs)
        vague = ViewSet(views.p, views.p @ pi, np.full(views.k, 1e6))
        w_star, delta = weight_decomposition(inputs, vague)
        assert np.abs(delta).max() < 1e-4
        np.testing.assert_allclose(w_star, inputs.w_eq / (1 + inputs.tau), atol=1e-4)

    def test_scalar_instance_term_by_term(self):
        # n = k = 1: expand the three tilt terms in plain arithmetic
        lam, tau, var, w_eq, q, om = 2.0, 0.5, 0.04, 0.6, 0.05, 0.01
        inputs = EquilibriumInputs(lam, np.array([w_eq]), np.array([[var]]), tau)
        views = ViewSet(np.array([[1.0]]), np.array([q]), np.array([om]))
        a = om / tau + var / (1 + tau)
        lead = tau * q / (om * lam)
        expected_delta = lead - (var / (1 + tau)) * w_eq / a - (var / (1 + tau)) * lead / a
        expected_w = (w_eq + expected_delta) / (1 + tau)
        w_star, delta = weight_decomposition(inputs, views)
        assert delta[0] == pytest.approx(expected_delta, rel=1e-12)
        assert w_star[0] == pytest.approx(expected_w, rel=1e-12)
