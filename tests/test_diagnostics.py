"""Calibration of the chain diagnostics themselves."""

import numpy as np

from blbayes import diagnostics
from blbayes.diagnostics import (
    effective_sample_size,
    geweke_split_z,
    posterior_mean_se,
    summarize_mu_sigma,
)


class TestEffectiveSampleSize:
    def test_iid_chain_near_full(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(20_000)
        ess = effective_sample_size(x)
        assert ess > 0.8 * x.size

    def test_ar1_matches_theory(self):
        # AR(1) with coefficient rho has ESS/n = (1-rho)/(1+rho)
        rng = np.random.default_rng(2)
        rho, n = 0.9, 40_000
        eps = rng.standard_normal(n) * np.sqrt(1 - rho * rho)
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for t in range(1, n):
            x[t] = rho * x[t - 1] + eps[t]
        ratio = effective_sample_size(x) / n
        theory = (1 - rho) / (1 + rho)
        assert 0.6 * theory < ratio < 1.6 * theory

    def test_constant_chain(self):
        assert effective_sample_size(np.ones(100)) == 100.0

    def test_clamped_to_chain_length(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        assert 1.0 <= effective_sample_size(x) <= 500.0


class TestMeanSe:
    def test_iid_matches_classic_formula(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(20_000)
        se = posterior_mean_se(x)
        classic = x.std(ddof=1) / np.sqrt(x.size)
        assert 0.8 * classic < se < 1.3 * classic

    def test_autocorrelation_inflates_se(self):
        rng = np.random.default_rng(5)
        n, rho = 20_000, 0.8
        eps = rng.standard_normal(n) * np.sqrt(1 - rho * rho)
        x = np.empty(n)
        x[0] = 0.0
        for t in range(1, n):
            x[t] = rho * x[t - 1] + eps[t]
        assert posterior_mean_se(x) > 2.0 * (x.std(ddof=1) / np.sqrt(n))


class TestGewekeSplit:
    def test_stationary_chain_small_z(self):
        rng = np.random.default_rng(6)
        zs = [geweke_split_z(rng.standard_normal(4000)) for _ in range(20)]
        assert np.mean([z < 4 for z in zs]) >= 0.95

    def test_drifting_chain_flagged(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4000) + np.linspace(0.0, 3.0, 4000)
        assert geweke_split_z(x) > 4.0

    def test_constant_chain(self):
        assert geweke_split_z(np.full(100, 2.5)) == 0.0


class TestSummary:
    def test_mu_se_from_the_one_full_chain_ess(self, monkeypatch):
        # per coordinate: one full-chain ESS shared by n_eff and mu_se, and
        # one per half for the Geweke z
        rng = np.random.default_rng(5)
        draws = np.cumsum(rng.standard_normal((260, 3)), axis=0) * 0.1
        calls = []

        def counting(x):
            calls.append(len(x))
            return effective_sample_size(x)

        monkeypatch.setattr(diagnostics, "effective_sample_size", counting)
        s = summarize_mu_sigma(draws, np.eye(3), np.ones(260, dtype=bool), burn=60)
        assert sorted(calls) == [100] * 6 + [200] * 3
        for i in range(3):
            assert s.mu_se[i] == posterior_mean_se(draws[60:, i])
            assert s.n_eff[i] == effective_sample_size(draws[60:, i])
