"""Chain diagnostics: effective sample size, split-chain stationarity check,
and the summary produced by every sampler."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def effective_sample_size(draws) -> float:
    """Autocorrelation-based ESS of a 1-D chain.

    Uses Geyer's initial-positive-sequence truncation: lag-pair sums
    rho(2t) + rho(2t+1) are accumulated while positive. Clamped to
    [1, len(draws)].
    """
    x = np.asarray(draws, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float(n)
    # FFT autocovariance, normalized to rho(0) = 1
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real / n
    rho = acov / acov[0]
    tau = 1.0
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        t += 2
    return float(min(max(n / tau, 1.0), n))


def posterior_mean_se(draws) -> float:
    """Standard error of the chain mean, deflated by the ESS."""
    x = np.asarray(draws, dtype=float)
    return _mean_se(x, effective_sample_size(x))


def _mean_se(x: np.ndarray, ess: float) -> float:
    """:func:`posterior_mean_se` of ``x`` given its ESS; infinite for fewer
    than two draws."""
    if x.size < 2:
        return float("inf")
    return float(x.std(ddof=1) / np.sqrt(ess))


def geweke_split_z(draws) -> float:
    """|z| between the means of the two halves of a chain, using ESS-based
    standard errors for each half."""
    x = np.asarray(draws, dtype=float)
    half = x.size // 2
    a, b = x[:half], x[half:]
    se = np.hypot(posterior_mean_se(a), posterior_mean_se(b))
    if se == 0.0:
        return 0.0 if np.isclose(a.mean(), b.mean()) else float("inf")
    return float(abs(a.mean() - b.mean()) / se)


@dataclass(frozen=True)
class PosteriorSummary:
    """Post-burn point estimates plus the diagnostics the sweeps record.

    ``mu_post`` is the mean of the post-burn mean draws; ``sigma_post`` the
    post-burn mean of Sigma's conditional mean given each mu draw for the
    Inverse-Wishart samplers, and of the Sigma draws for ``log_sigma``.
    ``acceptance_rate`` is the post-burn MH acceptance share (1.0 for pure
    Gibbs); ``acceptance_rate_burn`` the same over the burn-in segment (NaN
    when the burn-in is empty).
    ``mu_se`` is the per-coordinate Monte-Carlo standard error of
    ``mu_post``; ``mu_draw_cov`` the sample covariance of the post-burn mean
    draws (the posterior spread, not the estimator error); ``geweke_z`` the
    split-chain |z| per coordinate.

    The per-iteration record covers every iteration, burn-in included:
    ``mu_draws`` the mean draws ``(iters, n)``, ``log_det_sigma`` the log
    det of each covariance draw and ``accepted`` each MH accept flag (all
    true for pure Gibbs).
    """

    mu_post: np.ndarray
    sigma_post: np.ndarray
    n_eff: np.ndarray
    mu_se: np.ndarray
    mu_draw_cov: np.ndarray
    geweke_z: np.ndarray
    acceptance_rate: float
    acceptance_rate_burn: float
    mu_draws: np.ndarray
    log_det_sigma: np.ndarray
    accepted: np.ndarray
    extra: dict | None = None

    def geweke_pass(self) -> bool:
        """Whether every mu coordinate's Geweke |z| is below 4."""
        return bool(np.all(self.geweke_z < 4.0))


def summarize_mu_sigma(mu_draws, sigma_mean, log_dets, accepts, burn: int,
                       extra=None) -> PosteriorSummary:
    """Summary from a chain's mean draws, covariance log dets and accept
    flags (all over every iteration, of which the first ``burn`` are
    burn-in) and its already-averaged post-burn covariance."""
    accepts = np.asarray(accepts, dtype=bool)
    accept_burn = accepts[:burn].mean() if burn else float("nan")
    all_draws = np.asarray(mu_draws, dtype=float)
    mu_draws = all_draws[burn:]
    n_eff = np.array([effective_sample_size(mu_draws[:, i]) for i in range(mu_draws.shape[1])])
    mu_se = np.array([_mean_se(mu_draws[:, i], ess) for i, ess in enumerate(n_eff.tolist())])
    geweke = np.array([geweke_split_z(mu_draws[:, i]) for i in range(mu_draws.shape[1])])
    return PosteriorSummary(
        mu_post=mu_draws.mean(axis=0),
        sigma_post=np.asarray(sigma_mean, dtype=float),
        n_eff=n_eff,
        mu_se=mu_se,
        mu_draw_cov=np.cov(mu_draws, rowvar=False, ddof=1).reshape(
            mu_draws.shape[1], -1
        ),
        geweke_z=geweke,
        acceptance_rate=float(accepts[burn:].mean()),
        acceptance_rate_burn=float(accept_burn),
        mu_draws=all_draws,
        log_det_sigma=np.asarray(log_dets, dtype=float),
        accepted=accepts,
        extra=extra,
    )
