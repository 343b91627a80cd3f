"""Gibbs samplers for the Inverse-Wishart covariance prior.

Two variants share the same conditionals:

* ``gibbs_augmented`` transforms the returns into view space with an
  augmented invertible P*, runs the sampler there (the mean conditional sees
  an identity pick matrix), and transforms the posterior back.
* ``gibbs_nonsquare`` keeps the investor's P untouched and samples the mean
  in asset space, where P enters the conditional directly.

A chain alternates one covariance draw (Inverse Wishart) with one mean draw
(multivariate normal); point estimates are post-burn arithmetic means. The
loop itself, :func:`gibbs_chain`, is shared with the log-covariance sampler,
which supplies its own covariance step. Every covariance step returns the
draw together with its inverse and its log det, computed from the factor the
step already holds, so the loop neither inverts nor factors a drawn
covariance.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .diagnostics import PosteriorSummary, summarize_mu_sigma
from .errors import ChainError, DimensionError, InsufficientDataError, ValidationError
from .linalg import require_spd, spd_inverse, symmetrize
from .sampling import RngStream, sample_inverse_wishart, sample_mvn
from .views import ViewSet, augment_to_invertible, build_transformed_hyperparams, view_precision

log = logging.getLogger(__name__)

# Smallest view variance each variant tolerates before the covariance draws
# degrade; override with allow_small_omega=True at your own risk.
OMEGA_FLOOR_AUGMENTED = 1e-6
OMEGA_FLOOR_NONSQUARE = 1e-9
OMEGA_FLOOR_HARD = 1e-12


def check_chain_length(iters: int, burn: int) -> None:
    """A chain needs ``0 <= burn <= iters - 2``: with fewer than two
    post-burn draws the Monte-Carlo standard error is undefined."""
    if not 0 <= burn <= iters - 2:
        raise ValidationError("burn", "need 0 <= burn <= iters - 2 (two post-burn draws)")


@dataclass(frozen=True)
class IwConfig:
    """Hyperparameters and chain controls for the Inverse-Wishart models."""

    nu: float
    sigma0: np.ndarray
    iters: int
    burn: int
    seed: int
    stream_id: int = 0
    allow_small_omega: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sigma0", require_spd(self.sigma0, "Sigma0"))
        n = self.sigma0.shape[0]
        if self.nu <= n - 1:
            raise ValidationError("nu", f"must exceed n-1 = {n - 1}")
        check_chain_length(self.iters, self.burn)

    @classmethod
    def default_for(cls, hist_cov, iters: int, burn: int, seed: int,
                    nu: float | None = None, **kw) -> "IwConfig":
        """Defaults: nu = n + 2 (smallest integer with a finite prior mean)
        and, unless ``sigma0`` is passed, Sigma0 = (nu - n - 1) * hist_cov, so
        the prior mean equals the historical sample covariance. That default
        needs nu > n + 1; a smaller nu must come with an explicit sigma0."""
        n = np.shape(hist_cov)[0]
        if nu is None:
            nu = n + 2
        if kw.get("sigma0") is None:
            if nu <= n + 1:
                raise ValidationError(
                    "nu", f"must exceed n+1 = {n + 1} unless sigma0 is given "
                    "(the default sigma0 is (nu-n-1) * historical covariance)"
                )
            kw["sigma0"] = (nu - n - 1) * require_spd(hist_cov, "historical covariance")
        return cls(nu=nu, iters=iters, burn=burn, seed=seed, **kw)


def check_omega_floor(views: ViewSet, floor: float, allow_small: bool, variant: str):
    lo = float(views.omega_diag.min())
    if lo < OMEGA_FLOOR_HARD:
        raise ValidationError(
            "views.omega", f"entry {lo:.3e} is below the hard floor {OMEGA_FLOOR_HARD:.0e}"
        )
    if lo < floor:
        if not allow_small:
            raise ValidationError(
                "views.omega",
                f"entry {lo:.3e} is below the {variant} floor {floor:.0e}; "
                "set allow_small_omega to override",
            )
        log.warning(
            "%s: omega entry %.3e below the tested floor %.0e; proceeding on request",
            variant, lo, floor,
        )


def _mu_conditional_pre(rbar, sigma_inv, prior_prec, prior_vec, m: int):
    """Mean and covariance of the mean-return conditional,
    ``cov = (m Sigma^-1 + P' Omega^-1 P)^-1`` and
    ``mean = cov (m Sigma^-1 rbar + P' Omega^-1 q)``, from ``Sigma^-1`` and
    the views' ``(P' Omega^-1 P, P' Omega^-1 q)`` of
    :func:`~blbayes.views.view_precision`."""
    cov = spd_inverse(symmetrize(m * sigma_inv + prior_prec), "mu conditional precision")
    mean = cov @ (m * sigma_inv @ rbar + prior_vec)
    return mean, cov


def sigma_conditional(residual_scatter, nu: float, sigma0, m: int):
    """Inverse-Wishart parameters of the covariance conditional:
    ``(nu + m, Sigma0 + sum_i (r_i - mu)(r_i - mu)')``."""
    scatter = symmetrize(np.asarray(residual_scatter, dtype=float))
    return nu + m, np.asarray(sigma0, dtype=float) + scatter


class _TraceWriter:
    """Streams per-iteration chain state to CSV."""

    def __init__(self, path, n: int, mh: bool = False):
        self._fh = open(path, "w", newline="")
        self._w = csv.writer(self._fh)
        cols = ["iteration"] + [f"mu_{i}" for i in range(n)] + ["logdet_sigma"]
        if mh:
            cols.append("accepted")
        self._w.writerow(cols)

    def row(self, iteration: int, mu, logdet: float, accepted: int | None = None):
        cells = [str(iteration)] + [format(v, ".17g") for v in mu]
        cells.append(format(logdet, ".17g"))
        if accepted is not None:
            cells.append(str(accepted))
        self._w.writerow(cells)

    def close(self):
        self._fh.close()


def gibbs_chain(returns, q_eff, omega_eff, p_eff, cfg, sigma_step,
                trace_path=None, mh: bool = False):
    """The Gibbs loop every sampler shares.

    Starting from mu = rbar, each iteration calls ``sigma_step(mu, rng)`` for
    ``(sigma, sigma_inv, log_det, accepted)``: a covariance draw, its inverse,
    its log det (for the trace) and an accept flag. The step logs the "Sigma
    draw" condition warning. The loop then draws mu from its normal
    conditional given that covariance and the views ``p_eff``, ``q_eff``,
    ``omega_eff``, whose precision it builds from ``sigma_inv``. ``cfg``
    supplies ``iters``, ``burn``, ``seed`` and ``stream_id``. ``mh`` adds the
    accept flag to the trace rows.

    Returns (mu draws over all iterations, post-burn Sigma mean, accept flags).
    """
    returns = np.asarray(returns, dtype=float)
    m, n = returns.shape
    if m < 1:
        raise InsufficientDataError("the chain needs at least one row of returns")
    rbar = returns.mean(axis=0)
    prior_prec, prior_vec = view_precision(omega_eff, q_eff, p_eff)

    rng = RngStream(cfg.seed, cfg.stream_id)
    mu = rbar.copy()
    mu_draws = np.empty((cfg.iters, n))
    sigma_sum = np.zeros((n, n))
    accepts = np.zeros(cfg.iters, dtype=bool)
    trace = _TraceWriter(trace_path, n, mh) if trace_path else None
    try:
        for t in range(cfg.iters):
            sigma, sigma_inv, log_det, accepts[t] = sigma_step(mu, rng)
            mean, cov = _mu_conditional_pre(rbar, sigma_inv, prior_prec, prior_vec, m)
            mu = sample_mvn(mean, cov, rng)
            if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
                raise ChainError("non-finite draw in Gibbs chain", iteration=t)
            mu_draws[t] = mu
            if t >= cfg.burn:
                sigma_sum += sigma
            if trace is not None:
                trace.row(t, mu, log_det, int(accepts[t]) if mh else None)
    finally:
        if trace is not None:
            trace.close()
    return mu_draws, sigma_sum / (cfg.iters - cfg.burn), accepts


def _iw_step(returns, nu: float, sigma0):
    """Covariance step of the Inverse-Wishart models: an exact conditional
    draw with its inverse and log det, so every step is accepted."""
    m = returns.shape[0]

    def step(mu, rng):
        resid = returns - mu
        dof, scale = sigma_conditional(resid.T @ resid, nu, sigma0, m)
        return *sample_inverse_wishart(dof, scale, rng), True

    return step


def gibbs_augmented(returns_current, views: ViewSet, monthly_mean_vectors,
                    cfg: IwConfig, trace_path=None) -> PosteriorSummary:
    """View-space sampler: augment P, transform the data and hyperparameters,
    run the chain with an identity pick matrix, and map the posterior back to
    asset space.

    ``cfg.sigma0`` is expressed in asset space and transformed covariantly
    (P* Sigma0 P*'), so the prior describes the same covariance either way.
    The trace, when requested, records the chain as sampled (view space).
    """
    check_omega_floor(views, OMEGA_FLOOR_AUGMENTED, cfg.allow_small_omega, "augmented")
    returns_current = np.asarray(returns_current, dtype=float)
    aug = augment_to_invertible(views.p)
    p_star = aug.p_star
    p_star_inv = np.linalg.inv(p_star)
    q_star, omega_star = build_transformed_hyperparams(
        aug, views.q, views.omega, monthly_mean_vectors
    )
    sigma0_star = symmetrize(p_star @ cfg.sigma0 @ p_star.T)
    transformed = returns_current @ p_star.T

    mu_star_draws, sigma_star_mean, accepts = gibbs_chain(
        transformed, q_star, omega_star, np.eye(p_star.shape[0]), cfg,
        _iw_step(transformed, cfg.nu, sigma0_star), trace_path,
    )

    mu_draws = mu_star_draws @ p_star_inv.T
    sigma_post = symmetrize(p_star_inv @ sigma_star_mean @ p_star_inv.T)
    return summarize_mu_sigma(mu_draws, sigma_post, accepts, cfg.burn)


def gibbs_nonsquare(returns_current, views: ViewSet, cfg: IwConfig,
                    trace_path=None) -> PosteriorSummary:
    """Asset-space sampler with the investor's P unmodified."""
    check_omega_floor(views, OMEGA_FLOOR_NONSQUARE, cfg.allow_small_omega, "non-square")
    returns_current = np.asarray(returns_current, dtype=float)
    if returns_current.shape[1] != views.n:
        raise DimensionError("returns and views disagree on the number of assets")
    mu_draws, sigma_mean, accepts = gibbs_chain(
        returns_current, views.q, views.omega, views.p, cfg,
        _iw_step(returns_current, cfg.nu, cfg.sigma0), trace_path,
    )
    return summarize_mu_sigma(mu_draws, sigma_mean, accepts, cfg.burn)
