"""Gibbs samplers for the Inverse-Wishart covariance prior.

Two variants run the same chain and differ only in the views on the mean:

* ``gibbs_augmented`` augments P to an invertible square P* and puts the
  prior ``(q*, Omega*)`` on ``P* mu``;
* ``gibbs_nonsquare`` keeps the investor's ``(P, q, Omega)`` untouched.

A chain alternates one covariance draw (Inverse Wishart) with one mean draw
(multivariate normal). It runs in whitened coordinates: ``A = Sigma0 +`` the
returns' centred scatter is fixed for the whole chain, so its Cholesky factor
``L`` is taken once, and with ``y = L^-1 (mu - rbar)`` each covariance draw
has the scale ``I + m y y'``, whose inverse square root has a closed form.
So an iteration factors one matrix, mu's conditional precision, and solves
one system; the mu draws and the Sigma estimate are mapped back to asset
space once, after the chain. The point estimate of mu is the post-burn mean
of its draws; that of Sigma is the post-burn mean of its conditional mean
``E[Sigma | mu, data]`` given each mu draw, a Rao-Blackwellised estimate with
the same expectation as the draws' mean and less variance (Gelfand & Smith
1990; Casella & Robert 1996). The covariance draw returns its whitened
inverse and the log det of Sigma, so the chain never forms, inverts or
factors a drawn covariance, nor estimates its condition. The mean draw
takes its conditional in precision form and factors that precision once,
so no matrix is inverted in the loop. Both samplers run G view sets under one :class:`IwConfig`
with G stream ids as one batch of chains in lock step, and each summary is
bit for bit that of its chain run alone. The summary carries each chain's
every mu draw and log det; no sampler writes a file.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import summarize_mu_sigma
from .errors import (
    ChainError,
    DimensionError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    ValidationError,
)
from .linalg import centred_scatter, require_spd, spd_cholesky, symmetrize
from .sampling import (
    bartlett_factors,
    bartlett_log_dets,
    rng_stream,
    sample_inverse_wishart,
    sample_mvn,
)
from .views import ViewSet, augment_to_invertible, build_transformed_hyperparams, view_precision

log = logging.getLogger(__name__)

# Smallest view variance both Inverse-Wishart samplers tolerate before the
# draws degrade; override with allow_small_omega=True at your own risk.
OMEGA_FLOOR_IW = 1e-9
OMEGA_FLOOR_HARD = 1e-12

# Iterations of Bartlett factors a chain draws at once (two vectorised calls
# per block); blocks of 64 and 256 timed the same, and 64 holds less memory.
BLOCK = 64


def check_chain_length(iters: int, burn: int) -> None:
    """A chain needs ``0 <= burn <= iters - 2``: with fewer than two
    post-burn draws the Monte-Carlo standard error is undefined."""
    if not 0 <= burn <= iters - 2:
        raise ValidationError("burn", "need 0 <= burn <= iters - 2 (two post-burn draws)")


def check_nu(n: int, nu: float) -> None:
    """The Inverse Wishart with n x n draws needs a finite ``nu > n - 1``
    (written so that NaN fails too)."""
    if not n - 1 < nu < math.inf:
        raise ValidationError("nu", f"must exceed n-1 = {n - 1}")


def check_sigma0(sigma0) -> np.ndarray:
    """The Inverse-Wishart prior scale Sigma0 must be symmetric positive
    definite (:func:`~blbayes.linalg.require_spd`); returns it exactly
    symmetric."""
    try:
        return require_spd(sigma0)
    except (DimensionError, NotPositiveDefiniteError) as exc:
        raise ValidationError("sigma0", str(exc)) from exc


def check_default_sigma0(n: int, nu: float) -> None:
    """The default Sigma0 = (nu - n - 1) * historical covariance is SPD only
    if ``nu > n + 1``; a smaller nu needs an explicit sigma0."""
    if nu <= n + 1:
        raise ValidationError("nu", f"must exceed n+1 = {n + 1} unless sigma0 is given "
                              "(the default sigma0 is (nu-n-1) * historical covariance)")


def check_sigma_mean(n: int, m: int, nu: float) -> None:
    """The Sigma estimate of the Inverse-Wishart models, the mean of the
    conditional means ``scale / (nu + m - n - 1)``, exists only if
    ``nu + m > n + 1``."""
    if nu + m <= n + 1:
        raise ValidationError("data.m", "the posterior mean of Sigma needs nu + m > n + 1 = "
                              f"{n + 1}, got nu = {nu:g} and m = {m}")


@dataclass(frozen=True)
class IwConfig:
    """Hyperparameters and chain controls for the Inverse-Wishart models."""

    nu: float
    sigma0: np.ndarray
    iters: int
    burn: int
    seed: int
    allow_small_omega: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sigma0", check_sigma0(self.sigma0))
        check_nu(self.sigma0.shape[0], self.nu)
        check_chain_length(self.iters, self.burn)

    @classmethod
    def default_for(cls, n: int, hist_cov, iters: int, burn: int, seed: int,
                    nu: float | None = None, **kw) -> "IwConfig":
        """Defaults for n assets: nu = n + 2 (smallest integer with a finite
        prior mean) and, unless ``sigma0`` is passed, Sigma0 = (nu - n - 1) *
        hist_cov, the historical covariance, which is read only then (and may
        be None otherwise). That default needs nu > n + 1."""
        if nu is None:
            nu = n + 2
        check_nu(n, nu)
        if kw.get("sigma0") is None:
            check_default_sigma0(n, nu)
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


def _iw_chain(returns_current, views, cfg, stream_ids, prior):
    """The chains both Inverse-Wishart samplers run, one per view set, as
    one lock-step batch; returns their summaries in order. ``prior(v)``
    validates one view set and returns the views ``(p, q, omega)`` of its
    chain. The points are validated in order before any chain runs, and the
    first that fails raises its own error.

    The chains run on ``y = L^-1 (mu - rbar)``, with the views
    ``(P L, q - P rbar, Omega)`` and the view precision ``(B, b)`` of those.
    From y = 0, each iteration draws the covariance, whose whitened scale is
    ``I + u u'`` for ``u = sqrt(m) y``, as its whitened inverse ``S^-1`` and
    the log det of Sigma (:func:`~blbayes.sampling.sample_inverse_wishart`,
    given ``2 log det L``, a float taken once per batch), then y from its
    normal conditional, with precision ``m S^-1 + B`` and shift ``b``. Every
    step is accepted. The Bartlett factors and the standard normals of the y
    draws depend on nothing in the chain state, so each chain draws them
    from its own stream in blocks of :data:`BLOCK` iterations, the last
    block only as many as it has left: a stream holds a block of factors
    (:func:`~blbayes.sampling.bartlett_factors`), then the ``(size, n)`` y
    normals of those iterations in one call, then the next block, alone or
    in a batch. The factors' half of the log dets,
    ``log det A A'``, is taken once per block too
    (:func:`~blbayes.sampling.bartlett_log_dets`), so an iteration does only
    the work that depends on the state. A batch stacks its arrays along a
    leading axis of length G, each chain's block drawn from its own stream;
    a batch of one runs on plain arrays and one Generator, which spares
    numpy's overhead on stacks of one.

    No drawn covariance is formed, factored or inverted, so none has its
    condition estimated. The condition warnings of an IW run come from the
    factor of ``A``, once per batch (``Sigma0 + centred scatter``), from
    the y draw's precision, every iteration (``mu conditional
    precision``), and from the weights of each point's Sigma estimate,
    once per point (``optimal weights``, in
    :func:`~blbayes.backtest.run_model`).

    The mu draws map back as ``rbar + L y``, and the Sigma estimate is
    ``L (I + mean u u') L' / (nu + m - n - 1)``, the post-burn mean of
    ``E[Sigma | mu, data]``, which :func:`check_sigma_mean` checks exists.
    """
    returns_current = np.asarray(returns_current, dtype=float)
    chain_views = []
    for v in views:
        p, q, omega = prior(v)
        if returns_current.shape[1] != p.shape[1]:
            raise DimensionError("returns and views disagree on the number of assets")
        chain_views.append((p, q, omega))
    count = len(chain_views)
    if count == 0 or len(stream_ids) != count:
        raise DimensionError(f"{count} view sets for {len(stream_ids)} stream ids")
    m, n = returns_current.shape
    if m < 1:
        raise InsufficientDataError("the chain needs at least one row of returns")
    check_sigma_mean(n, m, cfg.nu)
    iters, burn, dof = cfg.iters, cfg.burn, cfg.nu + m
    rbar, centred = centred_scatter(returns_current)
    lower = spd_cholesky(cfg.sigma0 + centred, "Sigma0 + centred scatter")
    log_det_lower = 2.0 * sum(map(math.log, lower.diagonal().tolist()))
    priors = [view_precision(omega, q - p @ rbar, p @ lower) for p, q, omega in chain_views]
    prior_prec = np.array([prec for prec, _ in priors])
    prior_vec = np.array([vec for _, vec in priors])
    rng = [rng_stream(cfg.seed, s) for s in stream_ids]
    y_draws = np.empty((count, iters, n))
    log_dets = np.empty((count, iters))
    uu_sum = np.zeros((count, n, n))
    # the loop runs on all chains, or on chain 0's slices: plain arrays, one stream
    g = slice(None) if count > 1 else 0
    draws, logdets, uu_acc, prior_prec, prior_vec, rng = (
        a[g] for a in (y_draws, log_dets, uu_sum, prior_prec, prior_vec, rng))
    root_m = math.sqrt(m)
    y = np.zeros(prior_vec.shape)
    for start in range(0, iters, BLOCK):
        size = min(BLOCK, iters - start)
        if count > 1:  # one block per chain, stacked per iteration
            blocks = [(bartlett_factors(dof, n, size, r), r.standard_normal((size, n)))
                      for r in rng]
            factors, normals = (np.stack(b, axis=1) for b in zip(*blocks))
        else:
            factors = bartlett_factors(dof, n, size, rng)
            normals = rng.standard_normal((size, n))
        for t, factor, bartlett_log_det, z in zip(
                range(start, start + size), factors, bartlett_log_dets(factors), normals):
            u = root_m * y
            sigma_inv, logdets[..., t] = sample_inverse_wishart(u, factor, bartlett_log_det,
                                                                log_det_lower)
            # each draw is checked before the chain uses it; the u u'
            # terms, which only feed the average, are checked once in
            # their sum
            if not np.isfinite(sigma_inv).all():
                raise ChainError("non-finite draw in Gibbs chain", iteration=t)
            y = sample_mvn(prior_vec, precision=m * sigma_inv + prior_prec, z=z,
                           name="mu conditional precision", cov_cholesky=True)
            if not np.isfinite(y).all():
                raise ChainError("non-finite draw in Gibbs chain", iteration=t)
            draws[..., t, :] = y
            if t >= burn:
                uu_acc += u[..., :, None] * u[..., None, :]
    if not np.isfinite(uu_sum).all():
        raise ChainError("non-finite Sigma mean in Gibbs chain")
    mu_draws = rbar + y_draws @ lower.T
    sigma_posts = (symmetrize(lower @ (np.eye(n) + uu_sum / (iters - burn)) @ lower.T)
                   / (cfg.nu + m - n - 1))
    return [summarize_mu_sigma(mu, sigma, log_det, np.ones(iters, dtype=bool), burn)
            for mu, sigma, log_det in zip(mu_draws, sigma_posts, log_dets)]


def gibbs_augmented(returns_current, views, monthly_mean_vectors, cfg, stream_ids):
    """Sampler with the augmented views: extend P to an invertible P*, put
    the prior ``(q*, Omega*)`` of
    :func:`~blbayes.views.build_transformed_hyperparams` on ``P* mu``, and
    run the chain of :func:`gibbs_nonsquare` with the views ``(P*, q*, Omega*)``.

    ``cfg.sigma0`` and the recorded draws are in asset space. The
    Inverse-Wishart family is closed under congruence, so this is, in law,
    the chain in view space ``P* mu`` mapped back to asset space. A batch
    runs as in :func:`gibbs_nonsquare`.
    """
    def prior(v):
        check_omega_floor(v, OMEGA_FLOOR_IW, cfg.allow_small_omega, "augmented")
        p_star = augment_to_invertible(v.p)
        return p_star, *build_transformed_hyperparams(p_star, v.q, v.omega, monthly_mean_vectors)

    return _iw_chain(returns_current, views, cfg, stream_ids, prior)


def gibbs_nonsquare(returns_current, views, cfg, stream_ids):
    """Sampler with the investor's P unmodified; its draws are recorded in
    asset space.

    Runs G view sets under one :class:`IwConfig`, point g on the stream
    ``(cfg.seed, stream_ids[g])``, as one lock-step batch, and returns their
    G summaries in order.
    """
    def prior(v):
        check_omega_floor(v, OMEGA_FLOOR_IW, cfg.allow_small_omega, "non-square")
        return v.p, v.q, v.omega

    return _iw_chain(returns_current, views, cfg, stream_ids, prior)
