"""The closed-form Black-Litterman model.

Combines the equilibrium prior on mean returns with the investor's views
into a normal posterior for the returns, derives unconstrained optimal
weights, and exposes the equivalent decomposition of those weights into the
equilibrium portfolio plus a weighted sum of the view portfolios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import require_spd, spd_inverse, spd_solve, symmetrize
from .views import ViewSet, view_precision


@dataclass(frozen=True)
class EquilibriumInputs:
    """Everything the equilibrium prior needs.

    ``tau`` scales the uncertainty of the equilibrium mean prior relative to
    the return covariance; ``risk_aversion`` is the usual lambda (2.5 for the
    stock-trading setups here).
    """

    risk_aversion: float
    w_eq: np.ndarray
    sigma: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "w_eq", np.asarray(self.w_eq, dtype=float))
        object.__setattr__(self, "sigma", require_spd(self.sigma, "Sigma"))
        if self.risk_aversion <= 0:
            raise ValidationError("risk_aversion", "must be > 0")
        if self.tau <= 0:
            raise ValidationError("tau", "must be > 0")
        if self.w_eq.shape != (self.sigma.shape[0],):
            raise DimensionError("w_eq length does not match Sigma")


@dataclass(frozen=True)
class BlPosterior:
    """Posterior of the returns: r ~ N(mu_bar, sigma_bar), with
    sigma_bar = m_inv + sigma."""

    mu_bar: np.ndarray
    m_inv: np.ndarray
    sigma_bar: np.ndarray


def equilibrium_returns(inputs: EquilibriumInputs) -> np.ndarray:
    """Implied equilibrium mean returns: lambda * Sigma @ w_eq."""
    return inputs.risk_aversion * inputs.sigma @ inputs.w_eq


def bl_posterior(pi, tau: float, sigma, views: ViewSet | None) -> BlPosterior:
    """Combine the equilibrium prior N(pi, tau*Sigma) with the views.

    With views (P, q, Omega)::

        M      = (tau Sigma)^-1 + P' Omega^-1 P
        mu_bar = M^-1 ((tau Sigma)^-1 pi + P' Omega^-1 q)

    ``views=None`` short-circuits to the prior-only limit
    (mu_bar = pi, sigma_bar = (1+tau) Sigma).
    """
    pi = np.asarray(pi, dtype=float)
    sigma = require_spd(sigma, "Sigma")
    if tau <= 0:
        raise ValidationError("tau", "must be > 0")
    n = sigma.shape[0]
    if pi.shape != (n,):
        raise DimensionError("pi length does not match Sigma")

    prior_prec = spd_inverse(tau * sigma, "tau*Sigma")
    if views is None:
        m_inv = tau * sigma
        return BlPosterior(mu_bar=pi.copy(), m_inv=m_inv, sigma_bar=m_inv + sigma)

    if views.n != n:
        raise DimensionError("views are on a different number of assets")
    view_prec, view_vec = view_precision(views.omega, views.q, views.p)
    m = symmetrize(prior_prec + view_prec)
    m_inv = spd_inverse(m, "BL posterior precision")
    mu_bar = m_inv @ (prior_prec @ pi + view_vec)
    return BlPosterior(mu_bar=mu_bar, m_inv=m_inv, sigma_bar=m_inv + sigma)


def optimal_weights(mu_bar, sigma_bar, risk_aversion: float) -> np.ndarray:
    """Unconstrained mean-variance optimum: w = Sigma_bar^-1 mu_bar / lambda.

    Weights do not sum to 1 by construction; scaling lambda by c scales the
    weights by 1/c exactly.
    """
    sigma_bar = np.asarray(sigma_bar, dtype=float)
    mu_bar = np.asarray(mu_bar, dtype=float)
    return spd_solve(sigma_bar, mu_bar, "optimal weights") / risk_aversion


def weight_decomposition(inputs: EquilibriumInputs, views: ViewSet):
    """Optimal weights written as equilibrium plus view tilts.

    Returns ``(w_star, delta)`` with::

        w*    = (w_eq + P' delta) / (1 + tau)
        delta = tau Omega^-1 q / lambda
                - A^-1 P Sigma/(1+tau) w_eq
                - A^-1 P Sigma/(1+tau) P' tau Omega^-1 q / lambda
        A     = Omega/tau + P Sigma/(1+tau) P'

    which equals ``optimal_weights(bl_posterior(...))`` when the prior mean
    is the equilibrium return.
    """
    tau, lam = inputs.tau, inputs.risk_aversion
    sigma_scaled = inputs.sigma / (1.0 + tau)
    p, q = views.p, views.q
    omega_inv_q = q / views.omega_diag
    a = views.omega / tau + p @ sigma_scaled @ p.T
    lead = tau * omega_inv_q / lam
    delta = (
        lead
        - spd_solve(a, p @ sigma_scaled @ inputs.w_eq, "decomposition A")
        - spd_solve(a, p @ sigma_scaled @ (p.T @ lead), "decomposition A")
    )
    w_star = (inputs.w_eq + p.T @ delta) / (1.0 + tau)
    return w_star, delta
