"""Reference implementations the tests check the engine against.

Two kinds live here. The first are closed forms that no code in the package
calls: the mean-return conditional as a (shift, precision) and as a (mean,
covariance) pair, the canonical-form normal draw through two solves with a
Cholesky factor, completing the square, the Volterra log density, the
symmetric matrix exponential and the exact posterior moments of the
Inverse-Wishart models by quadrature over one scalar. The second are
longhand forms of engine code: the f-vectors of all n^2 eigenvector pairs
slot by slot, xi with both branches always evaluated, the prior precision G
through its 2x2 core solve from the block design of the alpha prior, view
augmentation as two loops, over the rule candidates and then over the fill,
the Inverse-Wishart chain in asset space, with a factorization and a
solve per draw, and the augmented-views sampler run in view space on that
chain.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from blbayes.diagnostics import summarize_mu_sigma
from blbayes.errors import AugmentationError, DimensionError, RankError
from blbayes.inverse_wishart import BLOCK
from blbayes.linalg import (
    centred_scatter,
    require_spd,
    require_symmetric,
    scatter_about,
    spd_inverse,
    spd_solve,
    symmetrize,
    vec_star_dim,
)
from blbayes.log_sigma import VolterraQuadratic, build_Q
from blbayes.sampling import bartlett_factors, rng_stream, sample_mvn
from blbayes.views import (
    _rank,
    augment_to_invertible,
    build_transformed_hyperparams,
    view_precision,
)


def mu_conditional_precision(rbar, sigma, q_eff, omega_eff, p_eff, m: int):
    """Shift and precision of the mean-return conditional,
    ``(m Sigma^-1 rbar + P' Omega^-1 q, m Sigma^-1 + P' Omega^-1 P)``: the
    form :func:`~blbayes.sampling.sample_mvn` draws from. ``omega_eff=None``
    drops the view term entirely (the vague-views limit)."""
    rbar = np.asarray(rbar, dtype=float)
    n = rbar.size
    sigma_inv = spd_inverse(sigma, "mu conditional Sigma")
    if omega_eff is None:
        prior_prec = np.zeros((n, n))
        prior_vec = np.zeros(n)
    else:
        prior_prec, prior_vec = view_precision(omega_eff, q_eff, p_eff)
    return m * sigma_inv @ rbar + prior_vec, symmetrize(m * sigma_inv + prior_prec)


def mu_conditional(rbar, sigma, q_eff, omega_eff, p_eff, m: int):
    """Mean and covariance of the mean-return conditional.

    ``cov = (m Sigma^-1 + P' Omega^-1 P)^-1`` and
    ``mean = cov (m Sigma^-1 rbar + P' Omega^-1 q)``. ``omega_eff=None``
    drops the view term entirely (the vague-views limit: mean -> rbar,
    cov -> Sigma/m).
    """
    shift, precision = mu_conditional_precision(rbar, sigma, q_eff, omega_eff, p_eff, m)
    cov = spd_inverse(precision, "mu conditional precision")
    return cov @ shift, cov


def collapsed_iw_moments(returns, p, q, omega, nu, sigma0, nodes: int = 401):
    """E[mu], Cov[mu] and E[Sigma] of the Inverse-Wishart model with the
    views ``P mu ~ N(q, Omega)`` (``omega`` a k-by-k matrix, or its diagonal),
    computed without a chain.

    Integrating Sigma ~ IW(nu, Sigma0) out of the m returns leaves
    ``p(mu | data) ~ (1 + m d' A^-1 d)^(-(nu+m)/2) N(P mu; q, Omega)`` with
    ``d = mu - rbar`` and ``A = Sigma0 +`` the centred scatter (matrix
    determinant lemma). The power is a gamma scale mixture: with
    ``w ~ Gamma(a, 1)``, ``a = (nu+m)/2``, mu | w is normal with precision
    ``2wm A^-1 + P' Omega^-1 P``. With ``A = L L'`` and ``U, beta`` the
    eigenpairs of ``L' P' Omega^-1 P L``, the coordinates ``z = U' L^-1 d``
    given w are independent normals, of precision ``2wm + beta`` and mean
    ``c / (2wm + beta)`` with ``c = U' L' P' Omega^-1 (q - P rbar)``, and

        log p(w | data) = (a-1) log w - w - 1/2 sum log(2wm + beta)
                          + 1/2 sum c^2 / (2wm + beta) + const.

    Every moment is then an integral over w, taken by the trapezoid rule in
    ``t = log w`` on ``[log a - 12, log a + 4]`` with ``nodes`` nodes.
    ``E[Sigma] = (A + m E[d d']) / (nu + m - n - 1)``.
    """
    returns = np.asarray(returns, dtype=float)
    m, n = returns.shape
    rbar = returns.mean(axis=0)
    centred = returns - rbar
    a_mat = np.asarray(sigma0, dtype=float) + centred.T @ centred
    omega = np.asarray(omega, dtype=float)
    omega_inv = np.linalg.inv(np.diag(omega) if omega.ndim == 1 else omega)
    p = np.asarray(p, dtype=float)
    lower = np.linalg.cholesky(a_mat)
    pl = p @ lower
    beta, u = np.linalg.eigh(pl.T @ omega_inv @ pl)
    c = u.T @ (pl.T @ (omega_inv @ (np.asarray(q, dtype=float) - p @ rbar)))
    a = (nu + m) / 2
    t = np.linspace(np.log(a) - 12, np.log(a) + 4, nodes)
    prec = 2 * m * np.exp(t)[:, None] + beta
    # log p(w) plus the Jacobian t of w = e^t
    log_weight = (a * t - np.exp(t) - 0.5 * np.log(prec).sum(axis=1)
                  + 0.5 * (c ** 2 / prec).sum(axis=1))
    weight = np.exp(log_weight - log_weight.max())
    weight[[0, -1]] *= 0.5
    weight /= weight.sum()
    z_mean = c / prec
    ez = weight @ z_mean
    dev = z_mean - ez
    cov_z = np.diag(weight @ (1 / prec)) + (weight[:, None] * dev).T @ dev
    lu = lower @ u
    cov = lu @ cov_z @ lu.T
    e_dd = cov + np.outer(lu @ ez, lu @ ez)
    return rbar + lu @ ez, symmetrize(cov), symmetrize((a_mat + m * e_dd) / (nu + m - n - 1))


def mvn_two_solves(shift, precision, z, cov_cholesky: bool = False) -> np.ndarray:
    """The canonical-form draw from N(P^-1 shift, P^-1) with the normals
    ``z``, through two solves with the Cholesky factor of ``P = L L'``:
    ``x = L'^-1 (L^-1 shift + z)``. With ``cov_cholesky``, ``J P J = L L'``
    and ``x = J L'^-1 (L^-1 J shift + J z)``, for ``J`` the exchange
    matrix."""
    order = slice(None, None, -1) if cov_cholesky else slice(None)
    chol = np.linalg.cholesky(np.asarray(precision, dtype=float)[order, order])
    inner = np.linalg.solve(chol, np.asarray(shift, dtype=float)[order]) + z[order]
    return np.linalg.solve(chol.T, inner)[order]


def complete_square(a_mat, a_vec, b_mat, b_vec):
    """Combine two quadratic forms centred at ``a_vec`` and ``b_vec``.

    For SPD ``A`` and ``B``::

        (y-a)'A(y-a) + (y-b)'B(y-b)
            == (y-y*)'(A+B)(y-y*) + (a-b)'H(a-b)

    Returns ``(y_star, H, combined)`` with ``y* = (A+B)^-1 (Aa + Bb)``,
    ``H = (A^-1 + B^-1)^-1`` and ``combined = A + B``.
    """
    a_mat = require_spd(a_mat, "complete_square A")
    b_mat = require_spd(b_mat, "complete_square B")
    a_vec = np.asarray(a_vec, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    p = a_mat.shape[0]
    if b_mat.shape[0] != p or a_vec.shape != (p,) or b_vec.shape != (p,):
        raise DimensionError("complete_square: dimensions do not agree")
    combined = a_mat + b_mat
    y_star = spd_solve(combined, a_mat @ a_vec + b_mat @ b_vec, "complete_square A+B")
    h = spd_inverse(spd_inverse(a_mat) + spd_inverse(b_mat), "complete_square H")
    return y_star, h, combined


def volterra_log_density(alpha, s_matrix, m: int,
                         quad: VolterraQuadratic | None = None) -> float:
    """Log of the approximate return density as a function of alpha:

    ``-(mn/2) log(2 pi e) - (m/2) log det S - (alpha-lambda)' Q (alpha-lambda)/2``.

    At ``alpha = vec_star(log S)`` this equals the exact Gaussian
    log-likelihood evaluated at ``Sigma = S``.
    """
    s_matrix = np.asarray(s_matrix, dtype=float)
    if quad is None:
        quad = build_Q(s_matrix, m)
    n = s_matrix.shape[0]
    log_det_s = float(np.log(np.linalg.eigvalsh(s_matrix)).sum())
    return (-0.5 * m * n * float(np.log(2.0 * np.pi * np.e)) - 0.5 * m * log_det_s
            + quad.log_kernel(alpha))


def matrix_exp_sym(a) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (always SPD)."""
    a = require_symmetric(a, "matrix_exp_sym input")
    w, v = np.linalg.eigh(a)
    return symmetrize((v * np.exp(w)) @ v.T)


def f_vectors_all_pairs(eigvecs) -> np.ndarray:
    """``f_ij`` for all n^2 pairs, shape ``(n, n, d)``, spelled out from
    ``vec_star(A) @ f_ij == e_i' A e_j`` with the eigenvectors ``e_i`` as
    columns: the slot of ``A[k, k]`` holds ``e[k, i] e[k, j]``, that of
    ``A[k, l]`` (k < l) holds ``e[k, i] e[l, j] + e[l, i] e[k, j]``, and the
    slots run along the main diagonal, then each super-diagonal."""
    e = np.asarray(eigvecs, dtype=float)
    n = e.shape[0]
    out = np.empty((n, n, n * (n + 1) // 2))
    for i in range(n):
        for j in range(n):
            slot = 0
            for offset in range(n):
                for k in range(n - offset):
                    l = k + offset
                    out[i, j, slot] = (e[k, i] * e[k, j] if offset == 0
                                       else e[k, i] * e[l, j] + e[l, i] * e[k, j])
                    slot += 1
    return out


def xi_two_branch(d_i, d_j):
    """xi with the raw formula and the series both evaluated everywhere and
    the series selected where ``|log d_i - log d_j| < 1e-8``."""
    d_i = np.asarray(d_i, dtype=float)
    d_j = np.asarray(d_j, dtype=float)
    h = np.log(d_i) - np.log(d_j)
    diff = d_i - d_j
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1.0 + h * h / 24.0 + h**4 / 1920.0
        xi = np.where(np.abs(h) < 1e-8, g * g, diff * diff / (d_i * d_j * h * h))
    return xi[()]


@dataclass(frozen=True)
class StructuralDesign:
    """Block structure of the alpha prior: the first n stacked coordinates
    (the log-variance diagonal) share one variance, the remaining d-n (the
    off-diagonal couplings) share the other. ``J`` maps the two block
    locations to alpha and ``Delta`` is the diagonal prior covariance."""

    n: int
    sigma1_sq: float
    sigma2_sq: float

    @property
    def d(self) -> int:
        return vec_star_dim(self.n)

    @property
    def j_matrix(self) -> np.ndarray:
        j = np.zeros((self.d, 2))
        j[: self.n, 0] = 1.0
        j[self.n :, 1] = 1.0
        return j

    @property
    def delta_diag(self) -> np.ndarray:
        out = np.empty(self.d)
        out[: self.n] = self.sigma1_sq
        out[self.n :] = self.sigma2_sq
        return out


def g_core_solve(design) -> np.ndarray:
    """``Delta^-1 - Delta^-1 J (J' Delta^-1 J)^-1 J' Delta^-1`` through a
    solve with the 2x2 core ``J' Delta^-1 J``."""
    delta_inv = 1.0 / design.delta_diag
    j = design.j_matrix
    a = delta_inv[:, None] * j
    core = j.T @ a
    return symmetrize(np.diag(delta_inv) - a @ np.linalg.solve(core, a.T))


def augment_two_loops(p) -> np.ndarray:
    """:func:`~blbayes.views.augment_to_invertible` with the unit rows of
    the two rules tried in one loop and, if the matrix is still short of
    square, the unit rows of every column in a second loop."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise DimensionError(f"P must be 2-D, got shape {p.shape}")
    k, n = p.shape
    if k > n:
        raise RankError(f"more views ({k}) than assets ({n})")
    if _rank(p) < k:
        raise RankError(f"P has row rank {_rank(p)} < k = {k}")

    def unit_row(j: int) -> np.ndarray:
        row = np.zeros(n)
        row[j] = 1.0
        return row

    pivot_cols = {int(np.flatnonzero(p[i])[0]) for i in range(k)}
    candidates: list[int] = []
    for j in range(n):  # rule 1: all-zero columns
        if not p[:, j].any():
            candidates.append(j)
    for i in range(k):  # rule 2: non-pivot nonzero entries of multi-entry rows
        nz = np.flatnonzero(p[i])
        if len(nz) <= 1:
            continue
        for j in nz:
            if int(j) not in pivot_cols and int(j) not in candidates:
                candidates.append(int(j))

    stack = p
    rank = k
    for j in candidates:
        if rank == n:
            break
        trial = np.vstack([stack, unit_row(j)])
        if _rank(trial) > rank:
            stack, rank = trial, rank + 1
    if rank < n:
        for j in range(n):
            if rank == n:
                break
            trial = np.vstack([stack, unit_row(j)])
            if _rank(trial) > rank:
                stack, rank = trial, rank + 1

    p_star = stack
    if p_star.shape != (n, n) or abs(np.linalg.det(p_star)) < 1e-12:
        raise AugmentationError("augmentation rules produced a singular square matrix")
    return p_star


def iw_chain_asset_space(returns, views, cfg, stream_id: int = 0):
    """One Inverse-Wishart chain in asset space, with a general scale, for
    the views ``(p, q, omega)`` and an :class:`IwConfig`. Starting from
    mu = rbar, each iteration forms the scale
    ``Sigma0 + sum_i (r_i - mu)(r_i - mu)'``, factors it, ``scale = L L'``,
    and makes the Bartlett draw ``Sigma^-1 = N N'`` with ``N = L^-T A``, one
    solve, and ``log det Sigma = 2 sum log(diag L / diag A)``; then it draws
    mu from its normal conditional. The factors ``A`` come in blocks of
    ``BLOCK`` from the chain's stream, each followed by the mu normals of its
    iterations in one call: the engine's stream order. Returns the mu draws,
    the post-burn mean of the draws' conditional means
    ``scale / (nu + m - n - 1)`` and the log dets."""
    m, n = returns.shape
    rbar, centred = centred_scatter(returns)
    p, q, omega = views
    prior_prec, prior_vec = view_precision(omega, q, p)
    rng = rng_stream(cfg.seed, stream_id)
    mu = rbar
    mu_draws = np.empty((cfg.iters, n))
    log_dets = np.empty(cfg.iters)
    scale_sum = np.zeros((n, n))
    for start in range(0, cfg.iters, BLOCK):
        size = min(BLOCK, cfg.iters - start)
        factors = bartlett_factors(cfg.nu + m, n, size, rng)
        normals = rng.standard_normal((size, n))
        for t, factor, z in zip(range(start, start + size), factors, normals):
            scale = np.asarray(cfg.sigma0, dtype=float) + scatter_about(centred, rbar, mu, m)
            chol = np.linalg.cholesky(scale)
            n_factor = np.linalg.solve(chol.T, factor)
            log_dets[t] = 2.0 * float(np.log(np.diag(chol) / np.diag(factor)).sum())
            data_prec = m * symmetrize(n_factor @ n_factor.T)
            mu = sample_mvn(data_prec @ rbar + prior_vec, precision=data_prec + prior_prec,
                            z=z, cov_cholesky=True)
            mu_draws[t] = mu
            if t >= cfg.burn:
                scale_sum += scale
    return mu_draws, scale_sum / (cfg.iters - cfg.burn) / (cfg.nu + m - n - 1), log_dets


def gibbs_augmented_view_space(returns_current, views, monthly_mean_vectors, cfg):
    """The augmented-views sampler run in view space: transform the returns
    and Sigma0 by P*, run the asset-space chain :func:`iw_chain_asset_space`
    with an identity pick matrix and the prior ``(q*, Omega*)``, and map the
    mean draws and the Sigma mean back with ``P*^-1``."""
    returns_current = np.asarray(returns_current, dtype=float)
    p_star = augment_to_invertible(views.p)
    p_star_inv = np.linalg.inv(p_star)
    q_star, omega_star = build_transformed_hyperparams(
        p_star, views.q, views.omega, monthly_mean_vectors
    )
    sigma0_star = symmetrize(p_star @ cfg.sigma0 @ p_star.T)
    mu_star_draws, sigma_star_mean, log_dets = iw_chain_asset_space(
        returns_current @ p_star.T, (np.eye(p_star.shape[0]), q_star, omega_star),
        replace(cfg, sigma0=sigma0_star))
    mu_draws = mu_star_draws @ p_star_inv.T
    sigma_post = symmetrize(p_star_inv @ sigma_star_mean @ p_star_inv.T)
    return summarize_mu_sigma(mu_draws, sigma_post, log_dets, np.ones(cfg.iters, dtype=bool),
                              cfg.burn)
