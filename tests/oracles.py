"""Reference implementations the tests check the engine against.

Two kinds live here. The first are closed forms that no code in the package
calls: the mean-return conditional as a (mean, covariance) pair, completing
the square, the Volterra log density and the symmetric matrix exponential.
The second are longhand forms of the ``log_sigma`` kernels: the f-vectors of
all n^2 eigenvector pairs, xi with both branches always evaluated, and the
prior precision G through its 2x2 core solve.
"""

import numpy as np

from blbayes.errors import DimensionError
from blbayes.inverse_wishart import _mu_conditional_pre
from blbayes.linalg import (
    require_spd,
    require_symmetric,
    spd_inverse,
    spd_solve,
    symmetrize,
    vec_star_bilinear,
)
from blbayes.log_sigma import VolterraQuadratic, build_Q
from blbayes.views import view_precision


def mu_conditional(rbar, sigma, q_eff, omega_eff, p_eff, m: int):
    """Mean and covariance of the mean-return conditional.

    ``cov = (m Sigma^-1 + P' Omega^-1 P)^-1`` and
    ``mean = cov (m Sigma^-1 rbar + P' Omega^-1 q)``. ``p_eff=None`` means
    the identity (view-space variant); ``omega_eff=None`` drops the view
    term entirely (the vague-views limit: mean -> rbar, cov -> Sigma/m).
    """
    rbar = np.asarray(rbar, dtype=float)
    n = rbar.size
    sigma_inv = spd_inverse(sigma, "mu conditional Sigma")
    if omega_eff is None:
        prior_prec = np.zeros((n, n))
        prior_vec = np.zeros(n)
    else:
        if p_eff is None and np.shape(q_eff) != (n,):
            raise DimensionError("q_eff length must be n when P_eff is identity")
        prior_prec, prior_vec = view_precision(omega_eff, q_eff, p_eff)
    return _mu_conditional_pre(rbar, sigma_inv, prior_prec, prior_vec, m)


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
    if quad is None:
        quad = build_Q(s_matrix, m)
    n = quad.eigvals.size
    return (-0.5 * m * n * float(np.log(2.0 * np.pi * np.e)) - 0.5 * m * quad.log_det_s
            + quad.log_kernel(alpha))


def matrix_exp_sym(a) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (always SPD)."""
    a = require_symmetric(a, "matrix_exp_sym input")
    w, v = np.linalg.eigh(a)
    return symmetrize((v * np.exp(w)) @ v.T)


def f_vectors_all_pairs(eigvecs) -> np.ndarray:
    """``f_ij`` for all n^2 pairs, shape ``(n, n, d)``, one
    :func:`vec_star_bilinear` of ``e_i e_j'`` per pair ``i <= j``."""
    e = np.asarray(eigvecs, dtype=float)
    n = e.shape[0]
    out = np.empty((n, n, n * (n + 1) // 2))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = vec_star_bilinear(np.outer(e[:, i], e[:, j]))
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


def g_core_solve(design) -> np.ndarray:
    """``Delta^-1 - Delta^-1 J (J' Delta^-1 J)^-1 J' Delta^-1`` through a
    solve with the 2x2 core ``J' Delta^-1 J``."""
    delta_inv = 1.0 / design.delta_diag
    j = design.j_matrix
    a = delta_inv[:, None] * j
    core = j.T @ a
    return symmetrize(np.diag(delta_inv) - a @ np.linalg.solve(core, a.T))
