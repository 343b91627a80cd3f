"""The log-covariance-prior model.

The covariance is parameterized through ``alpha = vec_star(log Sigma)``. The
return likelihood, exactly ``exp(-m/2 * tr(A + S e^-A))`` with
``A = log Sigma`` and ``S`` the mean-centred scatter, is replaced by a
Gaussian in ``alpha`` obtained from a second-order Volterra expansion of the
matrix exponential around ``log S``: precision ``Q`` built from eigenvector
coefficient vectors ``f_ij`` and eigenvalue ratios ``xi_ij``. The prior puts
one normal on the diagonal block of ``alpha`` and another on the
off-diagonal block; integrating the two location parameters out under a flat
prior leaves the centering precision ``G``.

Sampling alternates a Metropolis-Hastings update of ``alpha``, inverse-gamma
updates of the two prior variances, and the shared normal mean update. The
Gaussian approximation times the prior proposes; the prior cancels from the
acceptance ratio, which is the exact likelihood over its approximation. Each
candidate is eigendecomposed once, and that one decomposition gives its
exact likelihood and, when accepted, Sigma, its inverse and its log det.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .diagnostics import PosteriorSummary, summarize_mu_sigma
from .errors import (
    BasisError,
    DimensionError,
    InsufficientDataError,
    ModelSizeError,
    ValidationError,
)
from .inverse_wishart import OMEGA_FLOOR_HARD, check_chain_length, check_omega_floor, gibbs_chain
from .linalg import (
    matrix_log_spd,
    spd_eigh,
    symmetrize,
    vec_star,
    vec_star_bilinear,
    vec_star_dim,
    vec_star_inverse,
    warn_condition,
)
from .sampling import sample_inverse_gamma, sample_mvn_precision
from .views import ViewSet

log = logging.getLogger(__name__)

# Below this gap in log-eigenvalues the raw xi formula is 0/0; switch to the
# series of (2 sinh(h/2) / h)^2.
_XI_SERIES_THRESHOLD = 1e-8
# Keeps the inverse-gamma draws defined at the measure-zero corner where all
# alpha entries of a block coincide.
IG_SCALE_FLOOR = 1e-300


def check_asset_count(n: int) -> None:
    """The log-covariance prior is proper only for n >= 4 assets: its
    inverse-gamma shapes ``(n-3)/2`` and ``(d-n-3)/2`` must be positive."""
    if n < 4:
        raise ModelSizeError(
            f"the log-covariance model needs n >= 4 assets (prior shape parameters "
            f"(n-3)/2 and (d-n-3)/2 must be positive), got n={n}"
        )


def xi_coefficient(d_i, d_j):
    """Eigenvalue-pair weight ``(d_i - d_j)^2 / (d_i d_j (log d_i - log d_j)^2)``,
    elementwise over arrays.

    Equals ``g(h)^2`` for ``h = log(d_i/d_j)`` and ``g(h) = 2 sinh(h/2)/h``,
    which is the form used near ``d_i == d_j`` (limit value 1).
    """
    d_i = np.asarray(d_i, dtype=float)
    d_j = np.asarray(d_j, dtype=float)
    if (d_i <= 0).any() or (d_j <= 0).any():
        raise ValidationError("xi", "eigenvalues must be positive")
    h = np.log(d_i) - np.log(d_j)
    diff = d_i - d_j
    near = np.abs(h) < _XI_SERIES_THRESHOLD
    if not near.any():
        return (diff * diff / (d_i * d_j * h * h))[()]
    # Some pair needs the series: both branches are evaluated everywhere, and
    # the raw one is 0/0 where h == 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1.0 + h * h / 24.0 + h**4 / 1920.0
        xi = np.where(near, g * g, diff * diff / (d_i * d_j * h * h))
    return xi[()]


_PAIR_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector index arrays ``(i, j)`` of the ``d = n(n+1)/2`` pairs
    with ``i <= j``: the n diagonal pairs ``(k, k)`` first, then the pairs
    ``i < j`` row-major. Row ``p`` of :func:`build_f_vectors` and of the
    Volterra terms belongs to pair ``(i[p], j[p])``."""
    if n not in _PAIR_CACHE:
        diag = np.arange(n)
        rows = np.concatenate([diag] + [np.full(n - 1 - i, i) for i in range(n)])
        cols = np.concatenate([diag] + [np.arange(i + 1, n) for i in range(n)])
        _PAIR_CACHE[n] = (rows, cols)
    return _PAIR_CACHE[n]


def build_f_vectors(eigvecs) -> np.ndarray:
    """Coefficient vectors ``f_ij`` with ``vec_star(A) @ f_ij == e_i' A e_j``
    for every symmetric ``A``, for the d pairs ``i <= j`` only (``f_ji``
    equals ``f_ij``).

    The slot of a diagonal entry ``A[k, k]`` carries ``e_i[k] e_j[k]``; the
    slot of ``A[k, l]`` (k < l) carries ``e_i[k] e_j[l] + e_i[l] e_j[k]``.
    Returns shape ``(d, d)``: row ``p`` is ``f_ij`` for the pair
    ``(i, j)`` of :func:`_pair_indices`, the :func:`vec_star_bilinear` stack
    of the outer product ``e_i e_j'``.
    """
    e = np.asarray(eigvecs, dtype=float)
    n = e.shape[0]
    gram_dev = np.abs(e.T @ e - np.eye(n)).max()
    if gram_dev > 1e-8:
        raise BasisError(f"eigenvector basis not orthonormal (Gram deviation {gram_dev:.3e})")
    pi, pj = _pair_indices(n)
    e_t = e.T
    return vec_star_bilinear(e_t[pi][:, :, None] * e_t[pj][:, None, :])


@dataclass(frozen=True)
class VolterraQuadratic:
    """The Gaussian approximation of the likelihood in alpha space:
    center ``lambda_vec = vec_star(log S)`` and precision ``q_matrix``."""

    lambda_vec: np.ndarray
    q_matrix: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    log_det_s: float

    def log_kernel(self, alpha) -> float:
        """``-(alpha-lambda)' Q (alpha-lambda)/2``, the alpha-dependent part
        of the approximate log-likelihood."""
        diff = np.asarray(alpha, dtype=float) - self.lambda_vec
        return -0.5 * float(diff @ self.q_matrix @ diff)


def build_Q(s_matrix, m: int) -> VolterraQuadratic:
    """Assemble the approximation precision

    ``Q = m/2 * sum_i f_ii f_ii' + m * sum_{i<j} xi_ij f_ij f_ij'``

    from the eigen-decomposition of the scatter matrix, as one product
    ``F' W F`` of the d rows of :func:`build_f_vectors` with their weights.
    Near-degenerate eigenvalue pairs go through the series limit of xi,
    never an error.
    """
    evals, evecs = spd_eigh(s_matrix, "scatter matrix")
    if m < 1:
        raise ValidationError("m", "must be >= 1")
    n = evals.size
    f = build_f_vectors(evecs)
    pi, pj = _pair_indices(n)
    weights = np.empty(pi.size)
    weights[:n] = m / 2.0
    weights[n:] = m * xi_coefficient(evals[pi[n:]], evals[pj[n:]])
    terms = (f * weights[:, None]).T @ f

    log_evals = np.log(evals)
    lambda_vec = vec_star((evecs * log_evals) @ evecs.T)
    return VolterraQuadratic(
        lambda_vec=lambda_vec,
        q_matrix=symmetrize(terms),
        eigvals=evals,
        eigvecs=evecs,
        log_det_s=float(log_evals.sum()),
    )


def _decompose(alpha):
    """One eigendecomposition ``A = V diag(w) V'`` of the symmetric matrix
    stacked in alpha. Returns ``(w, v, V e^-W V')``: for ``Sigma = exp(A)``,
    ``log det Sigma = sum(w)`` and ``Sigma^-1 = V e^-W V'``."""
    w, v = np.linalg.eigh(vec_star_inverse(alpha))
    return w, v, (v * np.exp(-w)) @ v.T


def _log_likelihood(log_det_sigma: float, sigma_inv, s_matrix, m: int) -> float:
    """``-(m/2) (log det Sigma + tr(S Sigma^-1))``: the exact return
    log-likelihood of the covariance, up to its constant."""
    return -0.5 * m * (log_det_sigma + float(np.sum(s_matrix * sigma_inv)))


def exact_log_target(alpha, s_matrix, m: int) -> float:
    """Exact log-likelihood of alpha, up to its constant:
    ``-(m/2) tr(A + S e^-A)`` with ``A`` the symmetric matrix whose stacking
    is alpha."""
    w, _, exp_neg_a = _decompose(alpha)
    return _log_likelihood(float(w.sum()), exp_neg_a, np.asarray(s_matrix, dtype=float), m)


def mh_log_ratio(candidate, current, loglik_candidate: float, loglik_current: float,
                 quad: VolterraQuadratic) -> float:
    """Log acceptance ratio of the independence proposal
    ``N((Q+G)^-1 Q lambda, (Q+G)^-1)``: the exact log-likelihood ratio over
    its Volterra approximation, ``[l(cand) - l(curr)] - [v(cand) - v(curr)]``,
    with ``l`` the exact log-likelihoods passed in and ``v`` the quadratic
    :meth:`VolterraQuadratic.log_kernel`. The alpha prior is part of the
    target and the proposal alike, so its terms cancel."""
    return (loglik_candidate - loglik_current) - (
        quad.log_kernel(candidate) - quad.log_kernel(current)
    )


@dataclass(frozen=True)
class StructuralDesign:
    """Block structure of the alpha prior: the first n stacked coordinates
    (the log-variance diagonal) share one variance, the remaining d-n (the
    off-diagonal couplings) share the other."""

    n: int
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        if self.n < 2:
            raise ModelSizeError("structural design needs n >= 2")
        if self.sigma1_sq <= 0 or self.sigma2_sq <= 0:
            raise ValidationError("sigma_sq", "block variances must be positive")

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


_CENTERING_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _centering_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The centering matrices ``C_k = I - 11'/k`` of the two alpha blocks,
    ``k = n`` and ``k = d - n``."""
    if n not in _CENTERING_CACHE:
        k = vec_star_dim(n) - n
        _CENTERING_CACHE[n] = (np.eye(n) - 1.0 / n, np.eye(k) - 1.0 / k)
    return _CENTERING_CACHE[n]


def build_G(design: StructuralDesign) -> np.ndarray:
    """Prior precision after integrating the block locations out:

    ``G = Delta^-1 - Delta^-1 J (J' Delta^-1 J)^-1 J' Delta^-1``,

    which is block-diagonal, ``C_n / sigma1^2`` on the diagonal block and
    ``C_{d-n} / sigma2^2`` on the off-diagonal block, with the centering
    matrix ``C_k = I - 11'/k``. G annihilates the columns of J, i.e. adding
    a constant to either alpha block leaves the prior quadratic unchanged.
    """
    n, d = design.n, design.d
    c_diag, c_off = _centering_blocks(n)
    g = np.zeros((d, d))
    np.divide(c_diag, design.sigma1_sq, out=g[:n, :n])
    np.divide(c_off, design.sigma2_sq, out=g[n:, n:])
    return g


def sigma_sq_conditionals(alpha, n: int):
    """Inverse-gamma parameters of the two block-variance conditionals:

    shapes ``(n-3)/2`` and ``(d-n-3)/2``, scales half the within-block sums
    of squared deviations from the block mean. Scales are floored at
    ``IG_SCALE_FLOOR`` so the degenerate equal-entries corner stays
    sampleable. Shapes are positive only for n >= 4.
    """
    check_asset_count(n)
    alpha = np.asarray(alpha, dtype=float)
    d = vec_star_dim(n)
    if alpha.shape != (d,):
        raise DimensionError(f"alpha must have length {d} for n={n}")
    diag, off = alpha[:n], alpha[n:]
    dev1 = diag - diag.sum() / n
    dev2 = off - off.sum() / (d - n)
    scale1 = 0.5 * float((dev1 * dev1).sum())
    scale2 = 0.5 * float((dev2 * dev2).sum())
    return (
        ((n - 3) / 2.0, max(scale1, IG_SCALE_FLOOR)),
        ((d - n - 3) / 2.0, max(scale2, IG_SCALE_FLOOR)),
    )


@dataclass(frozen=True)
class LogSigmaConfig:
    """Chain controls for the log-covariance sampler."""

    iters: int
    burn: int
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        check_chain_length(self.iters, self.burn)


def _sigma_pair(w, v, exp_neg_a) -> tuple[np.ndarray, np.ndarray, float]:
    """``(Sigma, Sigma^-1, log det Sigma)`` for ``Sigma = exp(A)`` from the
    :func:`_decompose` output of ``A``. Logs the "Sigma draw" condition
    warning with the exact condition number ``exp(w_max - w_min)``."""
    warn_condition("Sigma draw", float(np.exp(w[-1] - w[0])))
    return symmetrize((v * np.exp(w)) @ v.T), symmetrize(exp_neg_a), float(w.sum())


def _scatter(returns, mu) -> np.ndarray:
    resid = returns - mu
    return symmetrize(resid.T @ resid / returns.shape[0])


def gibbs_log_sigma(returns_current, views: ViewSet, cfg: LogSigmaConfig,
                    trace_path=None) -> PosteriorSummary:
    """Metropolis-Hastings-within-Gibbs sampler for the log-covariance model.

    The covariance step, given the current mu: (1) build the scatter, its
    eigen-quantities, Q, and G from the current block variances, (2) propose
    alpha from N((Q+G)^-1 Q lambda, (Q+G)^-1), drawn through one Cholesky
    factor of Q+G, and accept with :func:`mh_log_ratio`. One eigh of the
    candidate gives its likelihood and, if accepted, Sigma, Sigma^-1 and
    log det Sigma; the current alpha's likelihood comes from those cached
    values and this iteration's S. (3) Draw the two block variances. The
    shared loop (:func:`~blbayes.inverse_wishart.gibbs_chain`) then draws mu
    with the investor's P.

    Needs n >= 4 (prior shape positivity) and m > n (SPD scatter). Reports
    burn and post-burn acceptance rates separately; occurrences of the
    inverse-gamma scale floor are counted in ``extra``.
    """
    returns_current = np.asarray(returns_current, dtype=float)
    if returns_current.ndim != 2:
        raise DimensionError("returns must be a 2-D (m, n) array")
    m, n = returns_current.shape
    check_asset_count(n)
    if m <= n:
        raise InsufficientDataError(
            f"need m > n for an SPD scatter matrix, got m={m}, n={n}"
        )
    if views.n != n:
        raise DimensionError("returns and views disagree on the number of assets")
    check_omega_floor(views, OMEGA_FLOOR_HARD, False, "log_sigma")

    # Data-centred start: alpha at the log of the scatter of the sample mean
    # (where the loop starts mu), so Sigma is that scatter up to rounding;
    # block variances at the empirical variances of the matching alpha
    # blocks. matrix_log_spd and build_Q validate each scatter.
    alpha = vec_star(matrix_log_spd(_scatter(returns_current, returns_current.mean(axis=0))))
    sigma, sigma_inv, log_det = _sigma_pair(*_decompose(alpha))
    sigma1_sq = max(float(np.var(alpha[:n])), 1e-12)
    sigma2_sq = max(float(np.var(alpha[n:])), 1e-12)
    floor_hits = 0

    def step(mu, rng):
        nonlocal alpha, sigma, sigma_inv, log_det, sigma1_sq, sigma2_sq, floor_hits
        s_mat = _scatter(returns_current, mu)
        quad = build_Q(s_mat, m)
        g_mat = build_G(StructuralDesign(n, sigma1_sq, sigma2_sq))
        candidate = sample_mvn_precision(
            quad.q_matrix @ quad.lambda_vec, quad.q_matrix + g_mat, rng
        )
        w, v, exp_neg_a = _decompose(candidate)
        loglik = _log_likelihood(float(w.sum()), exp_neg_a, s_mat, m)
        log_rho = mh_log_ratio(candidate, alpha, loglik,
                               _log_likelihood(log_det, sigma_inv, s_mat, m), quad)
        accepted = bool(np.log(rng.generator.random()) < log_rho)
        if accepted:
            alpha = candidate
            sigma, sigma_inv, log_det = _sigma_pair(w, v, exp_neg_a)

        (sh1, sc1), (sh2, sc2) = sigma_sq_conditionals(alpha, n)
        floor_hits += int(sc1 <= IG_SCALE_FLOOR) + int(sc2 <= IG_SCALE_FLOOR)
        sigma1_sq = sample_inverse_gamma(sh1, sc1, rng)
        sigma2_sq = sample_inverse_gamma(sh2, sc2, rng)
        return sigma, sigma_inv, log_det, accepted

    mu_draws, sigma_mean, accepts = gibbs_chain(
        returns_current, views.q, views.omega, views.p, cfg, step, trace_path, mh=True
    )
    return summarize_mu_sigma(
        mu_draws, sigma_mean, accepts, cfg.burn, extra={"ig_scale_floor_hits": floor_hits}
    )
