"""Investor views: the (P, q, Omega) triple, augmentation of P to an
invertible square matrix P*, and the SPD hyperparameters (q*, Omega*), with
the investor's (q, Omega) in the view block, of the prior on P* mu."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    AugmentationError,
    DimensionError,
    InsufficientDataError,
    RankError,
    ValidationError,
)
from .linalg import as_matrix, spd_cholesky, spd_inverse, symmetrize

log = logging.getLogger(__name__)

# Singular values below this count as zero in the rank tests of
# augment_to_invertible, which scales P to a largest singular value of 1.
_RANK_TOL = 1e-10
_RHO_MARGIN = 1e-6  # Omega* keeps rho (see below) at most 1 - _RHO_MARGIN


@dataclass(frozen=True)
class ViewSet:
    """k views on n assets.

    ``p`` is the k-by-n pick matrix (relative views sum to zero across a row,
    absolute views have a single 1), ``q`` the expected per-period returns of
    the views, and ``omega_diag`` the diagonal of the view covariance: small
    entries mean high confidence.
    """

    p: np.ndarray
    q: np.ndarray
    omega_diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "omega_diag", np.asarray(self.omega_diag, dtype=float))
        if self.p.ndim != 2:
            raise ValidationError("views.P", "must be a 2-D matrix")
        k, n = self.p.shape
        if k < 1 or n < 1 or k > n:
            raise ValidationError("views.P", f"need 1 <= k <= n, got k={k}, n={n}")
        if not np.isfinite(self.p).all():
            raise ValidationError("views.P", "all entries must be finite")
        if self.q.shape != (k,):
            raise ValidationError("views.q", f"expected length {k}, got shape {self.q.shape}")
        if not np.isfinite(self.q).all():
            raise ValidationError("views.q", "all entries must be finite")
        if self.omega_diag.shape != (k,):
            raise ValidationError(
                "views.omega", f"expected length {k}, got shape {self.omega_diag.shape}"
            )
        # NaN fails "> 0" and infinity fails isfinite
        if not np.all((self.omega_diag > 0) & np.isfinite(self.omega_diag)):
            raise ValidationError("views.omega", "all entries must be finite and > 0")
        if np.any(~self.p.any(axis=1)):
            raise ValidationError("views.P", "contains an all-zero row")

    @property
    def k(self) -> int:
        return self.p.shape[0]

    @property
    def n(self) -> int:
        return self.p.shape[1]

    @property
    def omega(self) -> np.ndarray:
        return np.diag(self.omega_diag)

    def with_omega(self, omega_diag) -> "ViewSet":
        return ViewSet(self.p, self.q, np.asarray(omega_diag, dtype=float))


def view_precision(omega, q, p):
    """The views' contribution to a mean posterior: ``(P' Omega^-1 P,
    P' Omega^-1 q)`` for the k-by-n pick matrix ``p`` (the square P* with
    ``(q*, Omega*)`` for the augmented views)."""
    omega_inv = spd_inverse(omega, "Omega")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return p.T @ omega_inv @ p, p.T @ (omega_inv @ q)


def _rank(m: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(m, tol=_RANK_TOL))


def check_row_rank(p) -> np.ndarray:
    """Raise :class:`~blbayes.errors.RankError` unless the rows of the
    k-by-n view matrix ``p`` are linearly independent, as augmentation to an
    invertible P* needs. The rank is tested on P divided by its largest
    singular value, so the test does not depend on the scale of P; returns
    that scaled P."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise DimensionError(f"P must be 2-D, got shape {p.shape}")
    k, n = p.shape
    if k > n:
        raise RankError(f"more views ({k}) than assets ({n})")
    scale = np.linalg.norm(p, 2)
    stack = p / scale if scale > 0 else p
    rank = _rank(stack)
    if rank < k:
        raise RankError(f"P has row rank {rank} < k = {k}")
    return stack


def augment_to_invertible(p) -> np.ndarray:
    """Append rows to a full-row-rank k-by-n view matrix until it is square
    and invertible, and return that n-by-n P*: its first k rows are P bit for
    bit, and the n - k rows below them are unit rows.

    Unit rows are tried in this order: one for every all-zero column of P
    (rule 1), then one for every nonzero non-pivot entry of each row that has
    more than one nonzero entry (rule 2; the pivot of a row is its first
    nonzero column), then one for every column in ascending order (the fill).
    A row that does not raise the rank is skipped, and the loop stops once
    the matrix is square. The rank tests run on P divided by its largest
    singular value (:func:`check_row_rank`), so the rows added do not depend
    on the scale of P.
    """
    p = np.asarray(p, dtype=float)
    stack = check_row_rank(p)
    k, n = p.shape

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

    unit_rows = np.eye(n)
    for j in candidates + list(range(n)):
        if stack.shape[0] == n:
            break
        trial = np.vstack([stack, unit_rows[j]])
        if _rank(trial) == trial.shape[0]:
            stack = trial

    if stack.shape != (n, n):
        raise AugmentationError("the augmentation rules could not complete P")
    return np.vstack([p, stack[k:]])


def check_month_count(months: int, n: int, k: int) -> None:
    """The estimated block of ``Omega*`` (:func:`build_transformed_hyperparams`)
    is SPD only from ``max(2, n - k + 1)`` monthly means, for n assets and k
    views."""
    need = max(2, n - k + 1)
    if months < need:
        raise InsufficientDataError(f"need at least {need} monthly mean vectors, got {months}")


def build_transformed_hyperparams(p_star, q, omega, monthly_means):
    """Build (q*, Omega*), the prior ``P* mu ~ N(q*, Omega*)`` of the
    augmented-views model, for the n-by-n ``p_star`` of
    :func:`augment_to_invertible` whose first k rows are the views, k the
    length of ``q``.

    The augmented mean/covariance come from per-month mean-return vectors
    (asset space): ``q* = P* mean(monthly)`` and
    ``Omega* = P* cov(monthly) P*'``, after which the first k entries of q*
    are overwritten with q and the top-left k-by-k block of Omega* with the
    investor's Omega. With ``C12`` the cross block and ``C22`` the estimated
    block, that is SPD exactly when C22 is, which takes at least
    ``max(2, n - k + 1)`` monthly means (:func:`check_month_count`), and
    ``rho = |L_Omega^-1 C12 L22^-T|_2^2 < 1`` (Schur complement; the ``L``
    are Cholesky factors). When ``rho >= 1 - 1e-6``, both cross blocks are
    scaled by ``sqrt((1 - 1e-6) / rho)`` (logged), which keeps Omega and C22
    exactly; otherwise Omega* is the overwrite bit for bit.
    """
    p_star = as_matrix(p_star, "P*")
    q = np.asarray(q, dtype=float)
    omega = np.asarray(omega, dtype=float)
    n = p_star.shape[0]
    k = q.size
    if q.ndim != 1 or not 1 <= k <= n or omega.shape != (k, k):
        raise DimensionError(f"q {q.shape} and Omega {omega.shape} are not (k,) and (k, k) "
                             f"with 1 <= k <= {n}")
    means = np.asarray(monthly_means, dtype=float)
    if means.ndim != 2 or means.shape[1] != n:
        raise DimensionError(
            f"monthly means must be (num_months, {n}), got {means.shape}"
        )
    check_month_count(means.shape[0], n, k)

    mu_hat = means.mean(axis=0)
    var_mu = np.cov(means, rowvar=False, ddof=1).reshape(n, n)

    q_star = p_star @ mu_hat
    q_star[:k] = q
    omega_star = symmetrize(p_star @ var_mu @ p_star.T)
    omega_star[:k, :k] = omega

    if k < n:
        l_omega = spd_cholesky(omega, "Omega")
        l_22 = spd_cholesky(omega_star[k:, k:], "Omega* estimated block")
        white = np.linalg.solve(l_22, np.linalg.solve(l_omega, omega_star[:k, k:]).T)
        rho = np.linalg.norm(white, 2) ** 2
        if rho >= 1 - _RHO_MARGIN:
            s = np.sqrt((1 - _RHO_MARGIN) / rho)
            log.warning("Omega*: scaling the cross blocks by %.3e (rho = %.3e) so it "
                        "is SPD with the view block kept at Omega", s, rho)
            omega_star[:k, k:] *= s
            omega_star[k:, :k] *= s
    return q_star, omega_star
