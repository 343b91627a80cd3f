"""Investor views: the (P, q, Omega) triple, augmentation of P to an
invertible square matrix, and the transformed hyperparameters (q*, Omega*)
used by the view-space Gibbs sampler."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AugmentationError,
    DimensionError,
    HyperparamError,
    InsufficientDataError,
    RankError,
    ValidationError,
)
from .linalg import spd_inverse, symmetrize

log = logging.getLogger(__name__)

_RANK_TOL = 1e-10


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
        if self.q.shape != (k,):
            raise ValidationError("views.q", f"expected length {k}, got shape {self.q.shape}")
        if self.omega_diag.shape != (k,):
            raise ValidationError(
                "views.omega", f"expected length {k}, got shape {self.omega_diag.shape}"
            )
        if np.any(self.omega_diag <= 0):
            raise ValidationError("views.omega", "all entries must be strictly positive")
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
    P' Omega^-1 q)`` for the k-by-n pick matrix ``p`` (the identity in the
    view-space chain)."""
    omega_inv = spd_inverse(omega, "Omega")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return p.T @ omega_inv @ p, p.T @ (omega_inv @ q)


@dataclass(frozen=True)
class AugmentedViews:
    """Square invertible extension of a view matrix.

    The first k rows of ``p_star`` are the original views bit-exactly;
    ``added_rows`` holds the (n-k) rows appended below them.
    """

    p_star: np.ndarray
    added_rows: np.ndarray
    k: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "k", self.p_star.shape[0] - self.added_rows.shape[0])


def _rank(m: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(m, tol=_RANK_TOL))


def augment_to_invertible(p) -> AugmentedViews:
    """Append rows to a full-row-rank k-by-n view matrix until it is square
    and invertible.

    Unit rows are tried in this order: one for every all-zero column of P
    (rule 1), then one for every nonzero non-pivot entry of each row that has
    more than one nonzero entry (rule 2; the pivot of a row is its first
    nonzero column), then one for every column in ascending order (the fill).
    A row that does not raise the rank is skipped, and the loop stops once
    the matrix is square.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise DimensionError(f"P must be 2-D, got shape {p.shape}")
    k, n = p.shape
    if k > n:
        raise RankError(f"more views ({k}) than assets ({n})")
    if _rank(p) < k:
        raise RankError(f"P has row rank {_rank(p)} < k = {k}")

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
    p_star = p
    for j in candidates + list(range(n)):
        if p_star.shape[0] == n:
            break
        trial = np.vstack([p_star, unit_rows[j]])
        if _rank(trial) == trial.shape[0]:
            p_star = trial

    if p_star.shape != (n, n) or abs(np.linalg.det(p_star)) < 1e-12:
        raise AugmentationError(
            "augmentation rules produced a singular square matrix "
            f"(det = {np.linalg.det(p_star) if p_star.shape == (n, n) else 'n/a'})"
        )
    out = AugmentedViews(p_star=p_star, added_rows=p_star[k:])
    assert np.array_equal(out.p_star[:k], p)
    return out


def build_transformed_hyperparams(aug: AugmentedViews, q, omega, monthly_means):
    """Build (q*, Omega*) for the view-space model.

    The augmented mean/covariance come from per-month mean-return vectors
    (asset space): ``q* = P* mean(monthly)`` and
    ``Omega* = P* cov(monthly) P*'``, after which the first k entries of q*
    are overwritten with q and the top-left k-by-k block of Omega* with the
    investor's Omega. The overwrite can dent positive definiteness, so
    Omega* is floored at a relative eigenvalue of 1e-10 (shift logged).
    """
    q = np.asarray(q, dtype=float)
    omega = np.asarray(omega, dtype=float)
    p_star = aug.p_star
    n = p_star.shape[0]
    k = aug.k
    means = np.asarray(monthly_means, dtype=float)
    if means.ndim != 2 or means.shape[1] != n:
        raise DimensionError(
            f"monthly means must be (num_months, {n}), got {means.shape}"
        )
    if means.shape[0] < 2:
        raise InsufficientDataError(
            "need at least 2 monthly mean vectors to estimate their covariance"
        )
    if q.shape != (k,) or omega.shape != (k, k):
        raise DimensionError("q/Omega shape does not match the view count")

    mu_hat = means.mean(axis=0)
    var_mu = np.cov(means, rowvar=False, ddof=1).reshape(n, n)

    q_star = p_star @ mu_hat
    q_star[:k] = q
    omega_star = symmetrize(p_star @ var_mu @ p_star.T)
    omega_star[:k, :k] = omega

    w = np.linalg.eigvalsh(omega_star)
    floor = 1e-10 * w[-1]
    if w[0] < floor:
        shift = floor - w[0]
        log.warning(
            "Omega* not SPD after overwriting the view block; shifting diagonal by %.3e",
            shift,
        )
        omega_star = omega_star + shift * np.eye(n)
        w = np.linalg.eigvalsh(omega_star)
        if w[0] <= 0:
            raise HyperparamError("Omega* could not be repaired to SPD")
    return q_star, omega_star
