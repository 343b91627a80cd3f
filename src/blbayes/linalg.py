"""Dense symmetric-matrix kernels shared by every model.

All matrices are plain ``float64`` ndarrays. Symmetry and positive
definiteness are enforced by the validators below rather than by wrapper
classes; operations that promise a symmetric result build it explicitly so
``A == A.T`` holds bit-exactly.

The half-vectorization ``vec_star`` stacks the main diagonal first, then each
super-diagonal left to right. That ordering is a frozen contract: the
structural matrices of the log-covariance model index into it.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, NumericalError

log = logging.getLogger(__name__)

# Relative eigenvalue floor below which a matrix is treated as singular.
SPD_EIG_FLOOR = 1e-12
# Condition numbers above this get logged (tiny view uncertainties create
# deliberately ill-conditioned systems; we want a record, not a failure).
COND_WARN = 1e10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square 2-D, got shape {a.shape}")
    return a


def symmetrize(a) -> np.ndarray:
    """Return 0.5*(A + A.T), of each matrix of a stack ``(..., n, n)``;
    output is exactly symmetric."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"matrix must be square in its last two axes, got shape {a.shape}")
    return 0.5 * (a + a.swapaxes(-1, -2))


def require_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate symmetry to 1e-12 relative to the largest entry and return
    an exactly symmetric copy."""
    a = as_matrix(a, name)
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > 1e-12 * scale:
        raise DimensionError(f"{name} is not symmetric")
    return symmetrize(a)


def _require_positive_spectrum(w, name: str) -> None:
    if w[0] <= SPD_EIG_FLOOR * max(w[-1], 0.0) or w[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite: eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}]"
        )


def require_spd(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is symmetric positive definite.

    Rejects matrices with a non-finite entry, before the symmetry test reads
    them, and matrices whose smallest eigenvalue is at or below
    ``SPD_EIG_FLOOR`` times the largest, so near-singular inputs fail loudly
    instead of silently poisoning a factorization downstream.
    """
    a = as_matrix(a, name)
    if not np.isfinite(a).all():
        raise NotPositiveDefiniteError(f"{name} has a non-finite entry")
    a = require_symmetric(a, name)
    _require_positive_spectrum(np.linalg.eigvalsh(a), name)
    return a


def spd_eigh(a, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric matrix, whose
    spectrum is validated as :func:`require_spd` does but from this one
    decomposition. Symmetry is not checked: ``eigh`` reads one triangle, so
    ``a`` must be symmetric by construction or checked by the caller."""
    w, v = np.linalg.eigh(a)
    _require_positive_spectrum(w, name)
    return w, v


def spd_cholesky(a, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of SPD ``a``, or of each matrix of a stack
    ``(G, n, n)``.

    Logs a warning for each matrix whose ``(max diag L / min diag L)^2``, a
    lower bound on its 2-norm condition number, exceeds ``COND_WARN``;
    raises :class:`NumericalError` with the eigenvalue range (over the whole
    stack) if a factorization fails.
    """
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        w = np.linalg.eigvalsh(symmetrize(a))
        raise NumericalError(
            f"{name}: Cholesky failed; eigenvalue range [{w.min():.3e}, {w.max():.3e}]"
        ) from exc
    diagonals = c.diagonal(0, -2, -1)
    if c.ndim == 2:
        # Python floats: numpy reductions of an n-vector cost about as much
        # as the factorization itself at the sizes the chains use
        d = diagonals.tolist()
        warn_condition(name, (max(d) / min(d)) ** 2)
    else:  # a stack: one expression over it, a call only per warning
        conds = (diagonals.max(-1) / diagonals.min(-1)) ** 2
        for cond in conds[conds > COND_WARN].tolist():
            warn_condition(name, cond)
    return c


def warn_condition(name: str, cond: float) -> None:
    """Log the shared condition warning when ``cond``, the 2-norm condition
    number or a lower bound on it, exceeds ``COND_WARN``."""
    if cond > COND_WARN:
        log.warning("%s: condition number >= %.3e exceeds %.0e", name, cond, COND_WARN)


def centred_scatter(rows) -> tuple[np.ndarray, np.ndarray]:
    """Mean ``rbar`` of the rows ``r_i`` of an ``(m, n)`` array and their
    centred scatter ``sum_i (r_i - rbar)(r_i - rbar)'``, exactly symmetric."""
    rows = np.asarray(rows, dtype=float)
    rbar = rows.mean(axis=0)
    resid = rows - rbar
    return rbar, symmetrize(resid.T @ resid)


def scatter_about(centred, rbar, mu, weight: float) -> np.ndarray:
    """``centred + weight (rbar - mu)(rbar - mu)'``, for one ``mu`` or a stack
    ``(G, n)`` of them. With ``weight = m`` and the :func:`centred_scatter` of
    m rows this is their scatter ``sum_i (r_i - mu)(r_i - mu)'``, made without
    the rows; it is exactly symmetric when ``centred`` is."""
    dev = rbar - mu
    return centred + weight * (dev[..., :, None] * dev[..., None, :])


def spd_solve(a, b, name: str = "system"):
    """Solve ``a @ x = b`` for SPD ``a`` through its Cholesky factor (see
    :func:`spd_cholesky` for the condition warning and the failure report)."""
    c = spd_cholesky(np.asarray(a, dtype=float), name)
    y = np.linalg.solve(c, np.asarray(b, dtype=float))
    return np.linalg.solve(c.T, y)


def spd_inverse(a, name: str = "matrix") -> np.ndarray:
    """Symmetric inverse ``C^-T C^-1`` of an SPD matrix ``a = C C'``, from one
    inversion of its Cholesky factor (see :func:`spd_cholesky` for the
    condition warning and the failure report)."""
    c_inv = np.linalg.inv(spd_cholesky(np.asarray(a, dtype=float), name))
    return symmetrize(c_inv.T @ c_inv)


# ---------------------------------------------------------------------------
# Half-vectorization: diagonal-first stacking of a symmetric matrix.
# ---------------------------------------------------------------------------

def vec_star_dim(n: int) -> int:
    return n * (n + 1) // 2


@functools.cache
def vec_star_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index arrays of the stacking order.

    Position ``p`` of the stacked vector holds entry ``(rows[p], cols[p])``:
    the main diagonal first, then the first super-diagonal, and so on up to
    the single corner entry ``(0, n-1)``.
    """
    rows = np.concatenate([np.arange(n - off) for off in range(n)])
    cols = np.concatenate([np.arange(off, n) for off in range(n)])
    return rows, cols


def vec_star(a) -> np.ndarray:
    """Stack a symmetric matrix into a length ``n(n+1)/2`` vector.

    ``[[a, b], [b, c]]`` maps to ``[a, c, b]``.
    """
    a = require_symmetric(a)
    rows, cols = vec_star_indices(a.shape[0])
    return a[rows, cols].copy()


def source_dim_of(d: int) -> int:
    """Matrix dimension ``n`` with ``n(n+1)/2 == d``."""
    n = int((np.sqrt(8 * d + 1) - 1) / 2 + 0.5)
    if vec_star_dim(n) != d:
        raise DimensionError(f"length {d} is not of the form n(n+1)/2")
    return n


def vec_star_inverse(v) -> np.ndarray:
    """Rebuild the symmetric matrix whose stacking is ``v`` (exact inverse
    of :func:`vec_star`)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    n = source_dim_of(v.size)
    rows, cols = vec_star_indices(n)
    a = np.zeros((n, n))
    a[rows, cols] = v
    a[cols, rows] = v
    return a


def vec_star_bilinear(a, b) -> np.ndarray:
    """Stack the bilinear forms of the row pairs of ``a`` and ``b``, both
    ``(P, n)``, so that for every symmetric ``A`` and every row ``p``::

        vec_star(A) @ vec_star_bilinear(a, b)[p] == a[p] @ A @ b[p]

    Diagonal slots take ``a[p, k] b[p, k]``; the slot for ``(k, l)`` with
    ``k < l`` takes ``a[p, k] b[p, l] + a[p, l] b[p, k]`` (the two
    occurrences of ``A[k, l]``). Returns shape ``(P, n(n+1)/2)``.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionError(f"row stacks must be 2-D of one shape, got {a.shape} and {b.shape}")
    n = a.shape[1]
    rows, cols = vec_star_indices(n)
    out = a[:, rows] * b[:, cols]
    out[:, n:] += a[:, cols[n:]] * b[:, rows[n:]]
    return out


# ---------------------------------------------------------------------------
# Matrix log through the symmetric eigendecomposition.
# ---------------------------------------------------------------------------


def matrix_log_spd(a) -> np.ndarray:
    """Matrix logarithm of an SPD matrix.

    Uses the spectral decomposition, so eigenvalues of the result are the
    logs of the input's eigenvalues. Raises
    :class:`NotPositiveDefiniteError` for non-SPD input.
    """
    w, v = spd_eigh(require_symmetric(a, "matrix_log_spd input"), "matrix_log_spd input")
    return symmetrize((v * np.log(w)) @ v.T)
