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
    """Return 0.5*(A + A.T); output is exactly symmetric."""
    a = as_matrix(a)
    return 0.5 * (a + a.T)


def require_symmetric(a, name: str = "matrix", tol: float = 1e-12) -> np.ndarray:
    """Validate symmetry (relative to the largest entry) and return an
    exactly symmetric copy."""
    a = as_matrix(a, name)
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > tol * scale:
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

    Rejects matrices whose smallest eigenvalue is at or below
    ``SPD_EIG_FLOOR`` times the largest, so near-singular inputs fail loudly
    instead of silently poisoning a factorization downstream.
    """
    a = require_symmetric(a, name)
    _require_positive_spectrum(np.linalg.eigvalsh(a), name)
    return a


def spd_eigh(a, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of an SPD matrix, validated
    as :func:`require_spd` does but from this one decomposition."""
    a = require_symmetric(a, name)
    w, v = np.linalg.eigh(a)
    _require_positive_spectrum(w, name)
    return w, v


def spd_cholesky(a, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of SPD ``a``.

    Logs a warning when ``(max diag L / min diag L)^2``, a lower bound on the
    2-norm condition number of ``a``, exceeds ``COND_WARN``; raises
    :class:`NumericalError` with the eigenvalue range if the factorization
    fails.
    """
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        w = np.linalg.eigvalsh(symmetrize(a))
        raise NumericalError(
            f"{name}: Cholesky failed; eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]"
        ) from exc
    # Python floats: numpy reductions of an n-vector cost about as much as
    # the factorization itself at the sizes the chains use
    d = c.diagonal().tolist()
    warn_condition(name, (max(d) / min(d)) ** 2)
    return c


def warn_condition(name: str, cond: float) -> None:
    """Log the shared condition warning when ``cond``, the 2-norm condition
    number or a lower bound on it, exceeds ``COND_WARN``."""
    if cond > COND_WARN:
        log.warning("%s: condition number >= %.3e exceeds %.0e", name, cond, COND_WARN)


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


@functools.cache
def _bilinear_gather(n: int) -> np.ndarray:
    """Flat row-major positions in an ``n x n`` matrix of the stacking
    order's entries ``(rows[p], cols[p])``, followed by their transposes
    ``(cols[p], rows[p])``."""
    rows, cols = vec_star_indices(n)
    return np.concatenate([rows * n + cols, cols * n + rows])


def vec_star_bilinear(m) -> np.ndarray:
    """Stack an arbitrary square matrix so that for every symmetric ``A``::

        vec_star(A) @ vec_star_bilinear(M) == sum(A * M)

    Diagonal slots take ``M[k, k]``; the slot for ``(k, l)`` with ``k < l``
    takes ``M[k, l] + M[l, k]`` (the two occurrences of ``A[k, l]``). A stack
    ``(..., n, n)`` is stacked over its last two axes.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"matrix must be square in its last two axes, got shape {m.shape}")
    n = m.shape[-1]
    d = vec_star_dim(n)
    both = m.reshape(m.shape[:-2] + (n * n,))[..., _bilinear_gather(n)]
    out = both[..., :d] + both[..., d:]
    out[..., :n] *= 0.5
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
    w, v = spd_eigh(a, "matrix_log_spd input")
    return symmetrize((v * np.log(w)) @ v.T)
