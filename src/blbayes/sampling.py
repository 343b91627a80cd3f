"""Reproducible random variates for the Gibbs and MH samplers.

Streams are keyed by ``(seed, stream_id)``: the same pair always replays the
same sequence, and distinct stream ids give statistically independent
sequences, so parallel tasks each own one stream (stream_id = task index).

The Inverse Wishart is parameterized by the density exponent
``det(X)^-(nu+n+1)/2 * exp(-tr(scale @ X^-1)/2)`` — i.e. ``nu`` is the
degrees of freedom that appears in the conjugate covariance posterior, and
``E[X] = scale / (nu - n - 1)`` when ``nu > n + 1``. Conventions for this
family vary between texts; this one is pinned here on purpose. A draw comes
with its inverse, both from the one Bartlett factor, so no sampler inverts a
drawn covariance. Every kernel here is numpy-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegreesOfFreedomError,
    DimensionError,
    NotPositiveDefiniteError,
    ParameterError,
)
from .linalg import spd_cholesky, symmetrize, warn_condition


def fits_seed(value: int) -> bool:
    """Whether ``value`` lies in the 64-bit unsigned range that seeds and
    stream ids take."""
    return 0 <= value < 2**64


@dataclass
class RngStream:
    """A named, replayable random stream."""

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not fits_seed(int(self.seed)):
            raise ParameterError("seed must fit in 64 unsigned bits")
        if not fits_seed(int(self.stream_id)):
            raise ParameterError("stream_id must fit in 64 unsigned bits")
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def sample_mvn(mean, cov, rng: RngStream) -> np.ndarray:
    """One draw from N(mean, cov) via the Cholesky factor of ``cov``."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or mean.shape != (cov.shape[0],):
        raise DimensionError(
            f"sample_mvn: mean {mean.shape} does not match cov {cov.shape}"
        )
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("sample_mvn: covariance is not SPD") from exc
    z = rng.generator.standard_normal(mean.size)
    return mean + chol @ z


def sample_mvn_precision(shift, precision, rng: RngStream) -> np.ndarray:
    """One draw from N(P^-1 shift, P^-1) for SPD precision ``P``, from one
    Cholesky factor ``P = L L'``: ``x = L'^-1 (L^-1 shift + z)``.

    Takes as many standard normals from ``rng`` as :func:`sample_mvn` of the
    same dimension. The factor logs the condition warning of
    :func:`~blbayes.linalg.spd_cholesky`.
    """
    shift = np.asarray(shift, dtype=float)
    precision = np.asarray(precision, dtype=float)
    if (precision.ndim != 2 or precision.shape[0] != precision.shape[1]
            or shift.shape != (precision.shape[0],)):
        raise DimensionError(
            f"sample_mvn_precision: shift {shift.shape} does not match "
            f"precision {precision.shape}"
        )
    chol = spd_cholesky(precision, "sample_mvn_precision precision")
    z = rng.generator.standard_normal(shift.size)
    return np.linalg.solve(chol.T, np.linalg.solve(chol, shift) + z)


@functools.cache
def _strict_lower_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(n, k=-1)


def _bartlett_factor(dof: float, n: int, rng: RngStream) -> np.ndarray:
    """Lower-triangular Bartlett factor: chi on the diagonal, normals below.

    Draw order is fixed (the n chi-squares with dof, dof-1, ... first, then
    the strictly-lower block row-major) so a stream replays identically.
    The chi-squares are scalar calls: one ``chisquare(dof - arange(n))``
    draws the same stream but validates its parameter array at about twice
    the cost of the loop at n = 4.
    """
    gen = rng.generator
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = math.sqrt(gen.chisquare(dof - i))
    rows, cols = _strict_lower_indices(n)
    a[rows, cols] = gen.standard_normal(rows.size)
    return a


def sample_inverse_wishart(dof: float, scale,
                           rng: RngStream) -> tuple[np.ndarray, np.ndarray, float]:
    """One draw ``Sigma`` from the Inverse Wishart with the density pinned
    above, returned with its inverse and log det:
    ``(Sigma, Sigma^-1, log det Sigma)``.

    ``Sigma^-1`` is a Wishart(dof, scale^-1) Bartlett draw. With
    ``scale = L L'`` and Bartlett factor ``A``, ``Sigma = M'M`` for
    ``M = A^-1 L'`` and ``Sigma^-1 = N N'`` for ``N = L^-T A``; neither
    ``scale^-1`` nor an inverse of the draw is formed, and
    ``log det Sigma = 2 sum log(diag L / diag A)``. Logs the condition
    warning of :func:`~blbayes.linalg.warn_condition` for the draw, estimated
    as ``max diag Sigma * max diag Sigma^-1`` (a lower bound on its 2-norm
    condition number).
    """
    scale = np.asarray(scale, dtype=float)
    n = scale.shape[0]
    if dof <= n - 1:
        raise DegreesOfFreedomError(
            f"Inverse Wishart needs dof > n-1 = {n - 1}, got {dof}"
        )
    try:
        chol = np.linalg.cholesky(scale)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("sample_inverse_wishart: scale is not SPD") from exc
    a = _bartlett_factor(dof, n, rng)
    m_factor = np.linalg.solve(a, chol.T)
    n_factor = np.linalg.solve(chol.T, a)
    sigma = symmetrize(m_factor.T @ m_factor)
    sigma_inv = symmetrize(n_factor @ n_factor.T)
    warn_condition("Sigma draw",
                   max(sigma.diagonal().tolist()) * max(sigma_inv.diagonal().tolist()))
    # Python floats: numpy's log and sum of an n-vector cost more than the
    # n scalar logs at the sizes the chains use
    log_det = 2.0 * sum(map(math.log, (chol.diagonal() / a.diagonal()).tolist()))
    return sigma, sigma_inv, log_det


def sample_inverse_gamma(shape: float, scale_param: float, rng: RngStream) -> float:
    """One draw with density proportional to ``x^-(shape+1) * exp(-scale/x)``.

    Mean is ``scale / (shape - 1)`` for ``shape > 1``.
    """
    if shape <= 0 or scale_param <= 0:
        raise ParameterError(
            f"inverse gamma needs positive parameters, got ({shape}, {scale_param})"
        )
    g = rng.generator.gamma(shape, 1.0)
    return float(scale_param / g)
