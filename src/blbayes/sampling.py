"""Reproducible random variates for the Gibbs and MH samplers.

Streams are keyed by ``(seed, stream_id)``: the same pair always replays the
same sequence, and distinct stream ids give statistically independent
sequences, so parallel tasks each own one stream (stream_id = task index).
:func:`rng_stream` returns a stream as a plain ``numpy.random.Generator``,
and every sampler here draws from one Generator, or from a list of G for a
batch; the Inverse-Wishart draw takes a Bartlett factor instead.

The Inverse Wishart is parameterized by the density exponent
``det(X)^-(nu+n+1)/2 * exp(-tr(scale @ X^-1)/2)`` — i.e. ``nu`` is the
degrees of freedom that appears in the conjugate covariance posterior, and
``E[X] = scale / (nu - n - 1)`` when ``nu > n + 1``. Conventions for this
family vary between texts; this one is pinned here on purpose. The Bartlett
factors depend on nothing but ``dof`` and ``n``, so a chain draws them ahead
of time, a block of many with two vectorised calls
(:func:`bartlett_factors`). A draw is returned as its inverse and log det,
from one such factor and one solve: the chains need only those, so the draw
itself is never formed. The multivariate normal is given by its precision,
the form in which every sampler's normal conditional arises, and is drawn
with that precision's one Cholesky factor and one solve. Both draws also
serve a batch of chains stacked along a leading axis, each chain's
variates from its own stream, and a chain's draw does not depend on the
batch it is drawn in. Every kernel here is numpy-only.
"""

from __future__ import annotations

import functools
import math

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


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """The replayable generator of the stream ``(seed, stream_id)``: PCG64
    seeded with ``SeedSequence(entropy=seed, spawn_key=(stream_id,))``."""
    for name, value in (("seed", seed), ("stream_id", stream_id)):
        if not fits_seed(int(value)):
            raise ParameterError(f"{name} must fit in 64 unsigned bits")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.PCG64(ss))


def sample_mvn(shift, *, precision, rng, name: str = "sample_mvn precision",
               cov_cholesky: bool = False) -> np.ndarray:
    """One draw from N(P^-1 shift, P^-1) for SPD precision ``P``, from one
    Cholesky factor ``P = L L'`` and one solve with ``P``:
    ``x = P^-1 (shift + L z)``, which is the canonical-form draw
    ``L'^-1 (L^-1 shift + z)`` as ``P^-1 L = L'^-1``.

    With ``cov_cholesky``, ``P`` is factored in reversed coordinate order,
    ``J P J = L L'`` with ``J`` the exchange matrix, and
    ``x = P^-1 (shift + J L J z)``. As ``P^-1 J L J = J L'^-1 J = chol(P^-1)``,
    this is the covariance-form draw ``P^-1 shift + chol(P^-1) z`` from the
    same normals, made without forming ``P^-1``.

    A batch of G chains passes ``shift`` as ``(G, n)``, ``precision`` as
    ``(G, n, n)`` and ``rng`` as G streams, and gets ``(G, n)`` back; chain
    g's draw is bit for bit the draw of its slices alone. ``precision`` is
    keyword-only, so a covariance passed by position is a ``TypeError``, not
    a draw from the wrong law. Takes n standard normals from each stream.
    The factor logs the condition warning of
    :func:`~blbayes.linalg.spd_cholesky` under ``name``, per chain.
    """
    shift = np.asarray(shift, dtype=float)
    precision = np.asarray(precision, dtype=float)
    if shift.ndim not in (1, 2) or precision.shape != shift.shape + shift.shape[-1:]:
        raise DimensionError(
            f"sample_mvn: shift {shift.shape} does not match precision {precision.shape}"
        )
    n = shift.shape[-1]
    if shift.ndim == 1:
        z = rng.standard_normal(n)
    elif len(rng) != len(shift):
        raise DimensionError(f"sample_mvn: {len(rng)} streams for {len(shift)} chains")
    else:
        z = np.array([r.standard_normal(n) for r in rng])
    order = slice(None, None, -1) if cov_cholesky else slice(None)
    noise_factor = spd_cholesky(precision[..., order, order], name)[..., order, order]
    # each right-hand side a column, so a stack of them is not read as one matrix
    rhs = shift[..., None] + noise_factor @ z[..., None]
    return np.linalg.solve(precision, rhs)[..., 0]


@functools.cache
def _strict_lower_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(n, k=-1)


def bartlett_factors(dof: float, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` lower-triangular Bartlett factors of Wishart(dof) draws, as a
    ``(count, n, n)`` stack: chi on the diagonal, with ``dof - i`` degrees of
    freedom in row i, and standard normals below it (Smith & Hocking 1972).

    Two calls draw the whole block: first the ``count * n`` chi-squares,
    factor by factor, then the ``count * n(n-1)/2`` normals, each factor's
    strict lower triangle row-major, so a stream replays identically. Needs
    ``dof > n - 1``.
    """
    if dof <= n - 1:
        raise DegreesOfFreedomError(
            f"Inverse Wishart needs dof > n-1 = {n - 1}, got {dof}"
        )
    factors = np.zeros((count, n, n))
    factors.reshape(count, n * n)[:, ::n + 1] = np.sqrt(
        rng.chisquare(dof - np.arange(n), size=(count, n)))
    rows, cols = _strict_lower_indices(n)
    factors[:, rows, cols] = rng.standard_normal((count, rows.size))
    return factors


def sample_inverse_wishart(scale, factor):
    """One draw ``Sigma`` from the Inverse Wishart with the density pinned
    above, given a Bartlett factor ``A`` of :func:`bartlett_factors` (whose
    ``dof`` it takes), returned as its inverse and log det:
    ``(Sigma^-1, log det Sigma)``. ``Sigma`` itself is never formed; a caller
    that needs it takes ``inv(Sigma^-1)``.

    ``Sigma^-1`` is the Wishart(dof, scale^-1) Bartlett draw. With
    ``scale = L L'``, ``Sigma^-1 = N N'`` for ``N = L^-T A``, one solve;
    neither ``scale^-1`` nor an inverse of the draw is formed, and
    ``log det Sigma = 2 sum log(diag L / diag A)``. Logs the condition
    warning of :func:`~blbayes.linalg.warn_condition` for the draw, estimated
    from Rayleigh quotients of ``Sigma^-1``, which all lie between its
    extreme eigenvalues. At ``x = e_i`` the quotient is ``(Sigma^-1)_ii``; at
    ``x = L e_i`` it is ``r_i = ||A_i,:||^2 / ||L_:,i||^2``, as
    ``N' L e_i = A' e_i``. So
    ``cond(Sigma) = cond(Sigma^-1) >= max(max diag Sigma^-1, max r) / min r``,
    the estimate, from the squared row norms of ``A`` and column norms of
    ``L``.

    A batch of G chains passes ``scale`` and ``factor`` as ``(G, n, n)``
    stacks, each chain's factor drawn from its own stream, and gets a
    ``(G, n, n)`` stack and a list of G log dets back; each chain's draw is
    bit for bit the draw of its slices alone. The condition warning is per
    chain.
    """
    scale = np.asarray(scale, dtype=float)
    batch = scale.ndim == 3
    if scale.ndim not in (2, 3) or factor.shape != scale.shape:
        raise DimensionError(
            f"sample_inverse_wishart: factor {factor.shape} does not match scale {scale.shape}"
        )
    try:
        chol = np.linalg.cholesky(scale)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("sample_inverse_wishart: scale is not SPD") from exc
    n_factor = np.linalg.solve(chol.swapaxes(-1, -2), factor)
    sigma_inv = symmetrize(n_factor @ n_factor.swapaxes(-1, -2))
    # Python floats: numpy's reductions, log and sum of an n-vector cost
    # more than the n scalar operations at the sizes the chains use
    diagonals = (sigma_inv.diagonal(0, -2, -1).tolist(),
                 ((factor * factor).sum(-1) / (chol * chol).sum(-2)).tolist(),
                 (chol.diagonal(0, -2, -1) / factor.diagonal(0, -2, -1)).tolist())
    log_det = []
    for d_inv, rayleigh, ratio in zip(*diagonals) if batch else [diagonals]:
        warn_condition("Sigma draw", max(max(d_inv), max(rayleigh)) / min(rayleigh))
        log_det.append(2.0 * sum(map(math.log, ratio)))
    return sigma_inv, log_det if batch else log_det[0]


def sample_inverse_gamma(shape: float, scale_param: float, rng: np.random.Generator) -> float:
    """One draw with density proportional to ``x^-(shape+1) * exp(-scale/x)``.

    Mean is ``scale / (shape - 1)`` for ``shape > 1``.
    """
    if shape <= 0 or scale_param <= 0:
        raise ParameterError(
            f"inverse gamma needs positive parameters, got ({shape}, {scale_param})"
        )
    g = rng.gamma(shape, 1.0)
    return float(scale_param / g)
