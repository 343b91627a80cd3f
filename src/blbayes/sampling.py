"""Reproducible random variates for the Gibbs and MH samplers.

Streams are keyed by ``(seed, stream_id)``: the same pair always replays the
same sequence, and distinct stream ids give statistically independent
sequences, so parallel tasks each own one stream (stream_id = task index).
:func:`rng_stream` returns a stream as a plain ``numpy.random.Generator``.
Only :func:`bartlett_factors`, :func:`sample_inverse_gamma` and the chains
touch a Generator: the multivariate normal takes its standard normals and
the Inverse-Wishart draw its Bartlett factor, so a chain can draw the
variates of many iterations with one call.

The Inverse Wishart is parameterized by the density exponent
``det(X)^-(nu+n+1)/2 * exp(-tr(scale @ X^-1)/2)`` — i.e. ``nu`` is the
degrees of freedom that appears in the conjugate covariance posterior, and
``E[X] = scale / (nu - n - 1)`` when ``nu > n + 1``. Conventions for this
family vary between texts; this one is pinned here on purpose. The Bartlett
factors depend on nothing but ``dof`` and ``n``, so a chain draws them ahead
of time, a block of many with two vectorised calls
(:func:`bartlett_factors`), and takes the half of each draw's log det that
a factor fixes once per block too (:func:`bartlett_log_dets`). The draw
takes its scale in whitened form, ``L (I + u u') L'`` with ``L`` fixed for
the chain, so the inverse square root of the scale has a closed form: a
draw is one such factor updated by a rank-one term, with no factorization
and no solve. It is returned as its whitened inverse, symmetric by
construction, and its log det: the chains need only those, so the draw
itself is never formed, and no condition of it is estimated. The
multivariate normal is given by its precision, the form in which every
sampler's normal conditional arises, and is drawn with that precision's one
Cholesky factor and one solve. Both draws also serve a batch of chains stacked along a leading
axis, each chain's variates from its own stream, and a chain's draw does
not depend on the batch it is drawn in. Every kernel here is numpy-only.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import (
    DegreesOfFreedomError,
    DimensionError,
    ParameterError,
)
from .linalg import spd_cholesky


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


def sample_mvn(shift, *, precision, z, name: str = "sample_mvn precision",
               cov_cholesky: bool = False) -> np.ndarray:
    """The draw from N(P^-1 shift, P^-1) for SPD precision ``P`` that the
    standard normals ``z`` give, from one Cholesky factor ``P = L L'`` and
    one solve with ``P``: ``x = P^-1 (shift + L z)``, which is the
    canonical-form draw ``L'^-1 (L^-1 shift + z)`` as ``P^-1 L = L'^-1``.

    With ``cov_cholesky``, ``P`` is factored in reversed coordinate order,
    ``J P J = L L'`` with ``J`` the exchange matrix, and
    ``x = P^-1 (shift + J L J z)``. As ``P^-1 J L J = J L'^-1 J = chol(P^-1)``,
    this is the covariance-form draw ``P^-1 shift + chol(P^-1) z`` from the
    same normals, made without forming ``P^-1``.

    A batch of G chains passes ``shift`` and ``z`` as ``(G, n)`` and
    ``precision`` as ``(G, n, n)``, and gets ``(G, n)`` back; chain g's draw
    is bit for bit the draw of its slices alone. ``precision`` is
    keyword-only, so a covariance passed by position is a ``TypeError``, not
    a draw from the wrong law. The factor logs the condition warning of
    :func:`~blbayes.linalg.spd_cholesky` under ``name``, per chain.
    """
    shift = np.asarray(shift, dtype=float)
    precision = np.asarray(precision, dtype=float)
    z = np.asarray(z, dtype=float)
    if shift.ndim not in (1, 2) or precision.shape != shift.shape + shift.shape[-1:]:
        raise DimensionError(
            f"sample_mvn: shift {shift.shape} does not match precision {precision.shape}"
        )
    if z.shape != shift.shape:
        raise DimensionError(f"sample_mvn: normals {z.shape} do not match shift {shift.shape}")
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


def bartlett_log_dets(factors):
    """``log det A A' = 2 sum log diag A`` of each Bartlett factor ``A`` of
    a stack ``(..., n, n)``, in Python floats, nested as the stack's leading
    axes (a float for one factor): the half of a draw's log det that
    depends on nothing but its factor, so a chain takes it once per block."""
    diagonals = np.asarray(factors).diagonal(0, -2, -1)
    log_dets = [2.0 * sum(map(math.log, d))
                for d in diagonals.reshape(-1, diagonals.shape[-1]).tolist()]
    return np.reshape(log_dets, diagonals.shape[:-1]).tolist()


def sample_inverse_wishart(u, factor, bartlett_log_det, log_det_lower):
    """One draw ``S`` from the Inverse Wishart with the density pinned above
    and the scale ``I + u u'``, given a Bartlett factor ``A`` of
    :func:`bartlett_factors` (whose ``dof`` it takes) and its
    ``log det A A'`` (:func:`bartlett_log_dets`): the whitened draw of
    ``Sigma = L S L'`` for a lower factor ``L`` whose ``2 log det L`` is the
    float ``log_det_lower``. Returns ``(S^-1, log det Sigma)``; neither ``S``
    nor ``Sigma`` is formed.

    With ``s = u'u``, ``r = sqrt(1 + s)`` and ``c = 1 / (r (r + 1))``,
    ``(I - c u u')^2 = (I + u u')^-1``, and this form of ``c`` does not
    cancel at small ``s``. So ``S^-1 = N N'`` for ``N = A - c u (u'A)``, the
    Wishart(dof, (I + u u')^-1) Bartlett draw, with no factorization and no
    solve, and ``log det Sigma = 2 log det L + log(1 + s) - log det A A'``.
    numpy makes ``N N'`` as one symmetric rank-k product, so ``S^-1`` is
    exactly symmetric as it stands.

    A batch of G chains passes ``u`` as ``(G, n)``, ``factor`` as a
    ``(G, n, n)`` stack, each chain's factor drawn from its own stream, and
    their G log dets as a list, and gets a ``(G, n, n)`` stack and a list of
    G log dets back; each chain's draw is bit for bit the draw of its slices
    alone.
    """
    u = np.asarray(u, dtype=float)
    batch = u.ndim == 2
    if u.ndim not in (1, 2) or factor.shape != u.shape + u.shape[-1:]:
        raise DimensionError(
            f"sample_inverse_wishart: factor {factor.shape} does not match u {u.shape}"
        )
    # Python floats: numpy's reductions and log1p of an n-vector cost more
    # than the n scalar operations at the sizes the chains use
    rows = u.tolist() if batch else [u.tolist()]
    s = [sum(map(operator.mul, row, row)) for row in rows]
    c = [1.0 / (r * (r + 1.0)) for r in (math.sqrt(1.0 + s_g) for s_g in s)]
    u_factor = u[..., None, :] @ factor
    c_u = np.array(c)[:, None] * u if batch else c[0] * u
    n_factor = factor - c_u[..., :, None] * u_factor
    sigma_inv = n_factor @ n_factor.swapaxes(-1, -2)
    log_det = [log_det_lower + math.log1p(s_g) - bartlett_g
               for s_g, bartlett_g in zip(s, bartlett_log_det if batch else [bartlett_log_det],
                                          strict=True)]
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
