"""A fixed reference computation that measures how fast the machine is now.

The machines this benchmark runs on are shared: the same request can take
20-30% longer from one minute to the next, and longer still half an hour
later, because of other tenants. Wall-clock medians then drift between runs
by more than any useful regression bound.

Within a run the machine also switches between fast and slow spells that
last seconds (on a 2-vCPU machine the kernel took about 13 ms in one and 24
ms in the other). The benchmark therefore times this kernel after every
request and scales that request's time by ``NOMINAL_S / kernel time`` (a
sweep over worker processes, and set-up time, by the median kernel time of
the run). The result reads as seconds on the machine running at the speed
where the kernel takes ``NOMINAL_S``. The kernel is frozen here and imports
nothing from the engine, so no change to the engine can move it. It copies
the engine's kind of work, small dense numpy linear algebra driven from
Python: an Inverse-Wishart/normal Gibbs sweep at n=4 and a Volterra-style
precision build at n=10 (d=55). The closer its instruction mix is to the
requests', the better it tracks their slowdowns.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine the first baseline was recorded on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6); only sets the unit of the scaled
# timings.
NOMINAL_S = 0.0175

_N_GIBBS, _M_GIBBS, _ITERS = 4, 21, 150
_N_QUAD, _M_QUAD, _QUAD_REPS = 10, 30, 4


def _gibbs(rng: np.random.Generator) -> float:
    n, m = _N_GIBBS, _M_GIBBS
    returns = 0.01 * rng.standard_normal((m, n))
    scale0 = 1e-4 * (np.eye(n) + 0.4)
    rbar = returns.mean(axis=0)
    mu = rbar.copy()
    lower = np.tril_indices(n, k=-1)
    total = 0.0
    for _ in range(_ITERS):
        resid = returns - mu
        scale = scale0 + resid.T @ resid
        chol = np.linalg.cholesky(scale)
        bartlett = np.zeros((n, n))
        for i in range(n):
            bartlett[i, i] = np.sqrt(rng.chisquare(n + 2 + m - i))
        bartlett[lower] = rng.standard_normal(len(lower[0]))
        mt = np.linalg.solve(bartlett, chol.T)
        sigma = mt.T @ mt
        sigma_inv = np.linalg.inv(0.5 * (sigma + sigma.T))
        np.linalg.eigvalsh(sigma_inv)
        prec = m * sigma_inv + np.eye(n)
        cov = np.linalg.inv(prec)
        mean = cov @ (m * sigma_inv @ rbar)
        mu = mean + np.linalg.cholesky(0.5 * (cov + cov.T)) @ rng.standard_normal(n)
        total += float(mu.sum())
    return total


def _quadratic(rng: np.random.Generator) -> float:
    n, m = _N_QUAD, _M_QUAD
    a = rng.standard_normal((m, n))
    evals, evecs = np.linalg.eigh(a.T @ a / m)
    rows = np.concatenate([np.arange(n - off) for off in range(n)])
    cols = np.concatenate([np.arange(off, n) for off in range(n)])
    stack, weights = [], []
    for i in range(n):
        for j in range(i, n):
            outer = np.outer(evecs[:, i], evecs[:, j])
            f = outer[rows, cols] + outer[cols, rows]
            f[:n] *= 0.5
            stack.append(f)
            weights.append(m / 2.0 if i == j else m * evals[i] / evals[j])
    stack = np.array(stack)
    q = (stack * np.asarray(weights)[:, None]).T @ stack
    chol = np.linalg.cholesky(q + np.eye(q.shape[0]))
    return float(np.log(np.diag(chol)).sum())


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    rng = np.random.default_rng(20180101)
    t0 = time.perf_counter()
    _gibbs(rng)
    for _ in range(_QUAD_REPS):
        _quadratic(rng)
    return time.perf_counter() - t0
