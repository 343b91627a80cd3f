import sys

import numpy as np
import pytest

from blbayes import demo
from blbayes.views import ViewSet


def random_spd(rng, n, jitter=0.1):
    """Well-conditioned random SPD matrix."""
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * n * np.eye(n)


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def far_views():
    """The demo views at q = (3e5, -1e5) and omega 1e-9: far from the data,
    they pull mu far from rbar, so the Inverse-Wishart models' Sigma
    estimate is ill-conditioned (cond about 1e15)."""
    v = demo.demo_views()
    return ViewSet(v.p, np.array([3e5, -1e5]), np.array([1e-9, 1e-9]))


def count_engine_calls(monkeypatch, owner, attr):
    """Count the calls of ``owner.<attr>``: replace it there and in every
    ``blbayes`` module that binds it by name, and return the call list."""
    original = getattr(owner, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "blbayes" or name.startswith("blbayes.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


def calls_per_iteration(run_chain, counters, iters=(20, 40)):
    """Calls per chain iteration of each counter in ``counters``.

    ``run_chain(iters)`` runs at two lengths and the counts are differenced,
    so calls made once per chain (set-up, summary) cancel.
    """
    totals = []
    for length in iters:
        for calls in counters:
            calls.clear()
        run_chain(length)
        totals.append([len(calls) for calls in counters])
    return [(b - a) / (iters[1] - iters[0]) for a, b in zip(*totals)]


@pytest.fixture(scope="session")
def demo_panel():
    return demo.demo_return_panel()


@pytest.fixture(scope="session")
def demo_views_factory():
    return demo.demo_views
