"""Bundled synthetic market data so every example and acceptance run works
offline.

The dataset is four fictional tickers on a weekday calendar from 2014-01-02
through 2018-01-31. Daily simple returns are i.i.d. draws from a fixed
multivariate normal (parameters below, seed pinned), compounded from the
listed starting prices. ``python -m blbayes.demo`` regenerates the files
shipped under ``blbayes/demo/``.
"""

from __future__ import annotations

import json
from datetime import date, timedelta
from importlib import resources
from pathlib import Path

import numpy as np

from .data import PricePanel, ReturnPanel, compute_returns
from .sampling import rng_stream
from .views import ViewSet

DEMO_SEED = 20140102
DEMO_TICKERS = ("AAA", "BBB", "CCC", "DDD")
DEMO_START = date(2014, 1, 2)
DEMO_END = date(2018, 1, 31)
DEMO_TEST_START = date(2018, 1, 1)
DEMO_M = 21
DEMO_START_PRICES = np.array([75.0, 310.0, 550.0, 38.0])
DEMO_DAILY_MEAN = np.array([5e-4, 8e-4, 4e-4, 6e-4])
_DEMO_VOLS = np.array([0.018, 0.022, 0.016, 0.015])
_DEMO_CORR = np.array([
    [1.00, 0.50, 0.40, 0.35],
    [0.50, 1.00, 0.45, 0.40],
    [0.40, 0.45, 1.00, 0.50],
    [0.35, 0.40, 0.50, 1.00],
])
DEMO_DAILY_COV = _DEMO_CORR * np.outer(_DEMO_VOLS, _DEMO_VOLS)

DEMO_VIEW_P = ((-1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, -1.0))
DEMO_VIEW_Q = (0.02, 0.05)


def demo_dates() -> list[date]:
    """All weekdays in the demo span (synthetic market: no holidays)."""
    out = []
    d = DEMO_START
    while d <= DEMO_END:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def demo_price_panel() -> PricePanel:
    """Deterministically regenerated price panel."""
    dates = demo_dates()
    gen = rng_stream(DEMO_SEED)
    chol = np.linalg.cholesky(DEMO_DAILY_COV)
    prices = np.empty((len(dates), len(DEMO_TICKERS)))
    prices[0] = DEMO_START_PRICES
    for t in range(1, len(dates)):
        r = DEMO_DAILY_MEAN + chol @ gen.standard_normal(len(DEMO_TICKERS))
        prices[t] = prices[t - 1] * (1.0 + r)
    return PricePanel(tickers=DEMO_TICKERS, dates=tuple(dates), prices=prices)


def demo_return_panel(m: int = DEMO_M, test_start: date = DEMO_TEST_START) -> ReturnPanel:
    return compute_returns(demo_price_panel(), m=m, test_start=test_start)


def demo_views(omega=(1e-4, 1e-4)) -> ViewSet:
    """The default two relative views used across the examples."""
    return ViewSet(p=np.array(DEMO_VIEW_P), q=np.array(DEMO_VIEW_Q),
                   omega_diag=np.asarray(omega, dtype=float))


def prices_csv_path() -> Path:
    """Path of the bundled CSV inside the installed package."""
    return Path(resources.files("blbayes").joinpath("demo", "prices.csv"))


def _run_config(model: str) -> dict:
    cfg = {
        "version": "1",
        "data": {
            "prices_csv": "prices.csv",
            "tickers": list(DEMO_TICKERS),
            "m": DEMO_M,
            "test_start": DEMO_TEST_START.isoformat(),
        },
        "model": model,
        "views": {
            "P": [list(row) for row in DEMO_VIEW_P],
            "q": list(DEMO_VIEW_Q),
            "omega": [1e-4, 1e-4],
        },
        "risk_aversion": 2.5,
        "tau": 0.05,
        "iters": 10000,
        "burn": 1000,
        "seed": 20180101,
        "capital": 100000.0,
        "backtest": True,
    }
    if model == "original":
        cfg["w_eq"] = [0.25, 0.25, 0.25, 0.25]
    return cfg


def write_demo_files(out_dir) -> list[Path]:
    """Write the demo CSV, one run config per model, and a small sweep grid."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    panel = demo_price_panel()
    csv_path = out_dir / "prices.csv"
    with open(csv_path, "w") as fh:
        fh.write("date," + ",".join(panel.tickers) + "\n")
        for d, row in zip(panel.dates, panel.prices):
            cells = ",".join(format(x, ".8f") for x in row)
            fh.write(f"{d.isoformat()},{cells}\n")
    written.append(csv_path)

    for model in ("original", "iw_augmented", "iw_nonsquare", "log_sigma"):
        path = out_dir / f"run_{model}.json"
        path.write_text(json.dumps(_run_config(model), indent=2) + "\n")
        written.append(path)

    grid = {
        "omega1": [1e-6, 1e-5, 1e-4],
        "omega2": [1e-6, 1e-5, 1e-4],
        "base_seed": 20180101,
    }
    grid_path = out_dir / "grid_small.json"
    grid_path.write_text(json.dumps(grid, indent=2) + "\n")
    written.append(grid_path)
    return written


if __name__ == "__main__":
    target = Path(__file__).parent / "demo"
    for p in write_demo_files(target):
        print(p)
