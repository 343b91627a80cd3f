"""Portfolio weights, test-window profits, view distances, and the
confidence-sensitivity sweep.

The sweep evaluates one model over a grid of view-uncertainty pairs
(omega1, omega2). Every grid point is an independent task with its own
deterministic random stream, keyed by (base_seed, grid index), so the output
CSV is byte-identical no matter how many workers run it or in what order
tasks finish.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import ReturnPanel, monthly_means
from .diagnostics import PosteriorSummary
from .errors import BlBayesError, DimensionError, InsufficientDataError, ValidationError
from .inverse_wishart import IwConfig, gibbs_augmented, gibbs_nonsquare
from .log_sigma import LogSigmaConfig, gibbs_log_sigma
from .original_bl import EquilibriumInputs, bl_posterior, equilibrium_returns, optimal_weights
from .views import ViewSet

log = logging.getLogger(__name__)

MODELS = ("original", "iw_augmented", "iw_nonsquare", "log_sigma")


def view_distance(p, mu_post, q) -> float:
    """Euclidean norm of ``P mu_post - q``."""
    p = np.asarray(p, dtype=float)
    mu_post = np.asarray(mu_post, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (q.size, mu_post.size):
        raise DimensionError("view_distance: P/mu/q dimensions do not agree")
    return float(np.linalg.norm(p @ mu_post - q))


def backtest_profit(weights, test_returns, capital: float):
    """Profit of fixed dollar positions held over the test window.

    Position i is ``capital * w_i`` (shorts allowed, no margin or costs);
    profit is the sum of position times cumulative simple return. Returns
    ``(profit, daily_curve)`` where the curve is the cumulative profit after
    each test day.
    """
    weights = np.asarray(weights, dtype=float)
    rets = np.asarray(test_returns, dtype=float)
    if rets.ndim != 2 or rets.shape[0] == 0:
        raise InsufficientDataError("backtest needs a non-empty test window")
    if rets.shape[1] != weights.size:
        raise DimensionError("weights length does not match the test panel")
    positions = capital * weights
    growth = np.cumprod(1.0 + rets, axis=0)
    curve = (growth - 1.0) @ positions
    return float(curve[-1]), [float(x) for x in curve]


@dataclass(frozen=True)
class ModelSettings:
    """Everything a model run needs besides the data and the views."""

    iters: int = 10_000
    burn: int = 1_000
    risk_aversion: float = 2.5
    tau: float = 0.05
    capital: float = 100_000.0
    w_eq: np.ndarray | None = None      # original model only
    nu: float | None = None             # None -> n + 2
    sigma0: np.ndarray | None = None    # None -> (nu-n-1) * historical covariance
    allow_small_omega: bool = False


@dataclass(frozen=True)
class ModelResult:
    """Posterior point estimates plus the derived backtest quantities."""

    model: str
    mu_post: np.ndarray
    sigma_post: np.ndarray
    weights: np.ndarray
    distance: float
    summary: PosteriorSummary | None
    profit: float | None = None
    daily_curve: list[float] | None = None


def historical_covariance(panel: ReturnPanel) -> np.ndarray:
    hist = panel.historical
    if hist.shape[0] < 2:
        raise InsufficientDataError("need at least 2 historical rows for a covariance")
    return np.cov(hist, rowvar=False, ddof=1).reshape(len(panel.tickers), -1)


def run_model(model: str, panel: ReturnPanel, views: ViewSet,
              settings: ModelSettings, seed: int, stream_id: int = 0,
              trace_path=None, compute_profit: bool = True) -> ModelResult:
    """Run one model end to end: posterior, weights, view distance, and
    (optionally) the test-window profit."""
    if model not in MODELS:
        raise ValidationError("model", f"unknown model {model!r}; choose from {MODELS}")
    n = len(panel.tickers)
    if views.n != n:
        raise DimensionError("views and panel disagree on the number of assets")
    hist_cov = historical_covariance(panel)

    summary = None
    if model == "original":
        if settings.w_eq is None:
            raise ValidationError("w_eq", "the original model needs equilibrium weights")
        inputs = EquilibriumInputs(
            risk_aversion=settings.risk_aversion,
            w_eq=np.asarray(settings.w_eq, dtype=float),
            sigma=hist_cov,
            tau=settings.tau,
        )
        post = bl_posterior(equilibrium_returns(inputs), settings.tau, hist_cov, views)
        mu_post, sigma_post = post.mu_bar, post.sigma_bar
    else:
        if model == "log_sigma":
            cfg = LogSigmaConfig(iters=settings.iters, burn=settings.burn,
                                 seed=seed, stream_id=stream_id)
            summary = gibbs_log_sigma(panel.current, views, cfg, trace_path=trace_path)
        else:
            cfg = IwConfig.default_for(hist_cov, iters=settings.iters,
                                       burn=settings.burn, seed=seed, nu=settings.nu,
                                       sigma0=settings.sigma0, stream_id=stream_id,
                                       allow_small_omega=settings.allow_small_omega)
            if model == "iw_augmented":
                months = monthly_means(panel.historical, panel.m)
                summary = gibbs_augmented(panel.current, views, months, cfg,
                                          trace_path=trace_path)
            else:
                summary = gibbs_nonsquare(panel.current, views, cfg,
                                          trace_path=trace_path)
        mu_post, sigma_post = summary.mu_post, summary.sigma_post

    weights = optimal_weights(mu_post, sigma_post, settings.risk_aversion)
    distance = view_distance(views.p, mu_post, views.q)
    profit = curve = None
    if compute_profit:
        profit, curve = backtest_profit(weights, panel.test, settings.capital)
    return ModelResult(
        model=model, mu_post=mu_post, sigma_post=sigma_post, weights=weights,
        distance=distance, summary=summary, profit=profit, daily_curve=curve,
    )


# ---------------------------------------------------------------------------
# The (omega1, omega2) sensitivity sweep.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """Grid of view-uncertainty pairs for one model. Requires exactly two
    views (omega1 drives the first, omega2 the second)."""

    omega1_values: tuple[float, ...]
    omega2_values: tuple[float, ...]
    model: str
    base_seed: int

    def __post_init__(self):
        o1 = tuple(sorted(float(v) for v in self.omega1_values))
        o2 = tuple(sorted(float(v) for v in self.omega2_values))
        object.__setattr__(self, "omega1_values", o1)
        object.__setattr__(self, "omega2_values", o2)
        if not o1 or not o2:
            raise ValidationError("grid", "omega value lists must be non-empty")
        if any(v <= 0 for v in o1 + o2):
            raise ValidationError("grid", "omega values must be positive")
        if self.model not in MODELS:
            raise ValidationError("grid.model", f"unknown model {self.model!r}")

    def points(self):
        """(index, omega1, omega2) in row-major sorted order."""
        idx = 0
        for w1 in self.omega1_values:
            for w2 in self.omega2_values:
                yield idx, w1, w2
                idx += 1


@dataclass(frozen=True)
class SweepRecord:
    """One grid point's outputs; ``status`` is 'ok' or 'error:<Type>' and
    ``seed`` is the sweep's base seed (the point's stream id is its row)."""

    omega1: float
    omega2: float
    distance: float
    profit: float
    status: str
    acceptance_rate: float
    seed: int


def _sweep_point(args) -> tuple[int, SweepRecord]:
    index, w1, w2, panel, views, settings, model, seed = args
    point_views = views.with_omega([w1, w2])
    try:
        res = run_model(model, panel, point_views, settings, seed=seed, stream_id=index)
        accept = res.summary.acceptance_rate if res.summary is not None else 1.0
        rec = SweepRecord(
            omega1=w1, omega2=w2, distance=res.distance, profit=res.profit,
            status="ok", acceptance_rate=accept, seed=seed,
        )
    except (BlBayesError, np.linalg.LinAlgError) as exc:
        log.warning("sweep point (%g, %g) failed: %s", w1, w2, exc)
        rec = SweepRecord(
            omega1=w1, omega2=w2, distance=float("nan"), profit=float("nan"),
            status=f"error:{type(exc).__name__}", acceptance_rate=float("nan"),
            seed=seed,
        )
    return index, rec


def run_sweep(grid: SweepGrid, panel: ReturnPanel, views: ViewSet,
              settings: ModelSettings, workers: int = 1) -> list[SweepRecord]:
    """Evaluate the model at every grid point.

    Point ``index`` runs on the stream ``(base_seed, index)``, so no two
    points of any sweeps share a stream; records come back in grid order
    regardless of scheduling, and individual failures are recorded in-row
    rather than aborting the sweep.
    """
    if views.k != 2:
        raise ValidationError("views", "the omega sweep needs exactly 2 views")
    tasks = [
        (index, w1, w2, panel, views, settings, grid.model, grid.base_seed)
        for index, w1, w2 in grid.points()
    ]
    results: dict[int, SweepRecord] = {}
    if workers <= 1:
        for task in tasks:
            index, rec = _sweep_point(task)
            results[index] = rec
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, rec in pool.map(_sweep_point, tasks):
                results[index] = rec
    return [results[i] for i in sorted(results)]


SWEEP_CSV_COLUMNS = ("omega1", "omega2", "distance", "profit", "status",
                     "acceptance_rate", "seed")


def write_sweep_csv(records, path) -> None:
    """Plot-ready CSV, one row per grid point, floats at 17 significant
    digits for bit-stable output."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_CSV_COLUMNS)
        for r in records:
            w.writerow([
                format(r.omega1, ".17g"),
                format(r.omega2, ".17g"),
                format(r.distance, ".17g"),
                format(r.profit, ".17g"),
                r.status,
                format(r.acceptance_rate, ".17g"),
                str(r.seed),
            ])
