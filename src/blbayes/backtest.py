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
import math
from dataclasses import dataclass

import numpy as np

from .data import ReturnPanel, monthly_means
from .diagnostics import PosteriorSummary
from .errors import BlBayesError, DimensionError, InsufficientDataError, ValidationError
from .inverse_wishart import IwConfig, gibbs_augmented, gibbs_nonsquare
from .log_sigma import LogSigmaConfig, gibbs_log_sigma
from .original_bl import EquilibriumInputs, bl_posterior, equilibrium_returns, optimal_weights
from .views import ViewSet, check_month_count

log = logging.getLogger(__name__)

MODELS = ("original", "iw_augmented", "iw_nonsquare", "log_sigma")
# the Inverse-Wishart models, whose points run as one lock-step batch of chains
IW_MODELS = ("iw_augmented", "iw_nonsquare")


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
    each test day. A profit too large for a float comes back infinite (or
    NaN), without a numpy warning; writing it out fails with its field.
    """
    weights = np.asarray(weights, dtype=float)
    rets = np.asarray(test_returns, dtype=float)
    if rets.ndim != 2 or rets.shape[0] == 0:
        raise InsufficientDataError("backtest needs a non-empty test window")
    if rets.shape[1] != weights.size:
        raise DimensionError("weights length does not match the test panel")
    with np.errstate(over="ignore", invalid="ignore"):
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

    def __post_init__(self):
        # written as "not > 0" so that NaN is rejected too
        if not self.risk_aversion > 0:
            raise ValidationError("risk_aversion", "must be > 0")
        if not self.tau > 0:
            raise ValidationError("tau", "must be > 0")


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


def check_history(model: str, panel: ReturnPanel, settings: ModelSettings, k: int) -> None:
    """Raise :class:`~blbayes.errors.InsufficientDataError` if the historical
    window is too short for ``model`` with k views: ``original`` and the
    default Sigma0 of the Inverse-Wishart models need two rows for the
    historical covariance, and ``iw_augmented`` needs the monthly means of
    :func:`~blbayes.views.check_month_count`. These rules depend on the
    prices, not on omega, so :func:`run_model` and :func:`run_sweep` each
    check them once, before any chain runs."""
    reads_covariance = model == "original" or (
        model in IW_MODELS and settings.sigma0 is None)
    if reads_covariance and len(panel.historical) < 2:
        raise InsufficientDataError("need at least 2 historical rows for a covariance")
    if model == "iw_augmented":
        # monthly_means takes the window's whole m-row blocks
        check_month_count(len(panel.historical) // panel.m, len(panel.tickers), k)


def historical_covariance(panel: ReturnPanel) -> np.ndarray:
    """The covariance of the historical window, of at least two rows
    (:func:`check_history`)."""
    return np.cov(panel.historical, rowvar=False, ddof=1).reshape(len(panel.tickers), -1)


def run_model(model: str, panel: ReturnPanel, views, settings: ModelSettings, seed: int,
              stream_id=0, compute_profit: bool = True):
    """Run one model end to end: posterior, weights, view distance, and
    (optionally) the test-window profit.

    ``views`` is one :class:`~blbayes.views.ViewSet` with ``stream_id`` one
    stream id, for one :class:`ModelResult`. Or ``views`` is a sequence of
    view sets, one per point, with ``stream_id`` a sequence of equal length,
    for a list of results in order. Each point runs on the stream ``(seed,
    stream id)`` under the one chain config of ``settings``: the
    Inverse-Wishart models run the points as one lock-step batch, the others
    one at a time. Each result is bit for bit that of its point run alone.
    Only ``original`` and the Inverse-Wishart models read the historical
    window (``iw_nonsquare`` only for its default Sigma0), after
    :func:`check_history`; for a sequence, with the fewest views of its
    points, which need the most monthly means.
    """
    if model not in MODELS:
        raise ValidationError("model", f"unknown model {model!r}; choose from {MODELS}")
    single = isinstance(views, ViewSet)
    points = [views] if single else list(views)
    stream_ids = [stream_id] if single else list(stream_id)
    if len(points) != len(stream_ids):
        raise DimensionError(f"{len(points)} view sets for {len(stream_ids)} stream ids")
    n = len(panel.tickers)
    if any(v.n != n for v in points):
        raise DimensionError("views and panel disagree on the number of assets")
    check_history(model, panel, settings, min(v.k for v in points))

    summaries = [None] * len(points)
    if model == "original":
        if settings.w_eq is None:
            raise ValidationError("w_eq", "the original model needs equilibrium weights")
        hist_cov = historical_covariance(panel)
        inputs = EquilibriumInputs(
            risk_aversion=settings.risk_aversion,
            w_eq=np.asarray(settings.w_eq, dtype=float),
            sigma=hist_cov,
            tau=settings.tau,
        )
        pi = equilibrium_returns(inputs)
        posts = [bl_posterior(pi, settings.tau, hist_cov, v) for v in points]
        estimates = [(post.mu_bar, post.sigma_bar) for post in posts]
    else:
        if model == "log_sigma":
            cfg = LogSigmaConfig(iters=settings.iters, burn=settings.burn, seed=seed)
            summaries = [gibbs_log_sigma(panel.current, v, cfg, s)
                         for v, s in zip(points, stream_ids)]
        else:
            hist_cov = historical_covariance(panel) if settings.sigma0 is None else None
            cfg = IwConfig.default_for(n, hist_cov, iters=settings.iters, burn=settings.burn,
                                       seed=seed, nu=settings.nu, sigma0=settings.sigma0,
                                       allow_small_omega=settings.allow_small_omega)
            if model == "iw_augmented":
                months = monthly_means(panel.historical, panel.m)
                summaries = gibbs_augmented(panel.current, points, months, cfg, stream_ids)
            else:
                summaries = gibbs_nonsquare(panel.current, points, cfg, stream_ids)
        estimates = [(s.mu_post, s.sigma_post) for s in summaries]

    results = []
    for v, (mu_post, sigma_post), summary in zip(points, estimates, summaries):
        weights = optimal_weights(mu_post, sigma_post, settings.risk_aversion)
        profit = curve = None
        if compute_profit:
            profit, curve = backtest_profit(weights, panel.test, settings.capital)
        results.append(ModelResult(
            model=model, mu_post=mu_post, sigma_post=sigma_post, weights=weights,
            distance=view_distance(v.p, mu_post, v.q), summary=summary, profit=profit,
            daily_curve=curve,
        ))
    return results[0] if single else results


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
        # a chained "0 < v < inf" is False for NaN and infinity too
        if not all(0 < v < math.inf for v in o1 + o2):
            raise ValidationError("grid", "omega values must be finite and > 0")
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


def _failed_record(point, exc, seed: int) -> SweepRecord:
    _, w1, w2 = point
    log.warning("sweep point (%g, %g) failed: %s", w1, w2, exc)
    return SweepRecord(
        omega1=w1, omega2=w2, distance=float("nan"), profit=float("nan"),
        status=f"error:{type(exc).__name__}", acceptance_rate=float("nan"), seed=seed,
    )


def _sweep_batch(task) -> list[SweepRecord]:
    """The records of a contiguous run of grid points. The Inverse-Wishart
    models run their chains as one lock-step batch, and if the batch fails,
    its points run again one at a time; the other models run each point in
    its own ``try``, so no finished chain runs twice. Either way every
    record, ``ok`` or error, is what an unbatched sweep gives."""
    points, panel, views, settings, model, seed = task

    def run(run_points):
        results = run_model(model, panel, [views.with_omega([w1, w2]) for _, w1, w2 in run_points],
                            settings, seed=seed, stream_id=[index for index, _, _ in run_points])
        return [SweepRecord(
            omega1=w1, omega2=w2, distance=res.distance, profit=res.profit, status="ok",
            acceptance_rate=res.summary.acceptance_rate if res.summary is not None else 1.0,
            seed=seed,
        ) for (_, w1, w2), res in zip(run_points, results)]

    if len(points) > 1 and model in IW_MODELS:
        try:
            return run(points)
        except (BlBayesError, np.linalg.LinAlgError):
            pass  # the batch's points run again one at a time
    records = []
    for point in points:
        try:
            records += run((point,))
        except (BlBayesError, np.linalg.LinAlgError) as exc:
            records.append(_failed_record(point, exc, seed))
    return records


def _process_pool(processes: int):
    """A pool of ``processes`` worker processes. The import stays here, so a
    run or a one-batch sweep never loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=processes)


def run_sweep(grid: SweepGrid, panel: ReturnPanel, views: ViewSet,
              settings: ModelSettings, workers: int = 1) -> list[SweepRecord]:
    """Evaluate the model at every grid point.

    Point ``index`` runs on the stream ``(base_seed, index)``, so no two
    points of any sweeps share a stream. The grid is split into
    ``W = min(workers, points)`` contiguous batches of near-equal size, the
    larger first, each run by :func:`_sweep_batch`.
    ``workers`` counts the calling process: it runs batch 0 itself, while a
    pool of ``W - 1`` processes, started before it, runs one batch each;
    a single batch starts no pool. A point's record does not depend on the
    batch it ran in, so the records, which come back in grid order, do not
    depend on ``workers``. Individual failures are recorded in-row rather
    than aborting the sweep; a historical window too short for the model
    (:func:`check_history`) fails every point alike, so it raises before
    any chain runs.
    """
    if views.k != 2:
        raise ValidationError("views", "the omega sweep needs exactly 2 views")
    if workers < 1:
        raise ValidationError("workers", "must be >= 1")
    check_history(grid.model, panel, settings, views.k)
    points = list(grid.points())
    workers = min(workers, len(points))
    size, extra = divmod(len(points), workers)
    bounds = [b * size + min(b, extra) for b in range(workers + 1)]
    first, *rest = [(tuple(points[lo:hi]), panel, views, settings, grid.model, grid.base_seed)
                    for lo, hi in zip(bounds, bounds[1:])]
    if not rest:
        return _sweep_batch(first)
    with _process_pool(len(rest)) as pool:
        batches = pool.map(_sweep_batch, rest)  # submitted now, read after batch 0
        return _sweep_batch(first) + [rec for batch in batches for rec in batch]


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


def write_trace_csv(summary: PosteriorSummary, path) -> None:
    """Chain-trace CSV, one row per iteration, burn-in included: the mean
    draw, the covariance log det and the accept flag (0/1), floats at 17
    significant digits for bit-stable output."""
    n = summary.mu_draws.shape[1]
    rows = zip(summary.mu_draws.tolist(), summary.log_det_sigma.tolist(),
               summary.accepted.tolist())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", *(f"mu_{i}" for i in range(n)), "logdet_sigma", "accepted"])
        for t, (mu, log_det, accepted) in enumerate(rows):
            w.writerow([t, *(format(v, ".17g") for v in mu), format(log_det, ".17g"),
                        int(accepted)])
