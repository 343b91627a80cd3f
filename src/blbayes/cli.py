"""Command-line front end.

Subcommands: ``ingest`` (CSV -> cached panel JSON), ``run`` (one model, JSON
summary), ``sweep`` (omega grid, CSV), ``backtest`` (stored weights over the
test window). Exit codes are stable: 0 success, 2 validation failure,
3 numerical/runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import run_model, run_sweep, write_sweep_csv, backtest_profit
from .config import RunConfig, load_grid
from .data import ingest_prices
from .errors import (
    BlBayesError,
    DimensionError,
    FormatError,
    InsufficientDataError,
    ModelSizeError,
    RankError,
    ValidationError,
)
from . import jsonio

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_VALIDATION_ERRORS = (
    ValidationError,
    FormatError,
    InsufficientDataError,
    ModelSizeError,
    RankError,
    DimensionError,
)


def _summary_payload(cfg: RunConfig, result) -> dict:
    diagnostics = {"distance": result.distance, "seed": cfg.seed}
    if result.summary is not None:
        s = result.summary
        diagnostics.update({
            "acceptance_rate": s.acceptance_rate,
            # the burn segment is empty when burn == 0; omit its rate then
            "acceptance_rate_burn": (
                s.acceptance_rate_burn if np.isfinite(s.acceptance_rate_burn) else None
            ),
            "n_eff": s.n_eff,
            "mu_se": s.mu_se,
            "geweke_z": s.geweke_z,
            "geweke_pass": s.geweke_pass(),
            "iters": cfg.settings.iters,
            "burn": cfg.settings.burn,
        })
        if s.extra:
            diagnostics.update(s.extra)
    payload = {
        "model": result.model,
        "mu_post": result.mu_post,
        "sigma_post": result.sigma_post,
        "weights": result.weights,
        "diagnostics": diagnostics,
    }
    if result.profit is not None:
        payload["profit"] = {
            "capital": cfg.settings.capital,
            "profit": result.profit,
            "daily_curve": result.daily_curve,
        }
    return payload


def _cmd_ingest(args) -> int:
    with open(args.prices, newline="") as fh:
        panel = ingest_prices(fh)
    with open(args.out, "w") as fh:
        fh.write(panel.to_json() + "\n")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = RunConfig.load(args.config)
    panel = cfg.load_panel()
    result = run_model(
        cfg.model, panel, cfg.views, cfg.settings, seed=cfg.seed,
        trace_path=args.trace, compute_profit=cfg.backtest,
    )
    text = jsonio.dumps(_summary_payload(cfg, result))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = RunConfig.load(args.config)
    grid = load_grid(args.grid, default_seed=cfg.seed, model=cfg.model)
    panel = cfg.load_panel()
    records = run_sweep(grid, panel, cfg.views, cfg.settings, workers=args.workers)
    write_sweep_csv(records, args.out)
    return EXIT_OK


def _cmd_backtest(args) -> int:
    cfg = RunConfig.load(args.config)
    panel = cfg.load_panel()
    try:
        doc = json.loads(Path(args.weights).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(str(args.weights), f"cannot read weights: {exc}")
    if isinstance(doc, dict) and "weights" in doc:
        doc = doc["weights"]
    try:
        weights = np.asarray(doc, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("weights", f"expected a flat array of numbers: {exc}")
    if weights.ndim != 1:
        raise ValidationError("weights", "expected a flat array of weights")
    profit, curve = backtest_profit(weights, panel.test, cfg.settings.capital)
    payload = {
        "capital": cfg.settings.capital,
        "weights": weights,
        "profit": profit,
        "daily_curve": curve,
        "test_days": len(curve),
    }
    with open(args.out, "w") as fh:
        fh.write(jsonio.dumps(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blbayes",
        description="Black-Litterman engine with Bayesian covariance priors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a price CSV and cache it as JSON")
    p.add_argument("--prices", required=True, help="input CSV (date,T1,...,Tn)")
    p.add_argument("--out", required=True, help="output panel JSON")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("run", help="run one model and write a JSON summary")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--trace", default=None, help="optional chain-trace CSV")
    p.add_argument("--out", default=None, help="output JSON (default stdout)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run an (omega1, omega2) sensitivity sweep")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--grid", required=True, help="grid JSON (omega1/omega2 arrays)")
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("backtest", help="profit of stored weights over the test window")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--weights", required=True, help="weights JSON (array or run output)")
    p.add_argument("--out", required=True, help="output JSON")
    p.set_defaults(func=_cmd_backtest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (BlBayesError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
