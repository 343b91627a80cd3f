"""Run-configuration loading and validation.

A run config is a single JSON document (schema version "1"). Every module
precondition that can be checked from the document alone is checked here,
before any data is read, and failures carry the field path of the offending
entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .backtest import MODELS, ModelSettings, SweepGrid
from .data import ReturnPanel, compute_returns, ingest_prices
from .errors import ModelSizeError, ValidationError
from .inverse_wishart import check_chain_length
from .log_sigma import check_asset_count
from .sampling import fits_seed
from .views import ViewSet

SCHEMA_VERSION = "1"


def _get(doc: dict, key: str, kind, path: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise ValidationError(path, "missing required field")
        return default
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise ValidationError(path, f"expected {getattr(kind, '__name__', kind)}")
    return value


def _number_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ValidationError(path, "expected a non-empty array of numbers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{path}[{i}]", "expected a number")
        out.append(float(v))
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated run request: data location and windows, model id, views,
    hyperparameters, chain controls, and backtest options."""

    prices_csv: Path
    tickers: tuple[str, ...] | None
    m: int
    test_start: date
    model: str
    views: ViewSet
    settings: ModelSettings
    seed: int
    backtest: bool

    @classmethod
    def load(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(str(path), f"cannot read config: {exc}")
        if not isinstance(doc, dict):
            raise ValidationError("$", "config must be a JSON object")
        if _get(doc, "version", str, "version") != SCHEMA_VERSION:
            raise ValidationError("version", f"expected {SCHEMA_VERSION!r}")

        data = _get(doc, "data", dict, "data")
        csv_rel = _get(data, "prices_csv", str, "data.prices_csv")
        prices_csv = Path(csv_rel)
        if not prices_csv.is_absolute():
            prices_csv = path.parent / prices_csv
        tickers = _get(data, "tickers", list, "data.tickers", required=False)
        if tickers is not None:
            if not all(isinstance(t, str) and t for t in tickers):
                raise ValidationError("data.tickers", "expected non-empty strings")
            tickers = tuple(tickers)
        m = _get(data, "m", int, "data.m")
        if isinstance(m, bool) or m < 1:
            raise ValidationError("data.m", "must be a positive integer")
        try:
            test_start = date.fromisoformat(_get(data, "test_start", str, "data.test_start"))
        except ValueError:
            raise ValidationError("data.test_start", "expected an ISO-8601 date")

        model = _get(doc, "model", str, "model")
        if model not in MODELS:
            raise ValidationError("model", f"expected one of {MODELS}")

        vdoc = _get(doc, "views", dict, "views")
        p_rows = _get(vdoc, "P", list, "views.P")
        if not p_rows or not all(isinstance(r, list) for r in p_rows):
            raise ValidationError("views.P", "expected an array of rows")
        widths = {len(r) for r in p_rows}
        if len(widths) != 1:
            raise ValidationError("views.P", "rows have differing lengths")
        p = np.array([_number_list(r, f"views.P[{i}]") for i, r in enumerate(p_rows)])
        q = np.array(_number_list(_get(vdoc, "q", list, "views.q"), "views.q"))
        omega = np.array(_number_list(_get(vdoc, "omega", list, "views.omega"), "views.omega"))
        n = p.shape[1]
        if tickers is not None and len(tickers) != n:
            raise ValidationError("views.P", f"{n} columns but {len(tickers)} tickers")
        views = ViewSet(p=p, q=q, omega_diag=omega)  # re-raises with field paths

        if model == "log_sigma":
            try:
                check_asset_count(n)
            except ModelSizeError as exc:
                raise ValidationError("views.P", str(exc)) from exc

        risk_aversion = _get(doc, "risk_aversion", float, "risk_aversion",
                             required=False, default=2.5)
        if risk_aversion <= 0:
            raise ValidationError("risk_aversion", "must be > 0")
        tau = _get(doc, "tau", float, "tau", required=False, default=0.05)
        if tau <= 0:
            raise ValidationError("tau", "must be > 0")

        w_eq = None
        if "w_eq" in doc and doc["w_eq"] is not None:
            w_eq = np.array(_number_list(doc["w_eq"], "w_eq"))
            if w_eq.size != n:
                raise ValidationError("w_eq", f"expected {n} entries")
        if model == "original" and w_eq is None:
            raise ValidationError("w_eq", "required for the original model")

        nu = doc.get("nu")
        if nu is not None:
            if isinstance(nu, bool) or not isinstance(nu, (int, float)):
                raise ValidationError("nu", "expected a number or null")
            nu = float(nu)
            if nu <= n - 1:
                raise ValidationError("nu", f"must exceed n-1 = {n - 1}")
        sigma0 = doc.get("sigma0")
        if sigma0 is not None:
            if not isinstance(sigma0, list) or len(sigma0) != n:
                raise ValidationError("sigma0", f"expected an {n}x{n} matrix or null")
            sigma0 = np.array([_number_list(r, f"sigma0[{i}]") for i, r in enumerate(sigma0)])
            if sigma0.shape != (n, n):
                raise ValidationError("sigma0", f"expected an {n}x{n} matrix")

        iters = _get(doc, "iters", int, "iters", required=False, default=10_000)
        burn = _get(doc, "burn", int, "burn", required=False, default=1_000)
        if isinstance(iters, bool) or iters < 1:
            raise ValidationError("iters", "must be a positive integer")
        if isinstance(burn, bool):
            raise ValidationError("burn", "expected int")
        check_chain_length(iters, burn)
        seed = _get(doc, "seed", int, "seed", required=False, default=0)
        if isinstance(seed, bool) or not fits_seed(seed):
            raise ValidationError("seed", "must fit in 64 unsigned bits")
        capital = _get(doc, "capital", float, "capital", required=False, default=100_000.0)
        allow_small = _get(doc, "allow_small_omega", bool, "allow_small_omega",
                           required=False, default=False)
        backtest = _get(doc, "backtest", bool, "backtest", required=False, default=False)

        settings = ModelSettings(
            iters=iters, burn=burn, risk_aversion=risk_aversion, tau=tau,
            capital=capital, w_eq=w_eq, nu=nu, sigma0=sigma0,
            allow_small_omega=allow_small,
        )
        return cls(prices_csv=prices_csv, tickers=tickers, m=m,
                   test_start=test_start, model=model, views=views,
                   settings=settings, seed=seed, backtest=backtest)

    def load_panel(self) -> ReturnPanel:
        try:
            with open(self.prices_csv, newline="") as fh:
                panel = ingest_prices(fh)
        except OSError as exc:
            raise ValidationError("data.prices_csv", f"cannot read: {exc}")
        if self.tickers is not None and panel.tickers != self.tickers:
            raise ValidationError(
                "data.tickers",
                f"config lists {self.tickers} but the CSV has {panel.tickers}",
            )
        if len(panel.tickers) != self.views.n:
            raise ValidationError(
                "views.P", f"{self.views.n} columns but the CSV has "
                f"{len(panel.tickers)} tickers"
            )
        return compute_returns(panel, m=self.m, test_start=self.test_start)


def load_grid(path, default_seed: int, model: str) -> SweepGrid:
    """Parse a sweep-grid JSON: omega1/omega2 value arrays plus an optional
    base_seed (falls back to the run config's seed)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(str(path), f"cannot read grid: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError("$", "grid must be a JSON object")
    omega1 = _number_list(_get(doc, "omega1", list, "omega1"), "omega1")
    omega2 = _number_list(_get(doc, "omega2", list, "omega2"), "omega2")
    base_seed = doc.get("base_seed", default_seed)
    if isinstance(base_seed, bool) or not isinstance(base_seed, int):
        raise ValidationError("base_seed", "expected an integer")
    if not fits_seed(base_seed):
        raise ValidationError("base_seed", "must fit in 64 unsigned bits")
    return SweepGrid(omega1_values=tuple(omega1), omega2_values=tuple(omega2),
                     model=model, base_seed=base_seed)
