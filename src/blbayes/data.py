"""Price ingestion, return computation, and window slicing.

Returns are simple arithmetic returns (``p[t+1]/p[t] - 1``), dated by the
later of the two prices. The return rows are split into three ordered,
disjoint windows: ``historical`` (parameter estimation), ``current`` (the
last m rows strictly before the test start; the likelihood data), and
``test`` (rows at/after the test start; the backtest period).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import FormatError, InsufficientDataError


@dataclass(frozen=True)
class PricePanel:
    """Complete grid of positive closing prices on strictly increasing dates."""

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    prices: np.ndarray  # shape (len(dates), len(tickers))

    def __post_init__(self):
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        if self.prices.shape != (len(self.dates), len(self.tickers)):
            raise FormatError(
                f"price block {self.prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if np.any(self.prices <= 0):
            raise FormatError("prices must be strictly positive")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise FormatError("dates must be strictly increasing")

    def to_json(self) -> str:
        return json.dumps(
            {
                "tickers": list(self.tickers),
                "dates": [d.isoformat() for d in self.dates],
                "rows": [[float(x) for x in row] for row in self.prices],
            }
        )


@dataclass(frozen=True)
class ReturnPanel:
    """Dated return rows plus the historical/current/test window boundaries.

    ``returns[i]`` is the return realized on ``dates[i]``. The windows are
    contiguous index ranges: ``[0, hist_end) , [hist_end, cur_end) ,
    [cur_end, len)``, with the current window exactly m rows long.
    """

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    returns: np.ndarray
    hist_end: int
    cur_end: int

    def __post_init__(self):
        object.__setattr__(self, "returns", np.asarray(self.returns, dtype=float))
        if self.returns.shape[0] != len(self.dates):
            raise FormatError("returns/dates length mismatch")
        if not 0 <= self.hist_end <= self.cur_end <= len(self.dates):
            raise FormatError("window boundaries out of order")

    @property
    def m(self) -> int:
        return self.cur_end - self.hist_end

    @property
    def historical(self) -> np.ndarray:
        return self.returns[: self.hist_end]

    @property
    def current(self) -> np.ndarray:
        return self.returns[self.hist_end : self.cur_end]

    @property
    def test(self) -> np.ndarray:
        return self.returns[self.cur_end :]


def ingest_prices(source) -> PricePanel:
    """Parse a ``date,<T1>,...,<Tn>`` CSV stream into a validated panel.

    Rows are sorted ascending by date. A duplicate ticker name, duplicate
    dates, blank, non-numeric, non-finite or non-positive prices, and ragged
    rows raise :class:`FormatError` naming the offending ticker, row or
    column.
    """
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty CSV: missing header row")
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise FormatError("header must be 'date,<T1>,...,<Tn>'")
    tickers = tuple(t.strip() for t in header[1:])
    if any(not t for t in tickers):
        raise FormatError("header contains an empty ticker name")
    if len(set(tickers)) < len(tickers):
        repeated = next(t for t in tickers if tickers.count(t) > 1)
        raise FormatError(f"header names ticker {repeated!r} more than once")

    rows: list[tuple[date, list[float]]] = []
    seen: set[date] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(tickers) + 1:
            raise FormatError(
                f"row {lineno}: expected {len(tickers) + 1} cells, got {len(row)}"
            )
        try:
            d = date.fromisoformat(row[0].strip())
        except ValueError:
            raise FormatError(f"row {lineno}: bad ISO-8601 date {row[0]!r}")
        if d in seen:
            raise FormatError(f"row {lineno}: duplicate date {d.isoformat()}")
        seen.add(d)
        try:
            prices = [float(cell) for cell in row[1:]]
        except ValueError:
            prices = None
        # a chained comparison is False for NaN too
        if prices is None or not all(0 < value < math.inf for value in prices):
            _raise_bad_cell(lineno, tickers, row[1:])
        rows.append((d, prices))

    if len(rows) < 2:
        raise FormatError("need at least 2 price rows to compute a return")
    rows.sort(key=lambda item: item[0])
    dates = tuple(d for d, _ in rows)
    block = np.array([p for _, p in rows], dtype=float)
    return PricePanel(tickers=tickers, dates=dates, prices=block)


def read_prices(path) -> PricePanel:
    """:func:`ingest_prices` of the CSV file at ``path``, read as UTF-8; a
    leading byte-order mark, as Excel's "CSV UTF-8" writes, is skipped. A
    file that cannot be opened, decoded or split into cells (one over the
    CSV reader's size limit) raises :class:`FormatError` naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return ingest_prices(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: cannot read prices: {exc}") from None


def _raise_bad_cell(lineno: int, tickers, cells) -> None:
    """Raise the :class:`FormatError` of the first bad price cell of a row:
    blank, not a number, not finite, or not positive."""
    for ticker, cell in zip(tickers, cells):
        where = f"row {lineno}, column {ticker!r}"
        cell = cell.strip()
        if not cell:
            raise FormatError(f"{where}: blank price cell")
        try:
            value = float(cell)
        except ValueError:
            raise FormatError(f"{where}: bad price {cell!r}")
        if not math.isfinite(value):
            raise FormatError(f"{where}: non-finite price {cell!r}")
        if value <= 0:
            raise FormatError(f"{where}: non-positive price {cell!r}")


def compute_returns(panel: PricePanel, m: int, test_start: date) -> ReturnPanel:
    """Turn prices into simple returns and slice the three windows.

    The current window is the last ``m`` return rows strictly before
    ``test_start``; everything earlier is historical, everything at/after is
    the test window.
    """
    if m < 1:
        raise InsufficientDataError("m must be >= 1")
    rets = panel.prices[1:] / panel.prices[:-1] - 1.0
    dates = panel.dates[1:]
    cur_end = sum(1 for d in dates if d < test_start)
    hist_end = cur_end - m
    if hist_end < 0:
        raise InsufficientDataError(
            f"need at least m+1 = {m + 1} price rows before {test_start.isoformat()}, "
            f"have {cur_end + 1}"
        )
    return ReturnPanel(
        tickers=panel.tickers,
        dates=dates,
        returns=rets,
        hist_end=hist_end,
        cur_end=cur_end,
    )


def monthly_means(historical, m: int) -> np.ndarray:
    """Means of consecutive non-overlapping m-row blocks of the historical
    window, counted backward from its end (earliest leftover rows dropped).

    Returns an array of shape (num_blocks, n), blocks in chronological order.
    """
    historical = np.asarray(historical, dtype=float)
    rows = historical.shape[0]
    blocks = rows // m
    if blocks < 1:
        raise InsufficientDataError(
            f"historical window has {rows} rows, need at least m = {m}"
        )
    trimmed = historical[rows - blocks * m :]
    return trimmed.reshape(blocks, m, -1).mean(axis=1)
