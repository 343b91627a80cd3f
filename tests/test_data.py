"""CSV ingestion, return computation, window slicing, and monthly blocks."""

import io
import json
from datetime import date

import numpy as np
import pytest

from blbayes import demo
from blbayes.data import (
    PricePanel,
    compute_returns,
    ingest_prices,
    monthly_means,
)
from blbayes.errors import FormatError, InsufficientDataError


def panel_from(text: str) -> PricePanel:
    return ingest_prices(io.StringIO(text))


class TestIngest:
    def test_minimal(self):
        p = panel_from("date,AAA\n2020-01-01,100\n2020-01-02,101\n")
        assert p.tickers == ("AAA",)
        assert p.dates == (date(2020, 1, 1), date(2020, 1, 2))
        np.testing.assert_array_equal(p.prices, [[100.0], [101.0]])

    def test_unsorted_rows_normalized(self):
        p = panel_from("date,AAA\n2020-01-03,102\n2020-01-01,100\n2020-01-02,101\n")
        assert p.dates == (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3))
        np.testing.assert_array_equal(p.prices[:, 0], [100.0, 101.0, 102.0])

    def test_blank_cell_names_location(self):
        with pytest.raises(FormatError, match=r"row 3, column 'BBB'"):
            panel_from("date,AAA,BBB\n2020-01-01,1,2\n2020-01-02,1,\n")

    def test_duplicate_date(self):
        with pytest.raises(FormatError, match="duplicate date"):
            panel_from("date,AAA\n2020-01-01,1\n2020-01-01,2\n")

    def test_ragged_row(self):
        with pytest.raises(FormatError, match="expected 3 cells"):
            panel_from("date,AAA,BBB\n2020-01-01,1,2\n2020-01-02,1\n")

    def test_non_positive_price(self):
        with pytest.raises(FormatError, match="non-positive"):
            panel_from("date,AAA\n2020-01-01,1\n2020-01-02,-3\n")

    def test_bad_header(self):
        with pytest.raises(FormatError):
            panel_from("when,AAA\n2020-01-01,1\n")

    def test_bad_date(self):
        with pytest.raises(FormatError, match="ISO-8601"):
            panel_from("date,AAA\n01/02/2020,1\n2020-01-02,2\n")

    def test_json_roundtrip(self):
        p = panel_from("date,AAA,BBB\n2020-01-01,1,2\n2020-01-02,3,4\n")
        q = PricePanel.from_json(p.to_json())
        assert q.tickers == p.tickers and q.dates == p.dates
        np.testing.assert_array_equal(q.prices, p.prices)


class TestReturns:
    def test_single_return(self):
        p = panel_from("date,AAA\n2020-01-01,100\n2020-01-02,101\n")
        rp = compute_returns(p, m=1, test_start=date(2021, 1, 1))
        assert rp.returns.shape == (1, 1)
        assert rp.returns[0, 0] == pytest.approx(0.01, abs=1e-12)
        assert rp.dates == (date(2020, 1, 2),)

    def test_chained_returns_reconstruct_prices(self):
        rng = np.random.default_rng(9)
        prices = 100 * np.cumprod(1 + rng.normal(0, 0.01, size=(40, 2)), axis=0)
        lines = ["date,AAA,BBB"]
        base = date(2020, 1, 1)
        from datetime import timedelta

        for i, row in enumerate(prices):
            cells = ",".join(format(x, ".17g") for x in row)
            lines.append(f"{(base + timedelta(days=i)).isoformat()},{cells}")
        p = panel_from("\n".join(lines) + "\n")
        rp = compute_returns(p, m=5, test_start=date(2021, 1, 1))
        rebuilt = prices[0] * np.cumprod(1 + rp.returns, axis=0)
        np.testing.assert_allclose(rebuilt, prices[1:], rtol=1e-10)

    def test_window_partition_total_and_order(self, demo_panel):
        rp = demo_panel
        total = rp.returns.shape[0]
        assert rp.historical.shape[0] + rp.current.shape[0] + rp.test.shape[0] == total
        assert rp.current.shape[0] == rp.m == 21
        # current window strictly before the test start, test at/after
        from blbayes.demo import DEMO_TEST_START

        assert rp.dates[rp.cur_end - 1] < DEMO_TEST_START
        assert rp.dates[rp.cur_end] >= DEMO_TEST_START
        assert all(d >= DEMO_TEST_START for d in rp.test_dates)

    def test_too_few_rows(self):
        p = panel_from("date,AAA\n2020-01-01,100\n2020-01-02,101\n2020-01-03,102\n")
        with pytest.raises(InsufficientDataError):
            compute_returns(p, m=5, test_start=date(2021, 1, 1))


class TestMonthlyMeans:
    def test_even_partition(self):
        rows = np.arange(42, dtype=float).reshape(42, 1)
        means = monthly_means(rows, 21)
        assert means.shape == (2, 1)
        np.testing.assert_allclose(means[:, 0], [10.0, 31.0])

    def test_leftover_rows_dropped_from_front(self):
        rows = np.arange(50, dtype=float).reshape(50, 1)
        means = monthly_means(rows, 21)
        assert means.shape == (2, 1)
        # first 8 rows dropped: blocks are 8..28 and 29..49
        np.testing.assert_allclose(means[:, 0], [np.arange(8, 29).mean(), np.arange(29, 50).mean()])

    def test_constant_returns(self):
        rows = np.full((45, 3), 0.007)
        means = monthly_means(rows, 21)
        np.testing.assert_allclose(means, 0.007)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            monthly_means(np.zeros((20, 2)), 21)


class TestDemoFiles:
    def test_write_demo_files_reproduces_bundled_files(self, tmp_path):
        # every golden and acceptance test stands on the bundled demo files
        bundled = demo.prices_csv_path().parent
        written = {p.name: p for p in demo.write_demo_files(tmp_path)}
        assert sorted(written) == sorted(p.name for p in bundled.iterdir() if p.is_file())
        for name, path in written.items():
            if name.endswith(".json"):
                assert json.loads(path.read_text()) == json.loads((bundled / name).read_text())
        with open(written["prices.csv"]) as fh:
            fresh = ingest_prices(fh)
        with open(bundled / "prices.csv") as fh:
            shipped = ingest_prices(fh)
        assert fresh.dates == shipped.dates
        assert fresh.tickers == shipped.tickers
        np.testing.assert_allclose(fresh.prices, shipped.prices, rtol=0, atol=5e-9)
