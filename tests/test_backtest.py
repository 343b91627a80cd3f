"""Weights, profits, distances, and the deterministic parallel sweep."""

import numpy as np
import pytest

from blbayes import backtest
from blbayes.backtest import (
    ModelSettings,
    SweepGrid,
    backtest_profit,
    run_model,
    run_sweep,
    view_distance,
    write_sweep_csv,
)
from blbayes.errors import InsufficientDataError, ValidationError
from blbayes.original_bl import bl_posterior, optimal_weights
from blbayes.views import ViewSet


class TestCapmWeights:
    def test_zero_mean(self):
        np.testing.assert_array_equal(optimal_weights(np.zeros(2), np.eye(2), 2.5), np.zeros(2))

    def test_lambda_scaling(self):
        mu, sig = np.array([0.1, 0.2]), np.array([[0.04, 0.0], [0.0, 0.09]])
        np.testing.assert_allclose(optimal_weights(mu, sig, 5.0) * 2, optimal_weights(mu, sig, 2.5))

    def test_scalar(self):
        assert optimal_weights([0.05], [[0.04]], 2.5)[0] == pytest.approx(0.5)


class TestBacktestProfit:
    def test_zero_weights(self):
        profit, curve = backtest_profit(np.zeros(2), np.full((5, 2), 0.01), 1e5)
        assert profit == 0.0 and all(c == 0.0 for c in curve)

    def test_single_asset_five_percent(self):
        # five equal daily returns compounding to exactly +5%
        rets = (1.05) ** (1 / 5) - 1 + np.zeros((5, 1))
        profit, curve = backtest_profit(np.array([1.0]), rets, 100_000.0)
        assert profit == pytest.approx(5000.0, rel=1e-9)
        assert len(curve) == 5 and curve[-1] == pytest.approx(profit)

    def test_short_position(self):
        rets = (1.05) ** (1 / 5) - 1 + np.zeros((5, 1))
        profit, _ = backtest_profit(np.array([-1.0]), rets, 100_000.0)
        assert profit == pytest.approx(-5000.0, rel=1e-9)

    def test_linearity_exact(self):
        rng = np.random.default_rng(5)
        rets = rng.normal(0, 0.01, size=(10, 3))
        w = rng.normal(size=3)
        p1, _ = backtest_profit(w, rets, 1e5)
        p2, _ = backtest_profit(2 * w, rets, 1e5)
        assert p2 == 2 * p1

    def test_empty_window(self):
        with pytest.raises(InsufficientDataError):
            backtest_profit(np.ones(2), np.zeros((0, 2)), 1e5)


class TestViewDistance:
    def test_exact_match(self):
        assert view_distance(np.eye(2), [0.1, 0.2], [0.1, 0.2]) == 0.0

    def test_hand_value(self):
        assert view_distance(np.eye(2), [0.1, 0.2], [0.1, 0.1]) == pytest.approx(0.1)

    def test_mirrored_views_mirror_posterior(self):
        # informed vs uninformed investor: with a zero equilibrium prior and
        # tight views, flipping q flips P mu_bar (closed form, no MC noise)
        sigma = np.array([[0.05, 0.01, 0.0], [0.01, 0.08, 0.02], [0.0, 0.02, 0.06]])
        p = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        v = np.array([0.06, 0.014])
        pi = np.zeros(3)
        post_plus = bl_posterior(pi, 0.5, sigma, ViewSet(p, v, [1e-10, 1e-10]))
        post_minus = bl_posterior(pi, 0.5, sigma, ViewSet(p, -v, [1e-10, 1e-10]))
        np.testing.assert_allclose(p @ post_plus.mu_bar, -(p @ post_minus.mu_bar), rtol=1e-9)


@pytest.fixture(scope="module")
def sweep_inputs(demo_panel):
    views = ViewSet(
        np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]),
        np.array([0.02, 0.05]),
        np.array([1e-4, 1e-4]),
    )
    settings = ModelSettings(iters=300, burn=60, w_eq=np.full(4, 0.25))
    return demo_panel, views, settings


class TestRunModel:
    def test_unknown_model(self, sweep_inputs):
        panel, views, settings = sweep_inputs
        with pytest.raises(ValidationError):
            run_model("nope", panel, views, settings, seed=1)

    def test_original_needs_w_eq(self, sweep_inputs):
        panel, views, _ = sweep_inputs
        with pytest.raises(ValidationError, match="w_eq"):
            run_model("original", panel, views, ModelSettings(w_eq=None), seed=1)

    def test_models_produce_consistent_outputs(self, sweep_inputs):
        panel, views, settings = sweep_inputs
        for model in ("original", "iw_nonsquare"):
            res = run_model(model, panel, views, settings, seed=3)
            assert res.weights.shape == (4,)
            assert res.distance >= 0
            assert res.profit is not None
            assert len(res.daily_curve) == panel.test.shape[0]
            man_profit, _ = backtest_profit(res.weights, panel.test, settings.capital)
            assert res.profit == pytest.approx(man_profit)


class TestSweep:
    def test_grid_shape_and_order(self, sweep_inputs):
        panel, views, settings = sweep_inputs
        grid = SweepGrid((2e-4, 1e-4), (1e-4, 2e-4), "original", base_seed=9)
        records = run_sweep(grid, panel, views, settings)
        assert len(records) == 4
        assert [(r.omega1, r.omega2) for r in records] == [
            (1e-4, 1e-4), (1e-4, 2e-4), (2e-4, 1e-4), (2e-4, 2e-4)
        ]
        assert [r.seed for r in records] == [9, 9, 9, 9]
        assert all(r.status == "ok" for r in records)

    def test_determinism_across_runs_and_workers(self, sweep_inputs, tmp_path):
        panel, views, settings = sweep_inputs
        grid = SweepGrid((1e-4, 5e-4), (1e-4,), "iw_nonsquare", base_seed=4)
        a = run_sweep(grid, panel, views, settings, workers=1)
        b = run_sweep(grid, panel, views, settings, workers=4)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, pa)
        write_sweep_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_pool_capped_at_grid_points(self, sweep_inputs, monkeypatch):
        # an in-process stand-in for the pool records its size; no process
        # is started
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(backtest, "ProcessPoolExecutor", InProcessPool)
        panel, views, settings = sweep_inputs
        grid = SweepGrid((1e-4, 2e-4, 3e-4), (1e-4, 2e-4, 3e-4), "original", base_seed=5)
        records = run_sweep(grid, panel, views, settings, workers=500)
        assert sizes == [9]
        assert records == run_sweep(grid, panel, views, settings, workers=1)
        run_sweep(grid, panel, views, settings, workers=2)
        assert sizes == [9, 2]

    def test_neighbouring_base_seeds_share_no_stream(self, sweep_inputs):
        # one (omega1, omega2) pair repeated: equal distances would mean that
        # a point replayed another point's random stream
        panel, views, settings = sweep_inputs
        distances = []
        for base_seed in (20180100, 20180101):
            grid = SweepGrid((1e-4,), (1e-4, 1e-4), "iw_nonsquare", base_seed=base_seed)
            distances += [r.distance for r in run_sweep(grid, panel, views, settings)]
        assert len(set(distances)) == len(distances) == 4

    def test_failed_point_isolated(self, sweep_inputs):
        panel, views, settings = sweep_inputs
        # 1e-13 is below the hard omega floor: that point fails, others run
        grid = SweepGrid((1e-13, 1e-4), (1e-4,), "iw_nonsquare", base_seed=4)
        records = run_sweep(grid, panel, views, settings)
        assert records[0].status == "error:ValidationError"
        assert np.isnan(records[0].distance)
        assert records[1].status == "ok"

    def test_distance_row_trend(self, sweep_inputs):
        # smaller omega row lies below the larger one on average
        panel, views, settings = sweep_inputs
        settings_big = ModelSettings(iters=1200, burn=200, w_eq=np.full(4, 0.25))
        grid = SweepGrid((1e-6, 1e-4), (1e-5, 1e-4), "iw_nonsquare", base_seed=12)
        records = run_sweep(grid, panel, views, settings_big)
        lo = np.mean([r.distance for r in records if r.omega1 == 1e-6])
        hi = np.mean([r.distance for r in records if r.omega1 == 1e-4])
        assert lo < hi

    def test_two_views_required(self, sweep_inputs):
        panel, _, settings = sweep_inputs
        one_view = ViewSet(np.array([[1.0, -1.0, 0.0, 0.0]]), [0.02], [1e-4])
        grid = SweepGrid((1e-4,), (1e-4,), "original", base_seed=1)
        with pytest.raises(ValidationError):
            run_sweep(grid, panel, one_view, settings)

    def test_csv_columns(self, sweep_inputs, tmp_path):
        panel, views, settings = sweep_inputs
        grid = SweepGrid((1e-4,), (1e-4,), "original", base_seed=2)
        records = run_sweep(grid, panel, views, settings)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        header = path.read_text().splitlines()[0]
        assert header == "omega1,omega2,distance,profit,status,acceptance_rate,seed"
