"""Weights, profits, distances, and the deterministic parallel sweep."""

import logging
from dataclasses import replace

import numpy as np
import pytest

from blbayes import backtest, inverse_wishart
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
from conftest import count_engine_calls, far_views


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

    @pytest.mark.parametrize("field, value", [
        ("risk_aversion", 0.0), ("risk_aversion", -2.5), ("risk_aversion", float("nan")),
        ("tau", 0.0), ("tau", -0.05),
    ])
    def test_nonpositive_risk_aversion_or_tau_rejected(self, sweep_inputs, field, value):
        # a negative lambda would negate the weights, a zero one make them inf
        panel, views, _ = sweep_inputs
        with pytest.raises(ValidationError, match=f"{field}: must be > 0"):
            run_model("iw_nonsquare", panel, views,
                      ModelSettings(iters=200, burn=50, **{field: value}), seed=1)

    @pytest.mark.parametrize("field, value", [
        ("sigma0", np.diag([np.inf, 1.0, 1.0, 1.0])), ("sigma0", np.full((4, 4), np.nan)),
        ("nu", float("nan")), ("nu", float("inf")),
    ])
    @pytest.mark.parametrize("model", ["iw_nonsquare", "iw_augmented"])
    def test_non_finite_iw_prior_rejected(self, sweep_inputs, model, field, value):
        panel, views, _ = sweep_inputs
        with pytest.raises(ValidationError) as info:
            run_model(model, panel, views,
                      ModelSettings(iters=200, burn=50, **{field: value}), seed=1)
        assert info.value.path == field

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("model", ["iw_nonsquare", "iw_augmented"])
    def test_far_views_warn_once_per_point(self, demo_panel, caplog, model, count):
        # the Sigma estimate of each point is ill-conditioned, and the
        # weights' solve with it says so, once per point; no covariance draw
        # is checked
        with caplog.at_level(logging.WARNING, logger="blbayes"):
            run_model(model, demo_panel, [far_views()] * count,
                      ModelSettings(iters=300, burn=60), seed=3, stream_id=range(count))
        messages = [r.getMessage() for r in caplog.records]
        assert sum(m.startswith("optimal weights:") for m in messages) == count
        assert not any(m.startswith("Sigma draw") for m in messages)

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
        # the caller is one of the W workers, so the pool has W - 1 processes,
        # W capped at the grid points, and a single batch starts no pool; an
        # in-process stand-in for the pool records its size, so no process is
        # started
        sizes = []

        class InProcessPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(backtest, "_process_pool", InProcessPool)
        panel, views, settings = sweep_inputs
        grid = SweepGrid((1e-4, 2e-4, 3e-4), (1e-4, 2e-4, 3e-4), "original", base_seed=5)
        records = run_sweep(grid, panel, views, settings, workers=500)
        assert sizes == [8]
        assert records == run_sweep(grid, panel, views, settings, workers=1)
        assert sizes == [8]
        run_sweep(grid, panel, views, settings, workers=2)
        assert sizes == [8, 1]

    def test_contiguous_batches(self, sweep_inputs, monkeypatch):
        # W workers get W contiguous runs of grid points, sizes differing by
        # at most one, the larger first; the pool receives batches 1..W-1
        # before the caller runs batch 0, so the two overlap, and one worker
        # runs the whole grid in-process
        events = []

        class InProcessPool:
            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                events.append(("map", [[index for index, _, _ in task[0]] for task in tasks]))
                return map(fn, tasks)

        sweep_batch = backtest._sweep_batch

        def recording_batch(task):
            events.append(("batch", [index for index, _, _ in task[0]]))
            return sweep_batch(task)

        monkeypatch.setattr(backtest, "_process_pool", InProcessPool)
        monkeypatch.setattr(backtest, "_sweep_batch", recording_batch)
        panel, views, settings = sweep_inputs
        grid = SweepGrid((1e-4, 2e-4, 3e-4), (1e-4, 2e-4, 3e-4), "original", base_seed=5)
        records = run_sweep(grid, panel, views, settings, workers=1)
        assert events == [("batch", list(range(9)))]
        events.clear()
        assert run_sweep(grid, panel, views, settings, workers=2) == records
        assert events == [("map", [[5, 6, 7, 8]]),
                          ("batch", [0, 1, 2, 3, 4]), ("batch", [5, 6, 7, 8])]
        events.clear()
        assert run_sweep(grid, panel, views, settings, workers=4) == records
        assert events == [("map", [[3, 4], [5, 6], [7, 8]]),
                          ("batch", [0, 1, 2]), ("batch", [3, 4]), ("batch", [5, 6]),
                          ("batch", [7, 8])]

    @pytest.mark.parametrize("model", backtest.MODELS)
    def test_batch_of_points_equals_points_alone(self, sweep_inputs, model):
        panel, views, settings = sweep_inputs
        points = [views.with_omega([w, 2 * w]) for w in (1e-5, 1e-4, 1e-3)]
        results = run_model(model, panel, points, settings, seed=8, stream_id=[4, 5, 6])
        assert len(results) == 3
        for v, stream_id, res in zip(points, (4, 5, 6), results):
            alone = run_model(model, panel, v, settings, seed=8, stream_id=stream_id)
            assert res.distance == alone.distance and res.profit == alone.profit
            for field in ("mu_post", "sigma_post", "weights"):
                assert np.array_equal(getattr(res, field), getattr(alone, field)), field

    def test_failed_chain_reruns_its_batch_point_by_point(self, sweep_inputs, monkeypatch,
                                                         tmp_path):
        # the chain on stream 1 draws NaN Bartlett factors, so a NaN
        # covariance: its batch fails, and its points run again one at a
        # time, so that point records the error of an unbatched run and the
        # other points stay ok
        panel, views, settings = sweep_inputs
        original = inverse_wishart.bartlett_factors

        def poisoned(dof, n, count, rng):
            factors = original(dof, n, count, rng)
            if rng.bit_generator.seed_seq.spawn_key == (1,):
                factors[...] = np.nan
            return factors

        monkeypatch.setattr(inverse_wishart, "bartlett_factors", poisoned)
        chains = count_engine_calls(monkeypatch, inverse_wishart, "gibbs_nonsquare")
        grid = SweepGrid((1e-5, 1e-4), (1e-5, 1e-4), "iw_nonsquare", base_seed=6)
        batched = run_sweep(grid, panel, views, settings, workers=1)
        assert len(chains) == 1 + 4  # the batch, then each point alone
        assert [r.status for r in batched] == ["ok", "error:ChainError", "ok", "ok"]
        alone = [rec for point in grid.points()
                 for rec in backtest._sweep_batch(((point,), panel, views, settings,
                                                   grid.model, grid.base_seed))]
        pa, pb = tmp_path / "batched.csv", tmp_path / "alone.csv"
        write_sweep_csv(batched, pa)
        write_sweep_csv(alone, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_invalid_points_leave_the_batch(self, sweep_inputs, monkeypatch, tmp_path, caplog):
        # omega1 = 1e-10 is below the Inverse-Wishart floor, so the three
        # points of that row fail validation before any chain runs; the batch
        # fails and its nine points run again one at a time, so every record
        # is that of an unbatched run
        panel, views, settings = sweep_inputs
        original = backtest.gibbs_nonsquare
        batch_sizes = []

        def recording(returns, point_views, cfg, stream_ids, **kwargs):
            batch_sizes.append(len(point_views))
            return original(returns, point_views, cfg, stream_ids, **kwargs)

        monkeypatch.setattr(backtest, "gibbs_nonsquare", recording)
        grid = SweepGrid((1e-10, 1e-5, 1e-4), (1e-5, 1e-4, 1e-3), "iw_nonsquare", base_seed=7)
        with caplog.at_level(logging.WARNING, logger="blbayes.backtest"):
            batched = run_sweep(grid, panel, views, settings, workers=1)
        batched_warnings = [r.getMessage() for r in caplog.records]
        assert batch_sizes == [9] + [1] * 9
        assert [r.status for r in batched] == ["error:ValidationError"] * 3 + ["ok"] * 6
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="blbayes.backtest"):
            alone = [rec for point in grid.points()
                     for rec in backtest._sweep_batch(((point,), panel, views, settings,
                                                       grid.model, grid.base_seed))]
        assert [r.getMessage() for r in caplog.records] == batched_warnings
        assert len(batched_warnings) == 3
        pa, pb = tmp_path / "batched.csv", tmp_path / "alone.csv"
        write_sweep_csv(batched, pa)
        write_sweep_csv(alone, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_failed_point_reruns_no_finished_chain(self, sweep_inputs, monkeypatch, tmp_path):
        # only the Inverse-Wishart models run a batch in lock step; the
        # log-covariance model runs each point of it in its own try, so the
        # point at omega2 = 1e-13 fails alone and the batch of points 5-8
        # runs three chains for its three ok rows, on any number of workers
        panel, views, settings = sweep_inputs
        settings = replace(settings, iters=60, burn=15)
        grid = SweepGrid((1e-5, 1e-4, 1e-3), (1e-13, 1e-4, 1e-3), "log_sigma", base_seed=3)
        original, chains = backtest.gibbs_log_sigma, []

        def finishing(*args):
            summary = original(*args)
            chains.append(args[3])  # the stream id of a chain that finished
            return summary

        monkeypatch.setattr(backtest, "gibbs_log_sigma", finishing)
        points = list(grid.points())
        batch = backtest._sweep_batch((tuple(points[5:]), panel, views, settings, grid.model,
                                       grid.base_seed))
        assert chains == [5, 7, 8]
        assert [r.status for r in batch] == ["ok", "error:ValidationError", "ok", "ok"]
        alone = [rec for point in points
                 for rec in backtest._sweep_batch(((point,), panel, views, settings,
                                                   grid.model, grid.base_seed))]
        expected, batched = tmp_path / "alone.csv", tmp_path / "batch.csv"
        write_sweep_csv(alone[5:], expected)
        write_sweep_csv(batch, batched)
        assert batched.read_bytes() == expected.read_bytes()
        write_sweep_csv(alone, expected)
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            write_sweep_csv(run_sweep(grid, panel, views, settings, workers=workers), path)
            assert path.read_bytes() == expected.read_bytes(), workers

    def test_neighbouring_base_seeds_share_no_stream(self, sweep_inputs):
        # one (omega1, omega2) pair repeated: equal distances would mean that
        # a point replayed another point's random stream
        panel, views, settings = sweep_inputs
        distances = []
        for base_seed in (20180100, 20180101):
            grid = SweepGrid((1e-4,), (1e-4, 1e-4), "iw_nonsquare", base_seed=base_seed)
            distances += [r.distance for r in run_sweep(grid, panel, views, settings)]
        assert len(set(distances)) == len(distances) == 4

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_grid_rejects_non_finite_or_nonpositive_omega(self, value):
        with pytest.raises(ValidationError, match="omega values must be finite and > 0"):
            SweepGrid((value, 1e-4), (1e-4,), "iw_nonsquare", base_seed=4)

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

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected(self, sweep_inputs, monkeypatch, workers):
        panel, views, settings = sweep_inputs
        calls = count_engine_calls(monkeypatch, backtest, "run_model")
        grid = SweepGrid((1e-4,), (1e-4,), "original", base_seed=1)
        with pytest.raises(ValidationError, match="workers: must be >= 1"):
            run_sweep(grid, panel, views, settings, workers=workers)
        assert calls == []

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
