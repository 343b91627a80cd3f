"""Front-end contracts: exit codes, determinism, and output formats."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blbayes import cli, data, errors, inverse_wishart, sampling
from blbayes.backtest import backtest_profit, run_model
from blbayes.cli import main
from blbayes.config import RunConfig
from blbayes.data import ingest_prices
from blbayes.demo import write_demo_files
from conftest import count_engine_calls


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo")
    write_demo_files(path)
    return path


def small_config(demo_dir, model="iw_nonsquare", **overrides):
    doc = json.loads((demo_dir / f"run_{model}.json").read_text())
    doc["data"]["prices_csv"] = str(demo_dir / "prices.csv")
    doc["iters"], doc["burn"] = 300, 50
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def collinear_config(demo_dir, tmp_path):
    """The demo config on a copy of the demo prices whose last column
    repeats the first, so the historical covariance is singular."""
    rows = [line.split(",") for line in (demo_dir / "prices.csv").read_text().splitlines()]
    csv_path = tmp_path / "collinear.csv"
    csv_path.write_text("".join(",".join(row[:4] + [row[1] if i else row[4]]) + "\n"
                                for i, row in enumerate(rows)))
    doc = small_config(demo_dir)
    doc["data"]["prices_csv"] = str(csv_path)
    return doc


class TestIngest:
    def test_roundtrip(self, demo_dir, tmp_path):
        out = tmp_path / "panel.json"
        assert main(["ingest", "--prices", str(demo_dir / "prices.csv"), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        with open(demo_dir / "prices.csv", newline="") as fh:
            panel = ingest_prices(fh)
        assert doc["tickers"] == list(panel.tickers) == ["AAA", "BBB", "CCC", "DDD"]
        assert doc["dates"] == [d.isoformat() for d in panel.dates]
        assert doc["rows"] == panel.prices.tolist()

    def test_utf8_byte_order_mark_is_skipped(self, demo_dir, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark; ingest
        # and a run's config read the prices the same with it as without
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (demo_dir / "prices.csv").read_bytes())
        for tag, prices in (("plain", demo_dir / "prices.csv"), ("bom", bom)):
            assert main(["ingest", "--prices", str(prices),
                         "--out", str(tmp_path / f"{tag}_panel.json")]) == 0
            doc = small_config(demo_dir, model="original")
            doc["data"]["prices_csv"] = str(prices)
            cfg = write_config(tmp_path, doc, name=f"{tag}_cfg.json")
            assert main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / f"{tag}_run.json")]) == 0
        for kind in ("panel", "run"):
            assert ((tmp_path / f"bom_{kind}.json").read_bytes()
                    == (tmp_path / f"plain_{kind}.json").read_bytes())

    def test_bad_csv_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,AAA\n2020-01-01,\n2020-01-02,3\n")
        assert main(["ingest", "--prices", str(bad), "--out", str(tmp_path / "o.json")]) == 2
        assert "blank price" in capsys.readouterr().err

    def test_missing_prices_exit_2(self, tmp_path, capsys):
        argv = ["ingest", "--prices", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "o.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRun:
    def test_smoke_original(self, demo_dir, tmp_path):
        cfg = write_config(tmp_path, small_config(demo_dir, "original"))
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "original"
        assert len(doc["weights"]) == 4
        assert "profit" in doc and isinstance(doc["profit"]["profit"], float)
        assert list(doc)[:5] == ["model", "mu_post", "sigma_post", "weights", "diagnostics"]

    def test_unwritable_out_exit_2(self, demo_dir, tmp_path, capsys, monkeypatch):
        calls = count_engine_calls(monkeypatch, cli, "run_model")
        cfg = write_config(tmp_path, small_config(demo_dir, "original"))
        out = tmp_path / "no" / "such" / "x.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []  # the output is opened before the model runs

    def test_byte_identical_reruns(self, demo_dir, tmp_path):
        cfg = write_config(tmp_path, small_config(demo_dir))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("model", ["iw_nonsquare", "iw_augmented", "log_sigma"])
    def test_empty_burn_in_reports_null_rate(self, demo_dir, tmp_path, model):
        cfg = write_config(tmp_path, small_config(demo_dir, model, iters=40, burn=0))
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert '"acceptance_rate_burn": null' in text
        assert json.loads(text)["diagnostics"]["acceptance_rate_burn"] is None

    @pytest.fixture(scope="class")
    def fresh_interpreter_modules(self, tmp_path_factory):
        """The modules a fresh interpreter has loaded after a run of every
        golden config and a one-worker golden sweep."""
        tmp_path = tmp_path_factory.mktemp("fresh")
        golden = Path(__file__).resolve().parent / "golden"
        calls = [["run", "--config", str(golden / f"config_{m}.json"),
                  "--out", str(tmp_path / f"run_{m}.json")]
                 for m in ("original", "iw_augmented", "iw_nonsquare", "log_sigma")]
        calls.append(["sweep", "--config", str(golden / "config_iw_nonsquare.json"),
                      "--grid", str(golden / "grid_2x2.json"), "--workers", "1",
                      "--out", str(tmp_path / "sweep.csv")])
        code = (
            "import json, sys\n"
            "from blbayes.cli import main\n"
            f"for argv in {calls!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        root = golden.parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 5
        return json.loads(done.stdout)

    def test_runs_and_sweep_import_no_scipy(self, fresh_interpreter_modules):
        # scipy is a test-only dependency, and importing scipy.linalg costs a
        # large share of a short run's set-up
        assert [m for m in fresh_interpreter_modules if m.split(".")[0] == "scipy"] == []

    def test_runs_and_one_batch_sweep_import_no_multiprocessing(self, fresh_interpreter_modules):
        # only a sweep of several batches starts a process pool
        assert [m for m in fresh_interpreter_modules if m.split(".")[0] == "multiprocessing"] == []

    def test_trace_written(self, demo_dir, tmp_path):
        # one row per iteration, burn-in included, holding the chain's own
        # draws at 17 digits; a Gibbs sampler accepts every step
        cfg = write_config(tmp_path, small_config(demo_dir))
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.json"),
                     "--trace", str(trace)]) == 0
        with open(trace, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["iteration", "mu_0", "mu_1", "mu_2", "mu_3", "logdet_sigma",
                          "accepted"]
        run_cfg = RunConfig.load(cfg)
        s = run_model(run_cfg.model, run_cfg.load_panel(), run_cfg.views, run_cfg.settings,
                      seed=run_cfg.seed).summary
        assert len(rows) == run_cfg.settings.iters == 300
        assert [r[0] for r in rows] == [str(t) for t in range(300)]
        assert [r[1:5] for r in rows] == [[format(v, ".17g") for v in mu]
                                          for mu in s.mu_draws.tolist()]
        assert [r[5] for r in rows] == [format(v, ".17g") for v in s.log_det_sigma.tolist()]
        assert {r[6] for r in rows} == {"1"}

    def test_unwritable_trace_exit_2(self, demo_dir, tmp_path, capsys, monkeypatch):
        calls = count_engine_calls(monkeypatch, sampling, "rng_stream")
        cfg = write_config(tmp_path, small_config(demo_dir))
        out, trace = tmp_path / "o.json", tmp_path / "no" / "such" / "t.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []  # the trace is claimed before the chain runs
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("trace_name", ["x", "./x", "sub/../x"])
    def test_trace_onto_out_exit_2(self, demo_dir, tmp_path, capsys, monkeypatch,
                                   trace_name, existing):
        # one file cannot hold both the run JSON and the trace: exit 2
        # before any chain runs, and a file already there is left as it was
        calls = count_engine_calls(monkeypatch, sampling, "rng_stream")
        cfg = write_config(tmp_path, small_config(demo_dir))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        if existing:
            (tmp_path / "x").write_text("kept")
        assert main(["run", "--config", str(cfg), "--out", "x", "--trace", trace_name]) == 2
        assert capsys.readouterr().err == "error: trace: names the same file as --out\n"
        assert calls == []
        if existing:
            assert (tmp_path / "x").read_text() == "kept"
        else:
            assert not (tmp_path / "x").exists()

    def test_failed_chain_leaves_no_output_or_trace(self, demo_dir, tmp_path, capsys,
                                                    monkeypatch):
        # the sixth covariance draw comes back non-finite
        draw = inverse_wishart.sample_inverse_wishart
        calls = []

        def failing(*args):
            calls.append(1)
            sigma_inv, log_det = draw(*args)
            return (sigma_inv * np.nan if len(calls) == 6 else sigma_inv), log_det

        monkeypatch.setattr(inverse_wishart, "sample_inverse_wishart", failing)
        cfg = write_config(tmp_path, small_config(demo_dir))
        out, trace = tmp_path / "o.json", tmp_path / "t.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--trace", str(trace)]) == 3
        assert capsys.readouterr().err == (
            "error: non-finite draw in Gibbs chain (iteration 5)\n")
        assert not out.exists() and not trace.exists()

    def test_unallocatable_chain_exit_3(self, demo_dir, tmp_path, capsys):
        # 10**14 iterations need petabytes for the draws, beyond any address
        # space, so the allocation fails at once: one error line, exit 3
        cfg = write_config(tmp_path, small_config(demo_dir, iters=10**14))
        out, trace = tmp_path / "o.json", tmp_path / "t.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--trace", str(trace)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists() and not trace.exists()

    def test_trace_of_original_exit_2(self, demo_dir, tmp_path, capsys):
        # the closed form runs no chain, so a requested trace would never appear
        cfg = write_config(tmp_path, small_config(demo_dir, "original"))
        trace, out = tmp_path / "trace.csv", tmp_path / "o.json"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == (
            "error: trace: the original model runs no chain to trace\n")
        assert not trace.exists() and not out.exists()

    def test_log_sigma_needs_four_assets(self, tmp_path, capsys):
        csv = tmp_path / "three.csv"
        lines = ["date,A,B,C"]
        from datetime import date, timedelta

        prices = 100.0
        rng = np.random.default_rng(6)
        vals = 100 * np.cumprod(1 + rng.normal(0, 0.01, size=(40, 3)), axis=0)
        for i, row in enumerate(vals):
            d = date(2020, 1, 1) + timedelta(days=i)
            lines.append(",".join([d.isoformat()] + [format(x, ".6f") for x in row]))
        csv.write_text("\n".join(lines) + "\n")
        doc = {
            "version": "1",
            "data": {"prices_csv": "three.csv", "m": 5, "test_start": "2020-02-05"},
            "model": "log_sigma",
            "views": {"P": [[1.0, -1.0, 0.0]], "q": [0.02], "omega": [1e-4]},
            "iters": 50, "burn": 5, "seed": 1,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "n >= 4" in capsys.readouterr().err

    def test_missing_field_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": "1", "model": "original"})
        assert main(["run", "--config", str(cfg)]) == 2
        assert "data" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, demo_dir, tmp_path, capsys):
        # the default Sigma0 scales the historical covariance, which is
        # singular when two assets' prices coincide
        cfg = write_config(tmp_path, collinear_config(demo_dir, tmp_path))
        assert main(["run", "--config", str(cfg)]) == 3
        assert "positive definite" in capsys.readouterr().err

    def test_failed_run_leaves_no_output(self, demo_dir, tmp_path):
        cfg = write_config(tmp_path, collinear_config(demo_dir, tmp_path))
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        # an output file that was there before the run is left as it was
        out.write_text("earlier")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert out.read_text() == "earlier"

    def test_non_finite_output_exit_3(self, demo_dir, tmp_path, capsys):
        # a finite but huge capital overflows the profit to infinity, which
        # JSON cannot hold: one error line naming the field, no output file
        doc = small_config(demo_dir, model="original", capital=1e308)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: profit.profit: -inf is not a finite number\n"
        assert not out.exists()

    def test_small_nu_without_sigma0_exit_2(self, demo_dir, tmp_path, capsys):
        # n = 4: nu = 4.5 is a valid Inverse-Wishart dof, but the default
        # Sigma0 = (nu - n - 1) * hist covariance would not be SPD
        cfg = write_config(tmp_path, small_config(demo_dir, nu=4.5))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "nu: must exceed n+1" in capsys.readouterr().err

    def test_sigma_mean_without_enough_data_exit_2(self, demo_dir, tmp_path, capsys,
                                                   monkeypatch):
        # n = 4, nu = 4 with an explicit Sigma0 and one row of returns: the
        # conditional mean of Sigma has nu + m - n - 1 = 0 in its
        # denominator, so the run fails naming data.m before any chain runs
        calls = count_engine_calls(monkeypatch, sampling, "rng_stream")
        doc = small_config(demo_dir, nu=4.0, sigma0=(1e-3 * np.eye(4)).tolist())
        doc["data"]["m"] = 1
        out = tmp_path / "o.json"
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data.m: ") and "nu + m > n + 1" in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("sigma0, message", [
        (np.diag([1.0, 1.0, 1.0, -1.0]), "is not positive definite"),
        (np.eye(4) + np.triu(np.full((4, 4), 1e-3), 1), "is not symmetric"),
    ], ids=["indefinite", "asymmetric"])
    def test_bad_sigma0_exit_2(self, demo_dir, tmp_path, capsys, monkeypatch, command,
                               sigma0, message):
        # the config is rejected naming sigma0 before the prices are read
        calls = count_engine_calls(monkeypatch, data, "ingest_prices")
        cfg = write_config(tmp_path, small_config(demo_dir, sigma0=sigma0.tolist()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4], "omega2": [1e-4]}))
        out = tmp_path / "out"
        extra = ["--grid", str(grid)] if command == "sweep" else []
        assert main([command, "--config", str(cfg), *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sigma0: ") and message in err and err.count("\n") == 1
        assert calls == [] and not out.exists()

    def test_single_post_burn_draw_exit_2(self, demo_dir, tmp_path, capsys):
        # one post-burn draw has an infinite standard error; the config is
        # rejected up front, naming burn, instead of failing at JSON output
        cfg = write_config(tmp_path, small_config(demo_dir, iters=2, burn=1))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "burn" in capsys.readouterr().err

    def test_duplicate_ticker_exit_2(self, demo_dir, tmp_path, capsys):
        # the repeated column makes the panel's tickers differ from the
        # config's list, but the header is rejected first, naming the ticker
        lines = (demo_dir / "prices.csv").read_text().splitlines()
        lines[0] = lines[0].replace("BBB", "AAA")
        prices = tmp_path / "dup.csv"
        prices.write_text("\n".join(lines) + "\n")
        doc = small_config(demo_dir)
        doc["data"]["prices_csv"] = str(prices)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "ticker 'AAA' more than once" in capsys.readouterr().err
        assert main(["ingest", "--prices", str(prices), "--out", str(out)]) == 2
        assert "ticker 'AAA' more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_tickers_rejected(self, demo_dir, tmp_path, capsys):
        doc = small_config(demo_dir)
        doc["data"]["tickers"] = ["AAA", "BBB", "CCC", "XXX"]
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "tickers" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


class TestNonFiniteNumbers:
    """JSON admits NaN and Infinity; every number of a config, a grid or a
    weights file must be finite, and a run exits 2 naming the field."""

    @pytest.mark.parametrize("model, keys, value, path", [
        ("iw_nonsquare", ("views", "omega"), [NAN, 1e-4], "views.omega[0]"),
        ("iw_nonsquare", ("views", "omega"), [INF, 1e-4], "views.omega[0]"),
        ("iw_nonsquare", ("views", "q"), [NAN, 0.05], "views.q[0]"),
        ("iw_nonsquare", ("views", "P"), [[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -INF]],
         "views.P[1][3]"),
        ("iw_nonsquare", ("capital",), NAN, "capital"),
        ("iw_nonsquare", ("risk_aversion",), INF, "risk_aversion"),
        ("iw_nonsquare", ("tau",), NAN, "tau"),
        ("iw_nonsquare", ("nu",), NAN, "nu"),
        ("iw_nonsquare", ("sigma0",), [[1.0, 0, 0, 0], [0, NAN, 0, 0], [0, 0, 1.0, 0],
                                       [0, 0, 0, 1.0]], "sigma0[1][1]"),
        ("original", ("w_eq",), [0.25, 0.25, INF, 0.25], "w_eq[2]"),
        ("iw_nonsquare", ("capital",), 10**400, "capital"),
    ], ids=["omega-nan", "omega-inf", "q-nan", "P-inf", "capital-nan", "risk_aversion-inf",
            "tau-nan", "nu-nan", "sigma0-nan", "w_eq-inf", "capital-huge-int"])
    def test_run_config_exit_2(self, demo_dir, tmp_path, capsys, model, keys, value, path):
        doc = small_config(demo_dir, model)
        _set(doc, keys, value)
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        assert f"error: {path}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, values, path", [
        ("omega1", [NAN, 1e-4], "omega1[0]"),
        ("omega2", [1e-4, INF], "omega2[1]"),
    ], ids=["omega1-nan", "omega2-inf"])
    def test_sweep_grid_exit_2(self, demo_dir, tmp_path, capsys, key, values, path):
        grid = {"omega1": [1e-4], "omega2": [1e-4], key: values}
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        cfg = write_config(tmp_path, small_config(demo_dir))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--grid", str(grid_path),
                     "--out", str(out)]) == 2
        assert f"error: {path}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        (NAN, "weights: expected a flat array of finite weights"),
        (10**400, "weights: expected a flat array of numbers"),
    ], ids=["nan", "huge-int"])
    def test_backtest_weights_exit_2(self, demo_dir, tmp_path, capsys, bad, message):
        cfg = write_config(tmp_path, small_config(demo_dir, "original"))
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"weights": [0.25, bad, 0.25, 0.25]}))
        assert main(["backtest", "--config", str(cfg), "--weights", str(path),
                     "--out", str(tmp_path / "bt.json")]) == 2
        assert message in capsys.readouterr().err


class TestSweep:
    def test_workers_do_not_change_bytes(self, demo_dir, tmp_path):
        cfg = write_config(tmp_path, small_config(demo_dir))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4, 5e-4], "omega2": [1e-4], "base_seed": 3}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--grid", str(grid),
                     "--workers", "1", "--out", str(a)]) == 0
        assert main(["sweep", "--config", str(cfg), "--grid", str(grid),
                     "--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_bytes_across_factor_blocks(self, demo_dir, tmp_path):
        # chains that refill their Bartlett factors twice, in batches of
        # three points, two and one (one worker), and one point each
        block = inverse_wishart.BLOCK
        cfg = write_config(tmp_path, small_config(demo_dir, iters=2 * block + 3, burn=block))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4, 5e-4, 1e-3], "omega2": [1e-4],
                                    "base_seed": 4}))
        outs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}.csv"
            assert main(["sweep", "--config", str(cfg), "--grid", str(grid),
                         "--workers", workers, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0].count(b",ok,") == 3
        assert outs[0] == outs[1] == outs[2]

    def test_log_sigma_sweep(self, demo_dir, tmp_path):
        # the log-covariance points run one chain each on the stream
        # (base_seed, row): the bytes do not depend on the workers, and each
        # row is run_model of its point on that stream
        cfg = write_config(tmp_path, small_config(demo_dir, "log_sigma", iters=60, burn=10))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4, 5e-4], "omega2": [1e-3], "base_seed": 6}))
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            assert main(["sweep", "--config", str(cfg), "--grid", str(grid),
                         "--workers", workers, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        run_cfg = RunConfig.load(cfg)
        panel = run_cfg.load_panel()
        with open(tmp_path / "w1.csv", newline="") as fh:
            _, *rows = list(csv.reader(fh))
        assert len(rows) == 2
        for row_id, (row, omega1) in enumerate(zip(rows, [1e-4, 5e-4])):
            res = run_model("log_sigma", panel, run_cfg.views.with_omega([omega1, 1e-3]),
                            run_cfg.settings, seed=6, stream_id=row_id)
            assert row == [format(omega1, ".17g"), format(1e-3, ".17g"),
                           format(res.distance, ".17g"), format(res.profit, ".17g"), "ok",
                           format(res.summary.acceptance_rate, ".17g"), "6"]

    @pytest.mark.parametrize("base_seed", [-1, 2**64])
    def test_out_of_range_base_seed_exit_2(self, demo_dir, tmp_path, capsys, base_seed):
        cfg = write_config(tmp_path, small_config(demo_dir))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4], "omega2": [1e-4], "base_seed": base_seed}))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--grid", str(grid), "--out", str(out)]) == 2
        assert "base_seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_exit_2(self, demo_dir, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, small_config(demo_dir))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4], "omega2": [1e-4]}))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--grid", str(grid),
                     "--workers", workers, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: workers: must be >= 1\n"
        assert not out.exists()

    def test_unwritable_out_fails_before_sweeping(self, demo_dir, tmp_path, monkeypatch):
        calls = count_engine_calls(monkeypatch, cli, "run_sweep")
        cfg = write_config(tmp_path, small_config(demo_dir))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4], "omega2": [1e-4]}))
        out = tmp_path / "no" / "such" / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--grid", str(grid), "--out", str(out)]) == 2
        assert calls == []

    def test_error_row_isolation(self, demo_dir, tmp_path):
        cfg = write_config(tmp_path, small_config(demo_dir))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-13, 1e-4], "omega2": [1e-4]}))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--grid", str(grid), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert "error:ValidationError" in rows[1]
        assert rows[2].split(",")[4] == "ok"

    def test_paper_shaped_grid_layout(self, demo_dir, tmp_path):
        # four rectangular ranges reproduced from one grid file apiece
        cfg = write_config(tmp_path, small_config(demo_dir, model="original"))
        ranges = [
            (1e-6, 1e-5, 1e-6, 1e-5),
            (1e-5, 1e-4, 1e-5, 1e-4),
            (1e-6, 1e-5, 1e-5, 1e-4),
            (1e-5, 1e-4, 1e-6, 1e-5),
        ]
        for i, (a0, a1, b0, b1) in enumerate(ranges):
            grid = tmp_path / f"grid{i}.json"
            grid.write_text(json.dumps({
                "omega1": list(np.linspace(a0, a1, 3)),
                "omega2": list(np.linspace(b0, b1, 3)),
            }))
            out = tmp_path / f"s{i}.csv"
            assert main(["sweep", "--config", str(cfg), "--grid", str(grid),
                         "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 10


class TestBacktestCommand:
    def test_profit_matches_library(self, demo_dir, tmp_path):
        doc = small_config(demo_dir, "original")
        cfg = write_config(tmp_path, doc)
        run_out = tmp_path / "run.json"
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        bt_out = tmp_path / "bt.json"
        assert main(["backtest", "--config", str(cfg), "--weights", str(run_out),
                     "--out", str(bt_out)]) == 0
        bt = json.loads(bt_out.read_text())
        run_doc = json.loads(run_out.read_text())
        assert bt["profit"] == pytest.approx(run_doc["profit"]["profit"], rel=1e-12)

        panel = RunConfig.load(cfg).load_panel()
        direct, _ = backtest_profit(np.array(run_doc["weights"]), panel.test, 100_000.0)
        assert bt["profit"] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("weights", [["a", 1, 2, 3], [[1, 2], [3]], {"a": 1}])
    def test_non_numeric_weights_exit_2(self, demo_dir, tmp_path, capsys, weights):
        cfg = write_config(tmp_path, small_config(demo_dir, "original"))
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"weights": weights}))
        assert main(["backtest", "--config", str(cfg), "--weights", str(path),
                     "--out", str(tmp_path / "bt.json")]) == 2
        assert "weights: expected a flat array of numbers" in capsys.readouterr().err


def _late_window_config(demo_dir, model="iw_nonsquare", **overrides):
    """The demo config with its test window after the last price."""
    doc = small_config(demo_dir, model, **overrides)
    doc["data"]["test_start"] = "2019-06-01"
    return doc


class TestInputFiles:
    """Every input file is read as UTF-8 with a leading byte-order mark
    skipped; one that cannot be read exits 2 naming the file."""

    @pytest.fixture
    def inputs(self, demo_dir):
        """The UTF-8 bytes of a run config, a sweep grid and a weights file."""
        docs = {"config": small_config(demo_dir, "original"),
                "grid": {"omega1": [1e-4, 5e-4], "omega2": [1e-4], "base_seed": 3},
                "weights": {"weights": [0.25, -0.5, 0.75, 0.5]}}
        return {name: json.dumps(doc).encode() for name, doc in docs.items()}

    @staticmethod
    def _argv(tmp_path, command, inputs, tag=""):
        """Write ``inputs`` to ``<tag><name>.json`` and return the argv of
        ``command`` reading them, with its output at ``<tag><command>.out``."""
        files = {}
        for name, data in inputs.items():
            files[name] = str(tmp_path / f"{tag}{name}.json")
            Path(files[name]).write_bytes(data)
        if command == "ingest":
            prices = json.loads(inputs["config"])["data"]["prices_csv"]
            argv = ["ingest", "--prices", prices]
        else:
            argv = [command, "--config", files["config"]]
        argv += {"sweep": ["--grid", files["grid"]],
                 "backtest": ["--weights", files["weights"]]}.get(command, [])
        return argv + ["--out", str(tmp_path / f"{tag}{command}.out")]

    @pytest.mark.parametrize("bad, command", [
        ("config", "run"), ("grid", "sweep"), ("weights", "backtest"),
    ])
    def test_non_utf8_json_exit_2(self, tmp_path, capsys, inputs, bad, command):
        # a Latin-1 byte in a field the reader would otherwise ignore
        inputs[bad] = inputs[bad][:-1] + ', "note": "caf\u00e9"}'.encode("latin-1")
        argv = self._argv(tmp_path, command, inputs)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / bad}.json: cannot read {bad}: 'utf-8' codec")
        assert err.count("\n") == 1
        assert not Path(argv[-1]).exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "backtest"])
    def test_byte_order_mark_is_skipped(self, tmp_path, inputs, command):
        outputs = []
        for tag, mark in (("plain_", b""), ("bom_", b"\xef\xbb\xbf")):
            argv = self._argv(tmp_path, command,
                              {name: mark + data for name, data in inputs.items()}, tag)
            assert main(argv) == 0
            outputs.append(Path(argv[-1]).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name, text, message", [
        ("grid", b"[0.0001, 0.0001]", "grid must be an object in JSON"),
        ("weights", b'"0.25, 0.25"', "weights must be an object or an array in JSON"),
    ])
    def test_json_of_the_wrong_kind_exit_2(self, tmp_path, capsys, inputs, name, text, message):
        inputs[name] = text
        command = {"grid": "sweep", "weights": "backtest"}[name]
        assert main(self._argv(tmp_path, command, inputs)) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / name}.json: {message}\n"

    @pytest.mark.parametrize("case", ["long-integer", "deep-nesting"])
    def test_json_python_cannot_parse_exit_2(self, tmp_path, capsys, inputs, case):
        # Python's int conversion refuses more than 4,300 digits by default,
        # and its JSON decoder recurses once per level of nesting
        inputs["config"] = inputs["config"].replace(b'"iters": 300', b'"iters": ' + (
            b"1" * 5000 if case == "long-integer" else b"[" * 100_000 + b"]" * 100_000))
        assert main(self._argv(tmp_path, "run", inputs)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'config.json'}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["latin1-header", "oversized-cell"])
    @pytest.mark.parametrize("command", ["ingest", "run", "sweep", "backtest"])
    def test_unreadable_prices_exit_2(self, demo_dir, tmp_path, capsys, inputs, case, command):
        lines = (demo_dir / "prices.csv").read_bytes().split(b"\n")
        if case == "latin1-header":
            lines[0] = lines[0].replace(b"AAA", b"A\xe9A")
        else:  # the csv module refuses a cell over 131,072 characters
            cells = lines[5].split(b",")
            lines[5] = b",".join([cells[0], b"1" * 140_000, *cells[2:]])
        prices = tmp_path / "prices.csv"
        prices.write_bytes(b"\n".join(lines))
        doc = json.loads(inputs["config"])
        doc["data"]["prices_csv"] = str(prices)
        inputs["config"] = json.dumps(doc).encode()
        argv = self._argv(tmp_path, command, inputs)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prices}: cannot read prices: ") and err.count("\n") == 1
        assert not Path(argv[-1]).exists()


class TestEmptyTestWindow:
    """A command that computes a profit needs a test window: an empty one
    exits 2 naming data.test_start before any chain runs."""

    def test_sweep_exit_2(self, demo_dir, tmp_path, capsys, monkeypatch):
        calls = count_engine_calls(monkeypatch, sampling, "rng_stream")
        cfg = write_config(tmp_path, _late_window_config(demo_dir))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--grid",
                     str(demo_dir / "grid_small.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: data.test_start: empty test window: no price from 2019-06-01 on\n")
        assert calls == [] and not out.exists()

    def test_run_with_backtest_exit_2(self, demo_dir, tmp_path, capsys, monkeypatch):
        calls = count_engine_calls(monkeypatch, sampling, "rng_stream")
        cfg = write_config(tmp_path, _late_window_config(demo_dir, backtest=True))
        out = tmp_path / "o.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: data.test_start: empty test window")
        assert calls == [] and not out.exists()

    def test_run_without_backtest_needs_no_window(self, demo_dir, tmp_path):
        cfg = write_config(tmp_path, _late_window_config(demo_dir, backtest=False))
        out = tmp_path / "o.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "profit" not in json.loads(out.read_text())

    def test_backtest_exit_2(self, demo_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, _late_window_config(demo_dir, "original"))
        weights = tmp_path / "w.json"
        weights.write_text("[0.25, 0.25, 0.25, 0.25]")
        out = tmp_path / "bt.json"
        assert main(["backtest", "--config", str(cfg), "--weights", str(weights),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: data.test_start: empty test window")
        assert not out.exists()


class TestHistoryUse:
    """Only the original model and the Inverse-Wishart models' default Sigma0
    read the historical window. The demo data has 1,041 return rows before
    its test window, so data.m 1041 leaves no history and 1040 one row."""

    @pytest.mark.parametrize("model, m, sigma0", [
        ("log_sigma", 1041, None),
        ("log_sigma", 1040, None),
        ("iw_nonsquare", 1040, 1e-4),
    ], ids=["log_sigma-no-history", "log_sigma-one-row", "iw_nonsquare-sigma0-one-row"])
    def test_model_without_history_runs(self, demo_dir, tmp_path, model, m, sigma0):
        doc = small_config(demo_dir, model)
        doc["data"]["m"] = m
        if sigma0 is not None:
            doc["sigma0"] = (sigma0 * np.eye(4)).tolist()
        out = tmp_path / "o.json"
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        assert np.isfinite(json.loads(out.read_text())["mu_post"]).all()

    @pytest.mark.parametrize("model", ["original", "iw_nonsquare"])
    def test_model_reading_history_needs_two_rows(self, demo_dir, tmp_path, capsys, model):
        doc = small_config(demo_dir, model)
        doc["data"]["m"] = 1040
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 2
        assert capsys.readouterr().err == (
            "error: need at least 2 historical rows for a covariance\n")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("model, m, message", [
        ("iw_augmented", 400, "need at least 3 monthly mean vectors, got 1"),
        ("original", 1040, "need at least 2 historical rows for a covariance"),
        ("iw_nonsquare", 1040, "need at least 2 historical rows for a covariance"),
    ], ids=["iw_augmented-one-month", "original-one-row", "iw_nonsquare-one-row"])
    def test_short_history_exit_2_before_any_chain(self, demo_dir, tmp_path, capsys,
                                                   monkeypatch, command, model, m, message):
        # a rule of the prices, not of omega: a sweep fails as a whole, as
        # the run does, with one error line and no CSV, and runs no chain
        chains = count_engine_calls(monkeypatch, sampling, "rng_stream")
        doc = small_config(demo_dir, model)
        doc["data"]["m"] = m
        extra = ["--grid", str(demo_dir / "grid_small.json")] if command == "sweep" else []
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, doc)), *extra,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert chains == [] and not out.exists()


# two parallel relative views on the demo's four assets: P has row rank 1
RANK_ONE_VIEWS = {"P": [[1, -1, 0, 0], [2, -2, 0, 0]], "q": [0.001, 0.002],
                  "omega": [1e-4, 1e-4]}


class TestConfigRules:
    """Every rule the config document alone decides exits 2 naming its
    field, before the prices are read."""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("model, overrides, m, field", [
        ("iw_nonsquare", {"nu": 4.5}, None, "nu: must exceed n+1 = 5 unless sigma0 is given"),
        ("iw_augmented", {"nu": 4.0, "sigma0": (1e-4 * np.eye(4)).tolist()}, 1,
         "data.m: the posterior mean of Sigma needs nu + m > n + 1 = 5"),
        ("log_sigma", {}, 4, "data.m: the log-covariance model needs m > n = 4"),
        ("iw_augmented", {"nu": 0.5, "sigma0": (1e-4 * np.eye(4)).tolist()}, None,
         "nu: must exceed n-1 = 3"),
        ("iw_augmented", {"views": RANK_ONE_VIEWS}, None,
         "views.P: P has row rank 1 < k = 2\n"),
    ], ids=["iw-nu-without-sigma0", "iw-nu-plus-m", "log_sigma-m", "iw-nu-below-n-1",
            "iw_augmented-rank"])
    def test_rule_exit_2_before_prices(self, demo_dir, tmp_path, capsys, monkeypatch,
                                       command, model, overrides, m, field):
        calls = count_engine_calls(monkeypatch, data, "ingest_prices")
        chains = count_engine_calls(monkeypatch, sampling, "rng_stream")
        doc = small_config(demo_dir, model, **overrides)
        if m is not None:
            doc["data"]["m"] = m
        extra = ["--grid", str(demo_dir / "grid_small.json")] if command == "sweep" else []
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, doc)), *extra,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1
        assert calls == chains == [] and not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("model", ["iw_nonsquare", "original", "log_sigma"])
    def test_rank_deficient_p_runs_unaugmented(self, demo_dir, tmp_path, command, model):
        # only iw_augmented extends P to an invertible P*; the other models
        # take two parallel views as they are
        doc = small_config(demo_dir, model, views=RANK_ONE_VIEWS, iters=60, burn=10)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4], "omega2": [1e-3]}))
        extra = ["--grid", str(grid)] if command == "sweep" else []
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, doc)), *extra,
                     "--out", str(out)]) == 0
        if command == "sweep":
            assert out.read_text().count(",ok,") == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("model", ["log_sigma", "original"])
    def test_unused_sigma0_is_not_checked(self, demo_dir, tmp_path, command, model):
        # sigma0 belongs to the Inverse-Wishart prior; the other models
        # ignore it, so an indefinite one passes (test_bad_sigma0_exit_2
        # has the Inverse-Wishart model exit 2 with it)
        doc = small_config(demo_dir, model, sigma0=np.diag([1.0, 1.0, 1.0, -1.0]).tolist())
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4], "omega2": [1e-4]}))
        extra = ["--grid", str(grid)] if command == "sweep" else []
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, doc)), *extra,
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("model", ["log_sigma", "original"])
    def test_unused_nu_is_not_checked(self, demo_dir, tmp_path, command, model):
        # nu belongs to the Inverse-Wishart prior; the other models ignore it
        doc = small_config(demo_dir, model, nu=0.5)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4], "omega2": [1e-4]}))
        extra = ["--grid", str(grid)] if command == "sweep" else []
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, doc)), *extra,
                     "--out", str(out)]) == 0
        if command == "sweep":
            assert out.read_text().count(",ok,") == 1

    @pytest.mark.parametrize("field", ["data.m", "iters", "burn", "seed", "base_seed"])
    def test_boolean_integer_exit_2(self, demo_dir, tmp_path, capsys, field):
        doc = small_config(demo_dir)
        grid = {"omega1": [1e-4], "omega2": [1e-4]}
        if field == "data.m":
            doc["data"]["m"] = True
        elif field == "base_seed":
            grid["base_seed"] = True
        else:
            doc[field] = True
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(write_config(tmp_path, doc)),
                     "--grid", str(grid_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {field}: expected int\n"
        assert not out.exists()


def _error_classes(cls=errors.BlBayesError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error_class", sorted(set(_error_classes()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_exit_code_follows_error_class(tmp_path, capsys, monkeypatch, error_class):
    # the class hierarchy alone decides the exit code: an InputError exits 2,
    # any other package error 3, each with one error line
    def fail(args):
        raise error_class("field", "message")

    monkeypatch.setattr(cli, "_cmd_ingest", fail)
    expected = 2 if issubclass(error_class, errors.InputError) else 3
    assert main(["ingest", "--prices", "p.csv", "--out", str(tmp_path / "o.json")]) == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
