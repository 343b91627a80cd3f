"""Front-end contracts: exit codes, determinism, and output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blbayes.backtest import backtest_profit
from blbayes.cli import main
from blbayes.config import RunConfig
from blbayes.data import PricePanel
from blbayes.demo import write_demo_files


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


class TestIngest:
    def test_roundtrip(self, demo_dir, tmp_path):
        out = tmp_path / "panel.json"
        assert main(["ingest", "--prices", str(demo_dir / "prices.csv"), "--out", str(out)]) == 0
        panel = PricePanel.from_json(out.read_text())
        assert panel.tickers == ("AAA", "BBB", "CCC", "DDD")

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

    def test_unwritable_out_exit_2(self, demo_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config(demo_dir, "original"))
        out = tmp_path / "no" / "such" / "x.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_runs_and_sweep_import_no_scipy(self, tmp_path):
        # scipy is a test-only dependency, and importing scipy.linalg costs a
        # large share of a short run's set-up
        golden = Path(__file__).resolve().parent / "golden"
        calls = [["run", "--config", str(golden / f"config_{m}.json"),
                  "--out", str(tmp_path / f"run_{m}.json")]
                 for m in ("original", "iw_augmented", "iw_nonsquare", "log_sigma")]
        calls.append(["sweep", "--config", str(golden / "config_iw_nonsquare.json"),
                      "--grid", str(golden / "grid_2x2.json"), "--workers", "1",
                      "--out", str(tmp_path / "sweep.csv")])
        code = (
            "import sys\n"
            "from blbayes.cli import main\n"
            f"for argv in {calls!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        root = golden.parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 5

    def test_trace_written(self, demo_dir, tmp_path):
        cfg = write_config(tmp_path, small_config(demo_dir))
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.json"),
                     "--trace", str(trace)]) == 0
        assert trace.read_text().startswith("iteration,mu_0")

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
        doc = small_config(demo_dir)
        doc["sigma0"] = [[1.0, 0.0, 0.0, 0.0],
                        [0.0, -1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]]
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg)]) == 3
        assert "positive definite" in capsys.readouterr().err

    def test_small_nu_without_sigma0_exit_2(self, demo_dir, tmp_path, capsys):
        # n = 4: nu = 4.5 is a valid Inverse-Wishart dof, but the default
        # Sigma0 = (nu - n - 1) * hist covariance would not be SPD
        cfg = write_config(tmp_path, small_config(demo_dir, nu=4.5))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "nu: must exceed n+1" in capsys.readouterr().err

    def test_single_post_burn_draw_exit_2(self, demo_dir, tmp_path, capsys):
        # one post-burn draw has an infinite standard error; the config is
        # rejected up front, naming burn, instead of failing at JSON output
        cfg = write_config(tmp_path, small_config(demo_dir, iters=2, burn=1))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "burn" in capsys.readouterr().err

    def test_wrong_tickers_rejected(self, demo_dir, tmp_path, capsys):
        doc = small_config(demo_dir)
        doc["data"]["tickers"] = ["AAA", "BBB", "CCC", "XXX"]
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "tickers" in capsys.readouterr().err


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

    @pytest.mark.parametrize("base_seed", [-1, 2**64])
    def test_out_of_range_base_seed_exit_2(self, demo_dir, tmp_path, capsys, base_seed):
        cfg = write_config(tmp_path, small_config(demo_dir))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"omega1": [1e-4], "omega2": [1e-4], "base_seed": base_seed}))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--grid", str(grid), "--out", str(out)]) == 2
        assert "base_seed" in capsys.readouterr().err
        assert not out.exists()

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
