"""Config validation field paths and the byte-stable JSON writer."""

import json

import numpy as np
import pytest

from blbayes import jsonio
from blbayes.config import RunConfig, load_grid
from blbayes.errors import ValidationError


def base_doc(tmp_path):
    csv = tmp_path / "p.csv"
    lines = ["date,A,B"]
    from datetime import date, timedelta

    rng = np.random.default_rng(3)
    vals = 100 * np.cumprod(1 + rng.normal(0, 0.01, size=(30, 2)), axis=0)
    for i, row in enumerate(vals):
        d = date(2020, 1, 1) + timedelta(days=i)
        lines.append(f"{d.isoformat()},{row[0]:.6f},{row[1]:.6f}")
    csv.write_text("\n".join(lines) + "\n")
    return {
        "version": "1",
        "data": {"prices_csv": "p.csv", "m": 5, "test_start": "2020-01-25"},
        "model": "iw_nonsquare",
        "views": {"P": [[1.0, -1.0]], "q": [0.02], "omega": [1e-4]},
        "iters": 100,
        "burn": 10,
        "seed": 7,
    }


def write(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestRunConfigValidation:
    def test_happy_path(self, tmp_path):
        cfg = RunConfig.load(write(tmp_path, base_doc(tmp_path)))
        assert cfg.model == "iw_nonsquare" and cfg.m == 5
        panel = cfg.load_panel()
        assert panel.m == 5

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            (lambda d: d.pop("version"), "version"),
            (lambda d: d.update(version="2"), "version"),
            (lambda d: d.pop("data"), "data"),
            (lambda d: d["data"].pop("m"), "data.m"),
            (lambda d: d["data"].update(m=0), "data.m"),
            (lambda d: d["data"].update(test_start="Jan 2, 2020"), "data.test_start"),
            (lambda d: d.update(model="bogus"), "model"),
            (lambda d: d["views"].update(q=[0.02, "x"]), "views.q"),
            (lambda d: d["views"].update(omega=[-1e-4]), "views.omega"),
            (lambda d: d.update(burn=100), "burn"),
            (lambda d: d.update(tau=-0.1), "tau"),
            (lambda d: d.update(nu=0.5), "nu"),
            (lambda d: d.update(sigma0=[[1.0]]), "sigma0"),
            (lambda d: d.update(seed=-3), "seed"),
        ],
    )
    def test_field_paths_in_errors(self, tmp_path, mutate, path_fragment):
        doc = base_doc(tmp_path)
        mutate(doc)
        with pytest.raises(ValidationError) as err:
            RunConfig.load(write(tmp_path, doc))
        assert path_fragment in str(err.value)

    def test_original_requires_w_eq(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["model"] = "original"
        with pytest.raises(ValidationError, match="w_eq"):
            RunConfig.load(write(tmp_path, doc))

    def test_log_sigma_asset_count_guard(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["model"] = "log_sigma"
        with pytest.raises(ValidationError, match="n >= 4"):
            RunConfig.load(write(tmp_path, doc))

    def test_grid_defaults_to_config_seed(self, tmp_path):
        grid_path = tmp_path / "g.json"
        grid_path.write_text(json.dumps({"omega1": [1e-4], "omega2": [1e-5]}))
        grid = load_grid(grid_path, default_seed=99, model="original")
        assert grid.base_seed == 99
        assert grid.omega1_values == (1e-4,)

    def test_grid_rejects_bad_values(self, tmp_path):
        grid_path = tmp_path / "g.json"
        grid_path.write_text(json.dumps({"omega1": [], "omega2": [1e-5]}))
        with pytest.raises(ValidationError):
            load_grid(grid_path, default_seed=1, model="original")


class TestJsonWriter:
    def test_key_order_preserved(self):
        text = jsonio.dumps({"b": 1, "a": 2})
        assert text.find('"b"') < text.find('"a"')

    def test_seventeen_significant_digits_round_trip(self):
        values = [0.1, 1e-7, np.pi, 2.0 / 3.0, 1234567.891011, 5e-324]
        text = jsonio.dumps({"v": values})
        back = json.loads(text)["v"]
        assert back == values  # exact round trip at 17 significant digits

    def test_numpy_containers(self):
        doc = {"a": np.arange(3), "m": np.eye(2), "x": np.float64(0.5), "n": np.int64(4)}
        back = json.loads(jsonio.dumps(doc))
        assert back == {"a": [0, 1, 2], "m": [[1.0, 0.0], [0.0, 1.0]], "x": 0.5, "n": 4}

    def test_booleans(self):
        # bool is an int subclass; it must not be written as 1
        assert jsonio.dumps({"t": True, "f": np.bool_(False)}) == (
            '{\n  "t": true,\n  "f": false\n}\n'
        )

    def test_numpy_scalar_and_container_bytes(self):
        doc = {"f32": np.float32(0.1), "i32": np.int32(-3), "i64": np.int64(2**40),
               "b": np.bool_(True), "t": (1, 2.5), "m": np.array([[1.5, 2], [3, 4]]),
               "e": [], "d": {}, "z": np.zeros(0)}
        assert jsonio.dumps(doc) == """{
  "f32": 0.10000000149011612,
  "i32": -3,
  "i64": 1099511627776,
  "b": true,
  "t": [
    1,
    2.5
  ],
  "m": [
    [
      1.5,
      2
    ],
    [
      3,
      4
    ]
  ],
  "e": [],
  "d": {},
  "z": []
}
"""

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            jsonio.dumps({"x": float("nan")})
        with pytest.raises(ValueError):
            jsonio.dumps({"x": float("inf")})

    def test_stable_bytes(self):
        doc = {"z": [1.0, 2.5], "a": {"nested": True, "s": "text"}}
        assert jsonio.dumps(doc) == jsonio.dumps(doc)
