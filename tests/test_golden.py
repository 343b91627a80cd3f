"""Golden outputs: short CLI runs of every model and a 2x2 sweep must
reproduce the committed files under ``tests/golden/``.

Floats may drift by rounding (relative tolerance ``RTOL``); keys and their
order, integers, strings, booleans, sweep ``status``/``seed`` and the trace's
``iteration``/``accepted`` columns must match exactly. See
``tests/golden/README.md`` for how the files were made.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from blbayes.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODELS = ("original", "iw_augmented", "iw_nonsquare", "log_sigma")
RTOL = 1e-10
# CSV columns compared as exact strings; every other column is a float.
EXACT_COLUMNS = {"iteration", "accepted", "status", "seed"}


def assert_close(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ"
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        same_nan = math.isnan(got) and math.isnan(want)
        assert same_nan or math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), (
            f"{path}: {got!r} != {want!r}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def assert_csv_close(got_path: Path, want_path: Path):
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(want_path, newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0], "header differs"
    assert len(got) == len(want), "row count differs"
    for r, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(g_row) == len(w_row), f"row {r}: cell count differs"
        for col, g, w in zip(want[0], g_row, w_row):
            if col in EXACT_COLUMNS:
                assert g == w, f"row {r} {col}: {g!r} != {w!r}"
            else:
                assert_close(float(g), float(w), f"row {r} {col}")


@pytest.mark.parametrize("model", MODELS)
def test_run_matches_golden(model, tmp_path):
    out = tmp_path / "run.json"
    argv = ["run", "--config", str(GOLDEN / f"config_{model}.json"), "--out", str(out)]
    if model == "log_sigma":
        argv += ["--trace", str(tmp_path / "trace.csv")]
    assert main(argv) == 0
    assert_close(json.loads(out.read_text()),
                 json.loads((GOLDEN / f"run_{model}.json").read_text()))
    if model == "log_sigma":
        assert_csv_close(tmp_path / "trace.csv", GOLDEN / "trace_log_sigma.csv")


def test_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(GOLDEN / "config_iw_nonsquare.json"),
                 "--grid", str(GOLDEN / "grid_2x2.json"), "--workers", "1",
                 "--out", str(out)]) == 0
    assert_csv_close(out, GOLDEN / "sweep_iw_nonsquare.csv")


def test_comparison_is_strict_on_exact_fields():
    assert_close({"a": 1.0, "b": [1, "x"]}, {"a": 1.0 * (1 + 1e-12), "b": [1, "x"]})
    with pytest.raises(AssertionError):
        assert_close({"a": 1.0}, {"a": 1.0 + 1e-9})
    with pytest.raises(AssertionError):
        assert_close({"b": 1, "a": 1.0}, {"a": 1.0, "b": 1})
    with pytest.raises(AssertionError):
        assert_close({"seed": 2}, {"seed": 1})
