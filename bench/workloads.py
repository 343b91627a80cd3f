"""Workload inputs, operations and correctness checks.

Every operation is one in-process call of ``blbayes.cli.main`` (``run`` or
``sweep``) on files this module writes from the workload seed. The checks
read only the program's output files, plus the long-chain reference that
``make_reference.py`` stores in ``reference.json``.

Why these workloads:

* ``demo_run`` -- the paper's size (n=4, m=21, bundled demo data), cycling
  the four models. Python and numpy call overhead sets the pace and the
  Inverse-Wishart Gibbs kernels dominate; the process pool is not used.
* ``log_sigma_n10`` -- the log-covariance sampler on synthetic data with
  n=10, m=30 (d=55). The d-by-d proposal, ``build_Q``/``build_f_vectors`` and
  the exact-density MH step dominate; the IW kernels are absent, and the
  sampler's acceptance collapse above 4 assets shows here.
* ``sweep_grid`` -- a 3x3 omega sweep of ``iw_nonsquare`` on 2 workers, the
  only workload that uses the process pool.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from blbayes import cli, demo
from blbayes.config import RunConfig, load_grid
from blbayes.diagnostics import effective_sample_size

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# A posterior mean passes when every coordinate lies within Z_MAX standard
# errors of the stored long-chain mean. The standard error is computed from
# the reference's posterior sd and integrated autocorrelation time, not from
# the short chain's own ESS, which overstates mixing when the chain is sticky.
Z_MAX = 5.0
# The closed-form model has no Monte-Carlo error.
EXACT_RTOL = 1e-9

DEMO_MODELS = ("original", "iw_nonsquare", "iw_augmented", "log_sigma")
SWEEP_WORKERS = 2

# Chain lengths (iters, burn) per workload. "smoke" is for checking the
# benchmark itself; "warmup" is the set-up operation before timing.
CHAIN = {
    "demo_run": {"full": (1000, 200), "smoke": (40, 10)},
    "log_sigma_n10": {"full": (300, 75), "smoke": (40, 10)},
    "sweep_grid": {"full": (300, 60), "smoke": (40, 10)},
}
WARMUP_CHAIN = (20, 5)
# Distinct chain seeds per run. Each request repeats, so every output can be
# compared byte for byte with an earlier one at the same seed. Request time
# depends on the chain seed: interleaved n=10 log_sigma chains of eight seeds
# ran from 0.87 to 1.19 times their common median, so a run spreads its
# requests over many seeds to keep that out of the run-to-run spread.
CHAIN_SEEDS = {"demo_run": 4, "log_sigma_n10": 16, "sweep_grid": 4}

# Synthetic n=10 market: fixed generator seed, so the stored reference
# applies to every workload seed; the workload seed picks the chain seeds.
N10_ASSETS = 10
N10_M = 30
N10_HIST_ROWS = 150
N10_TEST_ROWS = 60
N10_DATA_SEED = 20180101


@dataclass
class Op:
    """One request: a ``blbayes`` command line and what its output must be."""

    key: str                 # equal keys must give equal output bytes
    model: str
    argv: list[str]
    out: Path
    iters: int
    burn: int
    points: int = 1          # model evaluations in this request
    trace: Path | None = None
    ref_key: str | None = None

    def run(self) -> int:
        for path in (self.out, self.trace):
            if path is not None and path.exists():
                path.unlink()
        return cli.main(self.argv)

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in (self.out, self.trace):
            if path is not None:
                h.update(path.read_bytes())
        return h.hexdigest()


@dataclass
class Inputs:
    """A workload's generated files and its cycle of requests."""

    ops: list[Op]
    block: int                        # requests per cycle of models
    warmup: list[Op]
    reference_specs: dict[str, tuple[Path, tuple | None]] = field(default_factory=dict)
    sweep_reference: Op | None = None  # the same sweep on one worker


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _demo_config(model: str) -> dict:
    folder = demo.prices_csv_path().parent
    doc = json.loads((folder / f"run_{model}.json").read_text())
    doc["data"]["prices_csv"] = str(demo.prices_csv_path())
    return doc


def _ref_key(dataset: str, model: str, omega) -> str:
    return f"{dataset}|{model}|" + ",".join(repr(float(w)) for w in omega)


def _run_op(workdir: Path, tag: str, doc: dict, dataset: str, chain, seed: int,
            trace: bool) -> Op:
    iters, burn = chain
    doc = dict(doc, iters=iters, burn=burn, seed=seed)
    cfg = _write_json(workdir / f"{tag}.json", doc)
    out = workdir / f"{tag}.out.json"
    argv = ["run", "--config", str(cfg), "--out", str(out)]
    trace_path = None
    if trace:
        trace_path = workdir / f"{tag}.trace.csv"
        argv += ["--trace", str(trace_path)]
    return Op(key=tag, model=doc["model"], argv=argv, out=out, iters=iters,
              burn=burn, trace=trace_path,
              ref_key=_ref_key(dataset, doc["model"], doc["views"]["omega"]))


def write_n10_prices(path: Path) -> date:
    """Synthetic daily prices for ten assets: i.i.d. normal returns with a
    one-factor correlation structure (pairwise correlations 0.25-0.56) and
    demo-like volatilities. Returns the test-window start date."""
    rng = np.random.default_rng(N10_DATA_SEED)
    n = N10_ASSETS
    vols = rng.uniform(0.012, 0.025, n)
    loadings = rng.uniform(0.5, 0.75, n)
    corr = np.outer(loadings, loadings)
    np.fill_diagonal(corr, 1.0)
    means = rng.uniform(2e-4, 8e-4, n)
    rows = N10_HIST_ROWS + N10_M + N10_TEST_ROWS
    rets = rng.multivariate_normal(means, corr * np.outer(vols, vols), size=rows)
    start = rng.uniform(20.0, 300.0, n)
    prices = start * np.vstack([np.ones(n), np.cumprod(1.0 + rets, axis=0)])
    days = []
    day = date(2016, 1, 4)
    while len(days) < rows + 1:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    with open(path, "w") as fh:
        fh.write("date," + ",".join(f"S{i:02d}" for i in range(n)) + "\n")
        for d, row in zip(days, prices):
            fh.write(d.isoformat() + "," + ",".join(format(x, ".8f") for x in row) + "\n")
    # returns are dated by the later price, so return row i sits on days[i+1]
    return days[N10_HIST_ROWS + N10_M + 1]


def _n10_config(prices: Path, test_start: date) -> dict:
    p = np.zeros((2, N10_ASSETS))
    p[0, :2] = (-1.0, 1.0)
    p[1, 2:4] = (1.0, -1.0)
    return {
        "version": "1",
        "data": {"prices_csv": str(prices), "m": N10_M, "test_start": test_start.isoformat()},
        "model": "log_sigma",
        "views": {"P": p.tolist(), "q": [0.02, 0.05], "omega": [1e-4, 1e-4]},
        "risk_aversion": 2.5,
        "capital": 100000.0,
        "backtest": True,
    }


def build(name: str, seed: int, workdir: Path, scale: str = "full") -> Inputs:
    """Write the workload's inputs for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    chain = CHAIN[name][scale]
    seeds = _seeds(seed, CHAIN_SEEDS[name])
    if name == "demo_run":
        docs = {m: _demo_config(m) for m in DEMO_MODELS}
        ops = [_run_op(workdir, f"{m}-{s}", docs[m], "demo", chain, s, m == "log_sigma")
               for s in seeds for m in DEMO_MODELS]
        warmup = [_run_op(workdir, f"warmup-{m}", docs[m], "demo", WARMUP_CHAIN, 1,
                          m == "log_sigma") for m in DEMO_MODELS]
        specs = {op.ref_key: (Path(op.argv[2]), None) for op in ops}
        return Inputs(ops, len(DEMO_MODELS), warmup, specs)
    if name == "log_sigma_n10":
        prices = workdir / "prices_n10.csv"
        doc = _n10_config(prices, write_n10_prices(prices))
        ops = [_run_op(workdir, f"n10-{s}", doc, "n10", chain, s, True) for s in seeds]
        warmup = [_run_op(workdir, "warmup-n10", doc, "n10", WARMUP_CHAIN, 1, True)]
        return Inputs(ops, 1, warmup, {ops[0].ref_key: (Path(ops[0].argv[2]), None)})
    if name == "sweep_grid":
        doc = _demo_config("iw_nonsquare")
        grid_doc = json.loads((demo.prices_csv_path().parent / "grid_small.json").read_text())

        def sweep(tag, chain, base_seed, workers):
            iters, burn = chain
            cfg = _write_json(workdir / f"{tag}.json", dict(doc, iters=iters, burn=burn))
            grid = _write_json(workdir / f"{tag}.grid.json", dict(grid_doc, base_seed=base_seed))
            out = workdir / f"{tag}-w{workers}.out.csv"
            argv = ["sweep", "--config", str(cfg), "--grid", str(grid),
                    "--workers", str(workers), "--out", str(out)]
            points = len(grid_doc["omega1"]) * len(grid_doc["omega2"])
            return Op(key=tag, model=doc["model"], argv=argv, out=out, iters=iters,
                      burn=burn, points=points)

        ops = [sweep(f"sweep-{s}", chain, s, SWEEP_WORKERS) for s in seeds]
        warmup = [sweep("warmup-sweep", WARMUP_CHAIN, 1, SWEEP_WORKERS)]
        specs = {_ref_key("demo", doc["model"], (w1, w2)): (Path(ops[0].argv[2]), (w1, w2))
                 for w1 in grid_doc["omega1"] for w2 in grid_doc["omega2"]}
        return Inputs(ops, 1, warmup, specs,
                      sweep_reference=sweep(f"sweep-{seeds[0]}", chain, seeds[0], 1))
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Checks. Each returns a list of problems (empty when the output is correct)
# and the facts the metrics need.
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _tolerance(ref: dict, n_post: int) -> np.ndarray:
    sd, tau, mcse = (np.asarray(ref[k], dtype=float) for k in ("sd", "tau", "mcse"))
    return np.sqrt(sd**2 * tau / n_post + mcse**2)


def mean_problems(mu, ref: dict, n_post: int) -> list[str]:
    """Is a posterior mean of mu consistent with the long-chain reference?"""
    mu = np.asarray(mu, dtype=float)
    ref_mu = np.asarray(ref["mu"], dtype=float)
    if mu.shape != ref_mu.shape:
        return [f"mu_post has shape {mu.shape}, reference {ref_mu.shape}"]
    if "sd" not in ref:
        err = float(np.abs(mu - ref_mu).max())
        if err > EXACT_RTOL * float(np.abs(ref_mu).max()):
            return [f"closed-form mu_post differs from the reference by {err:.3e}"]
        return []
    z = np.abs(mu - ref_mu) / _tolerance(ref, n_post)
    if z.max() > Z_MAX:
        return [f"mu_post coordinate {int(z.argmax())} is {z.max():.1f} standard "
                f"errors from the long-chain reference"]
    return []


def check_run(op: Op, reference: dict) -> tuple[list[str], dict]:
    try:
        doc = json.loads(op.out.read_text())
        if doc["model"] != op.model:
            return [f"output is for model {doc['model']!r}"], {}
        if not _finite_numbers(doc):
            return ["output holds a non-finite number"], {}
        problems = mean_problems(doc["mu_post"], reference[op.ref_key], op.iters - op.burn)
        facts = {"bytes": op.out.stat().st_size}
        diag = doc["diagnostics"]
        if op.model != "original":
            facts["ess_min"] = float(min(diag["n_eff"]))
        if op.model == "log_sigma":
            facts["ig_floor_hits"] = int(diag["ig_scale_floor_hits"])
        if op.trace is not None:
            trace_problems, trace_facts = _check_trace(op)
            problems += trace_problems
            facts.update(trace_facts)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"], {}
    return problems, facts


def _check_trace(op: Op) -> tuple[list[str], dict]:
    with open(op.trace, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if len(body) != op.iters:
        return [f"trace has {len(body)} rows for {op.iters} iterations"], {}
    values = np.array(body, dtype=float)
    if not np.all(np.isfinite(values)):
        return ["trace holds a non-finite number"], {}
    logdet = values[:, header.index("logdet_sigma")]
    facts = {"logdet_ess": effective_sample_size(logdet[op.burn:])}
    if "accepted" in header:
        accepted = values[:, header.index("accepted")]
        if not np.all((accepted == 0) | (accepted == 1)):
            return ["trace 'accepted' column is not 0/1"], {}
        facts["accepted"] = int(accepted.sum())
        facts["proposed"] = len(accepted)
    return [], facts


def check_sweep(op: Op, reference: dict) -> tuple[list[str], dict]:
    """Every point ok and finite, and each view distance consistent with the
    reference posterior mean at that point."""
    try:
        cfg = RunConfig.load(op.argv[2])
        grid = load_grid(op.argv[4], default_seed=cfg.seed, model=cfg.model)
        with open(op.out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = [(w1, w2) for _, w1, w2 in grid.points()]
        if [(float(r["omega1"]), float(r["omega2"])) for r in rows] != expected:
            return ["sweep rows do not match the grid"], {}
        problems = []
        p, q = cfg.views.p, cfg.views.q
        for r, (w1, w2) in zip(rows, expected):
            if r["status"] != "ok":
                problems.append(f"point ({w1:g}, {w2:g}) has status {r['status']}")
                continue
            numbers = [float(r[c]) for c in ("distance", "profit", "acceptance_rate")]
            if not all(math.isfinite(x) for x in numbers):
                problems.append(f"point ({w1:g}, {w2:g}) has a non-finite value")
                continue
            # |d - d_ref| <= ||P (mu - mu_ref)|| <= ||P||_F * Z_MAX * ||tol||
            ref = reference[_ref_key("demo", cfg.model, (w1, w2))]
            d_ref = float(np.linalg.norm(p @ np.asarray(ref["mu"]) - q))
            slack = Z_MAX * np.linalg.norm(p) * np.linalg.norm(_tolerance(ref, op.iters - op.burn))
            if abs(numbers[0] - d_ref) > slack:
                problems.append(f"point ({w1:g}, {w2:g}) distance {numbers[0]:.6g} is "
                                f"not within {slack:.3g} of the reference {d_ref:.6g}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"], {}
    return problems, {}


def check(op: Op, reference: dict) -> tuple[list[str], dict]:
    if op.argv[0] == "sweep":
        return check_sweep(op, reference)
    return check_run(op, reference)
