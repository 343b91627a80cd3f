"""Benchmark of the blbayes engine.

Run from the root of a checkout:

    python3 bench/run.py --workload demo_run --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each workload (see ``workloads.py``) is a closed loop with one caller: a
request starts when the previous one has finished. Requests are in-process
calls of ``blbayes.cli.main``; every output is checked (exit code, finite
numbers, posterior mean against the stored long-chain reference, identical
bytes on a repeat at the same seed, sweep bytes equal to a one-worker sweep).

``--trace 0`` reports the end-to-end metrics. Their timings are scaled to a
nominal machine speed measured by a fixed kernel timed after every request
(``calibrate.py``), because the shared machines drift in speed between and
within runs; the unscaled values are printed beside them. ``--trace 1``
runs each request twice, untraced and traced in alternating order, and
reports the per-layer metrics from the traced runs, the tracing overhead,
and the ESS per second of each sampler from the untraced runs. The last
line of standard output is one JSON object; the lines before it give the
same numbers for people.

``--smoke`` runs every workload with tiny chains in both modes and fails
unless every metric prints with its unit and every layer emits spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import engine
from tracer import SPAN_NAMES, Tracer, summarize

WORKLOADS = ("demo_run", "log_sigma_n10", "sweep_grid")
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.spd_inverse.calls_per_iter": "calls/iter",
    "linalg.spd_inverse.s": "s",
    "linalg.vec_star_bilinear.s": "s",
    "sampling.sample_inverse_wishart.s": "s",
    "sampling.sample_mvn.s": "s",
    "sampling.sample_inverse_gamma.s": "s",
    "inverse_wishart.chain.s": "s",
    "inverse_wishart.iter_us": "us",
    "log_sigma.build_Q.s": "s",
    "log_sigma.build_f_vectors.s": "s",
    "log_sigma.mh_log_ratio.s": "s",
    "log_sigma.build_G.s": "s",
    "log_sigma.chain.s": "s",
    "log_sigma.iter_us": "us",
    "log_sigma.accept_rate": "fraction",
    "log_sigma.logdet_ess": "samples",
    "log_sigma.ig_floor_hits": "count",
    "diagnostics.summarize.s": "s",
    "diagnostics.ess_min": "samples",
    "views.augment.s": "s",
    "original_bl.posterior.s": "s",
    "backtest.run_model.s": "s",
    "backtest.point_s": "s",
    "backtest.run_sweep.s": "s",
    "backtest.pool_efficiency": "fraction",
    "backtest.write_sweep_csv.s": "s",
    "data.ingest_prices.s": "s",
    "data.compute_returns.s": "s",
    "config.load.s": "s",
    "jsonio.dumps.s": "s",
    "jsonio.bytes": "bytes",
    "cli.main.s": "s",
    "ess_per_s.iw_nonsquare": "1/s",
    "ess_per_s.iw_augmented": "1/s",
    "ess_per_s.log_sigma": "1/s",
    "trace.overhead_s": "s",
}

# Spans each workload must emit in a traced run; together they cover every
# layer the per-layer metrics name.
_COMMON_SPANS = {"cli.main", "config.load", "data.ingest_prices", "data.compute_returns",
                 "backtest.run_model", "diagnostics.summarize", "linalg.spd_inverse",
                 "sampling.sample_mvn"}
EXPECTED_SPANS = {
    "demo_run": _COMMON_SPANS | {
        "jsonio.dumps", "original_bl.posterior", "views.augment", "inverse_wishart.chain",
        "sampling.sample_inverse_wishart", "sampling.sample_inverse_gamma",
        "log_sigma.chain", "log_sigma.build_Q", "log_sigma.build_f_vectors",
        "log_sigma.mh_log_ratio", "log_sigma.build_G", "linalg.vec_star_bilinear"},
    "log_sigma_n10": _COMMON_SPANS | {
        "jsonio.dumps", "sampling.sample_inverse_gamma", "log_sigma.chain",
        "log_sigma.build_Q", "log_sigma.build_f_vectors", "log_sigma.mh_log_ratio",
        "log_sigma.build_G", "linalg.vec_star_bilinear"},
    "sweep_grid": _COMMON_SPANS | {
        "backtest.run_sweep", "backtest.write_sweep_csv", "inverse_wishart.chain",
        "sampling.sample_inverse_wishart"},
}


class BenchError(RuntimeError):
    pass


def _setup(workloads, name: str, seed: int, scale: str, workdir: Path):
    """Write the inputs and run one warm-up request per model, so lazy
    imports and first-call costs are paid before timing."""
    inputs = workloads.build(name, seed, workdir, scale)
    for op in inputs.warmup:
        if op.run() != 0:
            raise BenchError(f"warm-up request {op.key} failed")
    return inputs


def _time_setups(name: str, seed: int, scale: str, work: Path, repeats: int) -> list[float]:
    """Wall time of complete cold set-ups, each in a fresh interpreter:
    start, imports, input generation and the warm-up requests."""
    samples = []
    for i in range(repeats):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", name, "--seed", str(seed), "--scale", scale,
               "--workdir", str(work / f"setup{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
    return samples


def _attempt(op) -> tuple[int | None, str | None]:
    """Run one request; a crash is a failed request, not the end of the run."""
    try:
        return op.run(), None
    except Exception as exc:
        return None, f"raised {type(exc).__name__}: {exc}"


class Runner:
    """Executes and checks requests; remembers each request's output digest."""

    def __init__(self, workloads, reference, tracer=None, speed_probe=None):
        self.workloads = workloads
        self.reference = reference
        self.tracer = tracer
        self.speed_probe = speed_probe
        self.kernel_s: list[float] = []   # speed_probe timings, one per request
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}

    def execute(self, op, traced: bool = False) -> None:
        if traced:
            self.tracer.op = len(self.records)
            self.tracer.install()
        t0 = time.perf_counter()
        rc, crash = _attempt(op)
        elapsed = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        rec = {"op": op, "seconds": elapsed, "traced": traced, "facts": {},
               "trace": summarize(self.tracer.collect()) if traced else None}
        if crash is not None:
            rec["problems"] = [crash]
        elif rc != 0:
            rec["problems"] = [f"exit code {rc}"]
        else:
            rec["problems"], rec["facts"] = self.workloads.check(op, self.reference)
            if not rec["problems"]:
                rec["problems"] = self._repeat_problems(op)
        self.records.append(rec)
        if self.speed_probe is not None:
            self.kernel_s.append(self.speed_probe())

    def _repeat_problems(self, op) -> list[str]:
        digest = op.digest()
        first = self.digests.setdefault(op.key, digest)
        return [] if digest == first else [f"output bytes of {op.key} differ from an earlier repeat"]

    def verify_repeats(self, inputs) -> None:
        """Outside the timed loop: rerun requests seen only once, and the
        sweep on one worker, and compare bytes."""
        counts: dict[str, int] = {}
        for rec in self.records:
            counts[rec["op"].key] = counts.get(rec["op"].key, 0) + 1
        extra = [rec["op"] for rec in self.records if counts[rec["op"].key] == 1]
        if inputs.sweep_reference is not None:
            extra.append(inputs.sweep_reference)
        for op in extra:
            if op.key not in self.digests:
                continue  # its request already failed
            rc, crash = _attempt(op)
            if crash is not None or rc != 0:
                problems = [f"repeat {crash or f'exited with {rc}'}"]
            else:
                problems = self._repeat_problems(op)
            if problems:
                for rec in self.records:
                    if rec["op"].key == op.key:
                        rec["problems"] = rec["problems"] + problems


def _loop(runner: Runner, inputs, seconds: float, traced: bool) -> None:
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = inputs.ops[i % len(inputs.ops)]
        if traced:  # untraced and traced runs of the same request, order alternating
            for flag in ((False, True) if i % 2 == 0 else (True, False)):
                runner.execute(op, traced=flag)
        else:
            runner.execute(op)
        i += 1
        if i % inputs.block == 0 and time.perf_counter() >= deadline:
            return


def _tail(times: list[float]) -> tuple[float, float]:
    """The highest order statistic with TAIL_BEYOND samples above it, and
    its percentile; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def _ess_per_s(records, model: str) -> float:
    recs = [r for r in records if r["op"].model == model and "ess_min" in r["facts"]]
    seconds = sum(r["seconds"] for r in recs)
    return sum(r["facts"]["ess_min"] for r in recs) / seconds if seconds else 0.0


def _mean_fact(records, key: str) -> float:
    values = [r["facts"][key] for r in records if key in r["facts"]]
    return sum(values) / len(values) if values else 0.0


def end_to_end(records, setup_samples, kernel_s) -> tuple[dict, list[str]]:
    """Timings are scaled to the machine speed at which the calibration
    kernel takes its nominal time (see calibrate.py).

    The host switches between fast and slow spells lasting seconds, and one
    factor for a whole run leaves a mixture of both in the distribution,
    which moves the tail most. A ``run`` request works in this process on
    one core, so it is scaled by the probe timed right after it on that
    core. A ``sweep`` spreads over worker processes on every core, which one
    probe here does not follow, so it is scaled by the run's median probe,
    as is set-up time."""
    import calibrate

    k_median = statistics.median(kernel_s)
    raw_times = [r["seconds"] for r in records]
    times = [t * calibrate.NOMINAL_S / (k if r["op"].argv[0] == "run" else k_median)
             for r, t, k in zip(records, raw_times, kernel_s)]
    tail, pct = _tail(times)
    slowdown = k_median / calibrate.NOMINAL_S
    points = sum(r["op"].points for r in records)
    values = {
        "setup_s": statistics.median(setup_samples) / slowdown,
        "run_s_p50": statistics.median(times),
        "run_s_tail": tail,
        "points_per_s": points / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(setup_samples),
        "run_s_p50": statistics.median(raw_times),
        "run_s_tail": _tail(raw_times)[0],
        "points_per_s": points / sum(raw_times),
    }
    notes = [
        f"machine speed: calibration kernel median {k_median * 1e3:.3f} ms "
        f"over {len(kernel_s)} probes, nominal {calibrate.NOMINAL_S * 1e3:.3f} ms",
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"setup_s: median of {len(setup_samples)} cold set-ups "
        + ", ".join(f"{s:.3f}" for s in setup_samples),
        (f"run_s_tail: p{pct:.0f} over {len(times)} requests ({TAIL_BEYOND} beyond it)"
         if len(times) > TAIL_BEYOND else
         f"run_s_tail: maximum of only {len(times)} requests"),
    ]
    for model in ("iw_nonsquare", "iw_augmented", "log_sigma"):
        rate = _ess_per_s(records, model)
        if rate:
            notes.append(f"ess_per_s.{model}: {rate:.6g} 1/s (min-over-mu ESS per second)")
    return values, notes


def per_layer(records) -> tuple[dict, list[str]]:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    agg: dict[str, dict[str, float]] = {}
    for r in traced:
        for name, row in r["trace"]["layers"].items():
            total = agg.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                total[k] += v

    def self_s(name):
        return agg[name]["self_s"] / len(traced) if name in agg else 0.0

    def iters(models):
        return sum(r["op"].iters * r["op"].points for r in traced if r["op"].model in models)

    def per_iter_us(span, models):
        n = iters(models)
        return agg[span]["total_s"] / n * 1e6 if span in agg and n else 0.0

    point_times = [t for r in traced for t in r["trace"]["point_s"]]
    sweep_time = sum(r["trace"]["sweep_s"] for r in traced)
    workers = [int(r["op"].argv[r["op"].argv.index("--workers") + 1])
               for r in traced if "--workers" in r["op"].argv]
    samplers = ("iw_nonsquare", "iw_augmented", "log_sigma")
    accepted = sum(r["facts"].get("accepted", 0) for r in records)
    proposed = sum(r["facts"].get("proposed", 0) for r in records)

    values = {name: self_s(name[:-2]) for name in PER_LAYER if name.endswith(".s")}
    values.update({
        "linalg.spd_inverse.calls_per_iter": (
            agg["linalg.spd_inverse"]["calls"] / iters(samplers)
            if "linalg.spd_inverse" in agg and iters(samplers) else 0.0),
        "inverse_wishart.iter_us": per_iter_us("inverse_wishart.chain",
                                               ("iw_nonsquare", "iw_augmented")),
        "log_sigma.iter_us": per_iter_us("log_sigma.chain", ("log_sigma",)),
        "log_sigma.accept_rate": accepted / proposed if proposed else 0.0,
        "log_sigma.logdet_ess": _mean_fact(records, "logdet_ess"),
        "log_sigma.ig_floor_hits": _mean_fact(records, "ig_floor_hits"),
        "diagnostics.ess_min": _mean_fact(records, "ess_min"),
        "backtest.point_s": statistics.fmean(point_times) if point_times else 0.0,
        "backtest.pool_efficiency": (
            sum(point_times) / (statistics.fmean(workers) * sweep_time)
            if point_times and sweep_time else 0.0),
        "jsonio.bytes": _mean_fact(records, "bytes"),
        "trace.overhead_s": (statistics.median(r["seconds"] for r in traced)
                             - statistics.median(r["seconds"] for r in plain)),
    })
    for model in samplers:
        values[f"ess_per_s.{model}"] = _ess_per_s(plain, model)
    spans = sum(row["calls"] for row in agg.values())
    notes = [f"spans: {spans} over {len(traced)} traced requests; "
             f"per-layer seconds are self time per traced request"]
    return values, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> tuple[dict, list[str], set]:
    """Set up, measure and check one workload. Returns the result object,
    lines for people, and the span names seen."""
    root = Path.cwd()
    work = Path(tempfile.mkdtemp(prefix=".bench-", dir=root))
    try:
        setup_samples = [] if trace else _time_setups(
            name, seed, scale, work, SETUP_REPEATS if scale == "full" else 1)
        import calibrate
        import workloads

        inputs = _setup(workloads, name, seed, scale, work / "main")
        if trace:
            runner = Runner(workloads, workloads.load_reference(), tracer=Tracer(work / "spool"))
        else:
            runner = Runner(workloads, workloads.load_reference(),
                            speed_probe=calibrate.kernel_seconds)
        _loop(runner, inputs, seconds, trace)
        runner.verify_repeats(inputs)
        records = runner.records
        failed = [r for r in records if r["problems"]]
        if trace:
            values, notes = per_layer(records)
            units = PER_LAYER
        else:
            values, notes = end_to_end(records, setup_samples, runner.kernel_s)
            units = END_TO_END
        spans = {name for r in records if r["traced"] for name in r["trace"]["layers"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    notes = [f"{name}: seed {seed}, {len(records)} requests, {len(failed)} failed, "
             f"failed_frac {len(failed) / len(records):.6g} fraction"] + notes
    seen = set()
    for rec in failed:
        for problem in rec["problems"]:
            if (rec["op"].key, problem) not in seen:
                seen.add((rec["op"].key, problem))
                notes.append(f"FAILED {rec['op'].key}: {problem}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, notes, spans


def smoke() -> int:
    """Tiny chains, every workload, both modes: every metric prints by name
    with its unit, every layer emits spans, and every check passes."""
    declared = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for section, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        if listed != units:
            problems.append(f"BENCHMARK.json {section} does not match the metrics reported")
    if set(WORKLOADS) != {w["name"] for w in declared["workloads"]}:
        problems.append("BENCHMARK.json workloads do not match")
    for name in WORKLOADS:
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            result, notes, spans = run_workload(name, 1, 0.5, trace, scale="smoke")
            print("\n".join(notes))
            _print_metrics(result)
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: failed requests")
            for metric, unit in units.items():
                got = result["metrics"].get(metric)
                if got is None or got["unit"] != unit or not isinstance(got["value"], float):
                    problems.append(f"{name} trace={int(trace)}: metric {metric} missing")
            if trace and not EXPECTED_SPANS[name] <= spans:
                problems.append(f"{name}: no spans for {sorted(EXPECTED_SPANS[name] - spans)}")
    covered = set().union(*EXPECTED_SPANS.values())
    if covered != set(SPAN_NAMES):
        problems.append(f"layers without an expected span: {sorted(set(SPAN_NAMES) - covered)}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def _print_metrics(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        engine.load(Path.cwd())
    except engine.EngineMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        _setup(workloads, args.workload, args.seed, args.scale, args.workdir)
        return 0
    if args.smoke:
        return smoke()
    result, notes, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = engine.versions()
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("\n".join(notes))
    _print_metrics(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
