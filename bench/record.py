"""Record a baseline: run every workload on several seeds and summarise.

    python3 bench/record.py --seeds 1-10 --out bench/baseline.json

Run from the root of a checkout. Each (workload, seed) is one untraced run
of ``bench/run.py`` for ``run_seconds`` (from BENCHMARK.json); then one
traced run per workload, on the first seed, gives the per-layer numbers.
For each end-to-end metric the summary holds the ten values, their median
and quartiles, and the spread (quartile distance over the median) that the
metric's bound must exceed. The environment, the commit and the seeds are
recorded with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import engine

RUN = str(Path(__file__).with_name("run.py"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    engine.load(Path.cwd())
    doc = {"commit": _commit(), "env": engine.versions(), "run_seconds": bench["run_seconds"],
           "seeds": seeds, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result = _run(name, seed, bench["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 5) for k, v in values.items()}, flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "values": vals}
        traced = _run(name, seeds[0], bench["run_seconds"], 1)
        attempted += traced["attempted"]
        failed += traced["failed"]
        doc["workloads"][name] = {
            "attempted": attempted, "failed": failed, "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
