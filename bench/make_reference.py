"""Regenerate ``reference.json``: long-chain posterior means of mu for every
model, dataset and omega the workloads run.

    python3 bench/make_reference.py [--out bench/reference.json]

Run from the root of a checkout; it takes several minutes. Each sampler
entry stores the posterior mean, the posterior sd, the integrated
autocorrelation time (post-burn draws over ESS) and the Monte-Carlo
standard error of each coordinate; the closed-form model stores its exact
mean. Regenerate only when the model's posterior itself changes, not when
the draw sequence does.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import engine

REFERENCE_SEED = 987654321
ITERS = 40_000
BURN = ITERS // 20
JOBS = 2


def _reference(task) -> tuple[str, dict]:
    key, config, omega, iters, burn = task
    engine.load(Path.cwd())
    from blbayes.backtest import run_model
    from blbayes.config import RunConfig

    cfg = RunConfig.load(config)
    views = cfg.views if omega is None else cfg.views.with_omega(list(omega))
    settings = replace(cfg.settings, iters=iters, burn=burn)
    res = run_model(cfg.model, cfg.load_panel(), views, settings, seed=REFERENCE_SEED,
                    compute_profit=False)
    entry = {"mu": res.mu_post.tolist()}
    if res.summary is not None:
        s = res.summary
        entry.update({
            "sd": [float(v) ** 0.5 for v in s.mu_draw_cov.diagonal()],
            "tau": [(iters - burn) / float(e) for e in s.n_eff],
            "mcse": s.mu_se.tolist(),
            "iters": iters, "burn": burn, "seed": REFERENCE_SEED,
            "acceptance_rate": s.acceptance_rate,
        })
    print(f"{key}: done", file=sys.stderr, flush=True)
    return key, entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path(__file__).with_name("reference.json"))
    args = parser.parse_args()
    engine.load(Path.cwd())
    import workloads
    from run import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=Path.cwd()) as tmp:
        tasks = {}
        for name in WORKLOADS:
            inputs = workloads.build(name, 0, Path(tmp) / name)
            for key, (config, omega) in inputs.reference_specs.items():
                tasks.setdefault(key, (key, str(config), omega, ITERS, BURN))
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=JOBS, mp_context=ctx) as pool:
            entries = dict(pool.map(_reference, sorted(tasks.values())))
    doc = {key: entries[key] for key in sorted(entries)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
