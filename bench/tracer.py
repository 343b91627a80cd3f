"""Span tracer for the benchmark.

Wraps public functions of the blbayes modules from outside the package:
each call records a span (name, start, end, parent span, process, operation
id). The wrappers replace every reference to the wrapped function in every
loaded ``blbayes`` module, so calls through ``from .x import f`` bindings are
traced too, and they are removed again after each traced operation.

Sweep workers are forked while the wrappers are installed, so they trace
too. A worker writes its spans to a spool file when its outermost span
closes; :meth:`Tracer.collect` merges the spool files into the parent's list.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). Several functions may share a span name
# when they are one layer's entry points (the two Inverse-Wishart chains).
TARGETS = (
    ("blbayes.cli", "main", "cli.main"),
    ("blbayes.config", "RunConfig.load", "config.load"),
    ("blbayes.data", "ingest_prices", "data.ingest_prices"),
    ("blbayes.data", "compute_returns", "data.compute_returns"),
    ("blbayes.jsonio", "dumps", "jsonio.dumps"),
    ("blbayes.backtest", "run_model", "backtest.run_model"),
    ("blbayes.backtest", "run_sweep", "backtest.run_sweep"),
    ("blbayes.backtest", "write_sweep_csv", "backtest.write_sweep_csv"),
    ("blbayes.original_bl", "bl_posterior", "original_bl.posterior"),
    ("blbayes.views", "augment_to_invertible", "views.augment"),
    ("blbayes.inverse_wishart", "gibbs_nonsquare", "inverse_wishart.chain"),
    ("blbayes.inverse_wishart", "gibbs_augmented", "inverse_wishart.chain"),
    ("blbayes.log_sigma", "gibbs_log_sigma", "log_sigma.chain"),
    ("blbayes.log_sigma", "build_Q", "log_sigma.build_Q"),
    ("blbayes.log_sigma", "build_f_vectors", "log_sigma.build_f_vectors"),
    ("blbayes.log_sigma", "mh_log_ratio", "log_sigma.mh_log_ratio"),
    ("blbayes.log_sigma", "build_G", "log_sigma.build_G"),
    ("blbayes.sampling", "sample_inverse_wishart", "sampling.sample_inverse_wishart"),
    ("blbayes.sampling", "sample_mvn", "sampling.sample_mvn"),
    ("blbayes.sampling", "sample_inverse_gamma", "sampling.sample_inverse_gamma"),
    ("blbayes.linalg", "spd_inverse", "linalg.spd_inverse"),
    ("blbayes.linalg", "vec_star_bilinear", "linalg.vec_star_bilinear"),
    ("blbayes.diagnostics", "summarize_mu_sigma", "diagnostics.summarize"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid()
        self.op = None                  # id shared by the spans of one operation
        self.spans: list[tuple] = []    # (id, parent, name, start, end, pid, op)
        self._pid = self.owner
        self._stack: list[str] = []
        self._base_parent = None
        self._seq = 0
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer._pid:
                tracer._forked(pid)
            parent = tracer._stack[-1] if tracer._stack else tracer._base_parent
            sid = f"{pid}:{tracer._seq}"
            tracer._seq += 1
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end, pid, tracer.op))
                if pid != tracer.owner and not tracer._stack:
                    tracer._flush()

        return traced

    def _forked(self, pid: int) -> None:
        # First traced call in a forked worker: the inherited open span (the
        # sweep) becomes the parent of this process's spans.
        self._base_parent = self._stack[-1] if self._stack else None
        self._stack = []
        self.spans = []
        self._pid = pid

    def _flush(self) -> None:
        with open(self.spool_dir / f"{self._pid}.jsonl", "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect(self) -> list[tuple]:
        """Return and clear the spans of this process and of its workers."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                spans.extend(tuple(s) for s in json.loads(line))
            path.unlink()
        return spans

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "blbayes" or k.startswith("blbayes."))]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a classmethod, patched on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(name, original.__func__)))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)


def summarize(spans) -> dict:
    """Reduce one request's spans: per-name aggregates, the durations of
    the sweep's grid points, and the sweep's wall time."""
    sweeps = {s[0] for s in spans if s[2] == "backtest.run_sweep"}
    return {
        "layers": aggregate(spans),
        "point_s": [s[4] - s[3] for s in spans
                    if s[2] == "backtest.run_model" and s[1] in sweeps],
        "sweep_s": sum(s[4] - s[3] for s in spans if s[0] in sweeps),
    }


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its child spans
    in the same process; a sweep's workers run beside it, not inside it.
    """
    child_time: dict[str, float] = defaultdict(float)
    for sid, parent, _name, start, end, pid, _op in spans:
        if parent is not None and parent.split(":")[0] == str(pid):
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, _parent, name, start, end, _pid, _op in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time.get(sid, 0.0)
    return out
