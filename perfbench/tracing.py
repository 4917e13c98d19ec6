"""Outside-in tracing of memxbar's public functions.

The benchmark wraps each traced function in every memxbar namespace that
binds it (a function imported by name into another module is a second
binding, and a call through either must be seen).  Each call records a
span: name, start, end, parent span and run id.  Spans stay in memory
while the benchmark runs and are written out when it ends.  Return values
of a few functions feed work counters, so that counts are taken where the
work happens.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Traced public functions per layer.  A dotted entry is a method.
LAYERS = {
    "dataset": ("default_splits", "save_dataset_csv", "load_dataset_csv"),
    "netmodel": ("train_discrete", "forward", "evaluate"),
    "stats": ("truncated_normal",),
    "mapping": ("compile_network", "quantize_weights"),
    "tolerance": ("analyze_tolerances", "synthesize_tolerances",
                  "sample_perturbed", "weight_error_bounds",
                  "discrete_state_sweep", "MonteCarloReport.save_trials_csv"),
    "device": ("program_to", "set_pulse", "reset_pulse"),
    "crossbar": ("program_cell", "bias_assignment", "check_bias",
                 "two_layer_forward", "layer_forward", "save_crossbar_csv"),
    "reports": ("render_learning_curve", "write_curve_csv",
                "render_p_err_box", "render_weight_bounds",
                "write_bounds_csv", "render_sweep", "emit_report"),
}

# Pipeline stages are timed as the benchmark's own run_pipeline(cfg, stage)
# calls: run_pipeline dispatches through a dict of stage functions, so a
# wrapper on pipeline.stage_* would never fire.
STAGE_SPANS = {stage: f"pipeline.stage_{stage}" for stage in
               ("dataset", "train", "compile", "program", "analyze",
                "synthesize", "sweep")}
STAGE_SPANS["report"] = "pipeline.report"

# Spans that can have traced children report self time as well.
WITH_CHILDREN = (
    *STAGE_SPANS.values(),
    "dataset.default_splits",
    "netmodel.train_discrete", "netmodel.evaluate",
    "tolerance.analyze_tolerances", "tolerance.synthesize_tolerances",
    "tolerance.sample_perturbed", "tolerance.weight_error_bounds",
    "tolerance.discrete_state_sweep",
    "device.program_to",
    "crossbar.program_cell", "crossbar.two_layer_forward",
    "reports.emit_report",
)

# Counts and ratios derived from spans and counters: (name, unit).
DERIVED = (
    ("run.cpu_s", "s"), ("run.cpu_util", "ratio"),
    ("netmodel.epochs", "count"), ("netmodel.ms_per_epoch", "ms"),
    ("tolerance.trials", "count"), ("tolerance.probes", "count"),
    ("tolerance.us_per_trial", "us"), ("tolerance.useful_trial_ratio", "ratio"),
    ("device.cells", "count"), ("device.attempts", "count"),
    ("device.pulses", "count"), ("device.pulses_per_cell", "ratio"),
    ("crossbar.bias_checks_per_cell", "ratio"), ("crossbar.patterns", "count"),
    ("crossbar.us_per_pattern", "us"), ("crossbar.rail_bound_patterns", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def span_names() -> list[str]:
    names = list(STAGE_SPANS.values())
    for module, funcs in LAYERS.items():
        names.extend(f"{module}.{func}" for func in funcs)
    return names


def catalog() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.total_s", "s"))
        if name in WITH_CHILDREN:
            out.append((f"{name}.self_s", "s"))
    return out + list(DERIVED)


def _count_training(result, counters) -> None:
    counters["netmodel.epochs"] += result.epochs


def _count_trials(report, counters) -> None:
    # A passing probe needs all its trials to decide; a failing one is
    # decided by its first trial over the budget.
    counters["tolerance.trials"] += report.trials
    over = np.flatnonzero(report.p_err > report.x_p)
    counters["tolerance.useful_trials"] += (int(over[0]) + 1 if over.size
                                            else report.trials)


def _count_programming(log, counters) -> None:
    counters["device.cells"] += 1
    counters["device.attempts"] += log.attempts
    counters["device.pulses"] += log.pulses


HOOKS = {
    "netmodel.train_discrete": _count_training,
    "tolerance.analyze_tolerances": _count_trials,
    "device.program_to": _count_programming,
}


class Tracer:
    """Span recorder with a patch context for memxbar's namespaces.

    ``spans`` holds ``(name, start, end, parent, run)`` tuples, where
    ``parent`` is the index of the enclosing span or -1.  ``counters``
    accumulates work counts per run id.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.run))
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, run = self.spans[sid]
        self.spans[sid] = (name, start, end, parent, run)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own call."""
        sid = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid)
            if hook is not None:
                hook(result, tracer.counters[tracer.run])
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function in every memxbar namespace binding it."""
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "memxbar" or key.startswith("memxbar.")]
        for module, funcs in LAYERS.items():
            home = sys.modules[f"memxbar.{module}"]
            for func in funcs:
                name = f"{module}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(home, func)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------
    def write_csv(self, path) -> None:
        """All spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "id", "parent", "name", "start_s", "end_s"])
            for sid, (name, start, end, parent, run) in enumerate(self.spans):
                writer.writerow([run, sid, parent, name, repr(start), repr(end)])


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its child spans,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, run) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        kids = [(s, e) for s, e in kids if e > s]
        out.append((end - start) - _union_length(kids))
    return out


def layer_metrics(tracer: Tracer, run: int) -> dict:
    """Per-layer metrics of one traced run, from its spans and counters.

    Ratios whose base is zero on a workload (a layer it never calls)
    are reported as 0.
    """
    ids = [sid for sid, sp in enumerate(tracer.spans) if sp[4] == run]
    spans = [tracer.spans[sid] for sid in ids]
    local = {sid: k for k, sid in enumerate(ids)}
    reindexed = [(n, s, e, local.get(p, -1), r) for n, s, e, p, r in spans]
    selfs = self_times(reindexed)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    probes = 0
    for k, (name, start, end, parent, _) in enumerate(reindexed):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += selfs[k]
        if (name == "tolerance.analyze_tolerances" and parent >= 0
                and reindexed[parent][0] == "tolerance.synthesize_tolerances"):
            probes += 1
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.total_s"] = total[name]
        if name in WITH_CHILDREN:
            metrics[f"{name}.self_s"] = self_s[name]

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters[run]
    trials = c["tolerance.trials"]
    metrics.update({
        "netmodel.epochs": c["netmodel.epochs"],
        "netmodel.ms_per_epoch": 1e3 * ratio(
            total["netmodel.train_discrete"], c["netmodel.epochs"]),
        "tolerance.trials": trials,
        "tolerance.probes": probes,
        "tolerance.us_per_trial": 1e6 * ratio(
            total["tolerance.analyze_tolerances"]
            - total["tolerance.weight_error_bounds"], trials),
        "tolerance.useful_trial_ratio": ratio(c["tolerance.useful_trials"],
                                              trials),
        "device.cells": c["device.cells"],
        "device.attempts": c["device.attempts"],
        "device.pulses": c["device.pulses"],
        "device.pulses_per_cell": ratio(c["device.pulses"], c["device.cells"]),
        "crossbar.bias_checks_per_cell": ratio(calls["crossbar.check_bias"],
                                               calls["crossbar.program_cell"]),
        "crossbar.patterns": calls["crossbar.two_layer_forward"],
        "crossbar.us_per_pattern": 1e6 * ratio(
            total["crossbar.two_layer_forward"],
            calls["crossbar.two_layer_forward"]),
    })
    return metrics


def median_metrics(per_run: list[dict]) -> dict:
    """Median over runs of each metric; the lower middle value for an even
    number of runs, so counts stay whole numbers."""
    return {key: statistics.median_low(m[key] for m in per_run)
            for key in per_run[0]}
