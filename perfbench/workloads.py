"""The four benchmark workloads: stage groups of one memxbar run.

A workload receives only a ``RunConfig`` built from the workload seed.
``train`` times dataset -> train from an empty run directory; the other
three share a fixture built in set-up (dataset -> train -> compile at the
same seed) and time the stages that follow it.  Together the timed
regions cover every stage of a full run.

The config is the default ``RunConfig`` (``threads=1``) with the work
sizes below scaled down, so that one run of any workload, set-up
included, fits in about 30 s and the amount of work does not depend on
the seed; see README.md for the reasoning and the default-size figures.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from memxbar import RunConfig, crossbar, dataset, run_pipeline

FIXTURE = ("dataset", "train", "compile")


def make_config(seed: int, run_dir: Path) -> RunConfig:
    """The default config with the work sizes scaled down.

    A fixed epoch count (no early stop at a loss target) keeps training
    work independent of the seed.  Synthesis probes a single plan point
    that fails at any seed, so the walk is zero, the point, then six
    bisection steps down to the 0.01 resolution: eight probes at every
    seed.
    """
    return RunConfig(seed=seed, out_dir=run_dir,
                     train={"mse_target": 0.0, "max_epochs": 400},
                     harden_epochs=200, trials=2000,
                     plan_points=[{"r_m1": 0.63, "r_m2": 0.63, "r_f": 0.01}],
                     plan_trials=500)


def circuit_inference(cfg: RunConfig) -> np.ndarray:
    """Every test pattern through the two programmed arrays.

    Calls go through memxbar's module attributes, so a traced run sees them.
    """
    program = cfg.out_dir / "program"
    hidden = crossbar.load_crossbar_csv(program / "hidden.csv", cfg.crossbar,
                                        cfg.device)
    out = crossbar.load_crossbar_csv(program / "out.csv", cfg.crossbar,
                                     cfg.device)
    with open(cfg.out_dir / "train" / "params.json") as fh:
        params = json.load(fh)
    b_hidden, b_out = params["b_hidden"], params["b_out"]
    x_test, _ = dataset.load_dataset_csv(cfg.out_dir / "dataset" / "test.csv")
    return np.array([crossbar.two_layer_forward(hidden, out, b_hidden, b_out, x)
                     for x in x_test])


@dataclass(frozen=True)
class Workload:
    setup_stages: tuple          # run once per set-up, untimed
    timed_stages: tuple          # each timed as one run_pipeline call
    check: Callable              # (cfg, result of the timed region) -> figures
    then: Callable | None = None  # (cfg) -> result, timed after the stages


def _check_analyze(cfg: RunConfig, _) -> dict:
    return checks.check_analyze(cfg.out_dir, cfg.trials, cfg.x_p,
                                lambda: run_pipeline(cfg, "report"))


WORKLOADS = {
    "train": Workload(
        setup_stages=(),
        timed_stages=("dataset", "train"),
        check=lambda cfg, _: checks.check_train(cfg.out_dir)),
    "analyze": Workload(
        # the report stage re-renders the sweep chart, so sweep is set up
        setup_stages=FIXTURE + ("sweep",),
        timed_stages=("analyze", "report"),
        check=_check_analyze),
    "synthesize": Workload(
        setup_stages=FIXTURE,
        timed_stages=("synthesize", "sweep"),
        check=lambda cfg, _: checks.check_synthesize(
            cfg.out_dir, cfg.plan_points, cfg.sweep_counts, cfg.x_p)),
    "circuit": Workload(
        setup_stages=FIXTURE,
        timed_stages=("compile", "program"),
        check=lambda cfg, outputs: checks.check_circuit(
            cfg.out_dir, asdict(cfg.crossbar), outputs),
        then=circuit_inference),
}


def setup(workload: Workload, seed: int, run_dir: Path) -> RunConfig:
    """Build the workload's inputs from scratch: the config, then the
    fixture stages in an empty run directory."""
    cfg = make_config(seed, run_dir)
    if workload.setup_stages:
        shutil.rmtree(run_dir, ignore_errors=True)
        for stage in workload.setup_stages:
            run_pipeline(cfg, stage)
    return cfg


def timed_region(workload: Workload, cfg: RunConfig, span):
    """The stages a user waits for; ``span(name)`` wraps each stage call."""
    for stage in workload.timed_stages:
        with span(stage):
            run_pipeline(cfg, stage)
    return workload.then(cfg) if workload.then else None
