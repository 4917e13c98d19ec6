"""End-to-end orchestration: dataset, training, compilation, programming,
stress analysis, tolerance synthesis, state sweep.

Each stage writes its artifacts under a stage-named subdirectory of the
run directory and later stages reload them from disk, so any stage can be
re-run in isolation.  All randomness derives from the master seed through
fixed per-stage substreams; an identical configuration reproduces every
artifact byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import reports
from .crossbar import Crossbar, CrossbarConfig, program_cell, save_crossbar_csv
from .device import DeviceParams, MemristorCell
from .errors import ConfigError
from .mapping import (CompiledLayer, CompiledNet, ResistanceRange,
                      compensate_stuck, compile_network, symmetric_weight_states,
                      w_max)
from .netmodel import (MlpParams, TrainConfig, TrainResult, evaluate, forward,
                       init_params, mse, train_discrete)
from .reports import require_artifact
from .stats import subseed, substream
from .tolerance import (ExperimentPlan, analyze_tolerances, synthesize_tolerances,
                        discrete_state_sweep, tolerance_set)

STAGES = ("dataset", "train", "compile", "program", "analyze", "synthesize",
          "sweep")

_STREAM = {"dataset": 10, "train": 11, "program": 13, "analyze": 14,
           "synthesize": 15}

_TRAIN_FIELDS = {"mse_target", "max_epochs", "step", "beta1", "beta2", "eps",
                 "leak"}

# Smallest accepted value of each integer setting; weight_error_bounds
# needs 1000 trials for a stable percentile.
_INT_MINIMA = {"trials": 1, "bounds_trials": 1000, "plan_trials": 1,
               "threads": 0, "restarts": 1, "harden_epochs": 0}

# Settings that change how or where a run executes but not what it computes.
_UNHASHED = ("out_dir", "threads")


@dataclass
class RunConfig:
    """Everything one reproducible run needs.

    The default device window is 10-300 kOhm with a fine reset ramp, which
    keeps the fixed-branch conductance of every synapse small; weights then
    shift less in absolute terms for a given relative resistance error.
    ``harden_epochs`` and ``harden_boost`` control the noise-injection
    training phase that follows clean convergence.
    """

    seed: int
    out_dir: Path
    device: DeviceParams = field(default_factory=lambda: DeviceParams(
        r_hrs_nominal=300e3, ramp_step=1.5 / 128))
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)
    resistance_range: ResistanceRange = field(
        default_factory=lambda: ResistanceRange(10e3, 300e3, n_states=7))
    train: dict = field(default_factory=dict)
    tolerances: dict = field(
        default_factory=lambda: {"r_m": 0.2, "r_f": 0.01, "limit_sigmas": 3.0})
    profile_path: str | None = None
    stuck: list = field(default_factory=list)
    x_p: float = 5.0
    trials: int = 10000
    bounds_trials: int = 20000
    sweep_counts: tuple = tuple(range(2, 13))
    sweep_range: ResistanceRange = field(
        default_factory=lambda: ResistanceRange(10e3, 60e3))
    plan_points: list | None = None
    plan_trials: int = 1000
    restarts: int = 1
    discrete: bool = False
    harden_epochs: int = 3000
    harden_boost: float = 1.3
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.out_dir, Path):   # re-parsing one is slow
            self.out_dir = Path(self.out_dir)
        rr, dp = self.resistance_range, self.device
        if rr.r_min != dp.r_lrs_nominal or rr.r_max != dp.r_hrs_nominal:
            raise ConfigError(
                "resistance range must match the device window "
                f"[{dp.r_lrs_nominal}, {dp.r_hrs_nominal}]"
            )
        sr = self.sweep_range
        if sr.r_min < dp.r_lrs_nominal or sr.r_max > dp.r_hrs_nominal:
            raise ConfigError(
                "sweep range must lie inside the device window "
                f"[{dp.r_lrs_nominal}, {dp.r_hrs_nominal}]"
            )
        if self.profile_path is not None and not Path(self.profile_path).exists():
            raise ConfigError(f"profile file not found: {self.profile_path}")
        unknown = set(self.train) - _TRAIN_FIELDS
        if unknown:
            raise ConfigError(f"unknown training settings {sorted(unknown)}")
        for spot in self.stuck:
            if spot.get("array") not in ("hidden", "out"):
                raise ConfigError(f"stuck entry needs array hidden|out: {spot}")
        self.check_counts()

    def check_counts(self) -> None:
        """Raise ConfigError unless every integer setting is in range.

        Also called after command-line overrides replace fields.
        """
        for name, least in _INT_MINIMA.items():
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ConfigError(f"{name} must be an int >= {least}, "
                                  f"got {value!r}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "out_dir": str(self.out_dir),
            "device": self.device.to_dict(),
            "crossbar": self.crossbar.to_dict(),
            "resistance_range": {"r_min": self.resistance_range.r_min,
                                 "r_max": self.resistance_range.r_max,
                                 "n_states": self.resistance_range.n_states},
            "train": dict(self.train),
            "tolerances": dict(self.tolerances),
            "profile_path": self.profile_path,
            "stuck": list(self.stuck),
            "x_p": self.x_p,
            "trials": self.trials,
            "bounds_trials": self.bounds_trials,
            "sweep_counts": list(self.sweep_counts),
            "sweep_range": {"r_min": self.sweep_range.r_min,
                            "r_max": self.sweep_range.r_max},
            "plan_points": self.plan_points,
            "plan_trials": self.plan_trials,
            "restarts": self.restarts,
            "discrete": self.discrete,
            "harden_epochs": self.harden_epochs,
            "harden_boost": self.harden_boost,
            "threads": self.threads,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        try:
            if "device" in d:
                d["device"] = DeviceParams.from_dict(d["device"])
            if "crossbar" in d:
                d["crossbar"] = CrossbarConfig.from_dict(d["crossbar"])
            if "resistance_range" in d:
                rr = d["resistance_range"]
                d["resistance_range"] = ResistanceRange(
                    rr["r_min"], rr["r_max"], rr.get("n_states"))
            if "sweep_range" in d:
                sr = d["sweep_range"]
                d["sweep_range"] = ResistanceRange(sr["r_min"], sr["r_max"],
                                                   sr.get("n_states"))
            if "sweep_counts" in d:
                d["sweep_counts"] = tuple(d["sweep_counts"])
            return cls(**d)
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc

    def config_hash(self) -> str:
        """Digest of every setting that can change the results."""
        d = self.to_dict()
        for name in _UNHASHED:
            del d[name]
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _load_split(run_dir: Path, name: str):
    return ds.load_dataset_csv(require_artifact(run_dir, f"dataset/{name}.csv"))


def _load_params(run_dir: Path, name: str = "params.json") -> MlpParams:
    path = require_artifact(run_dir, f"train/{name}")
    with open(path) as fh:
        return MlpParams.from_dict(json.load(fh))


def _load_compiled(run_dir: Path) -> CompiledNet:
    path = require_artifact(run_dir, "compile/compiled.json")
    with open(path) as fh:
        d = json.load(fh)
    return CompiledNet(
        hidden=CompiledLayer(np.array(d["hidden"]["r_m1"]),
                             np.array(d["hidden"]["r_m2"]), d["r_f"]),
        out=CompiledLayer(np.array(d["out"]["r_m1"]),
                          np.array(d["out"]["r_m2"]), d["r_f"]),
    )


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def stage_dataset(cfg: RunConfig) -> dict:
    out = cfg.out_dir / "dataset"
    out.mkdir(parents=True, exist_ok=True)
    profile = (ds.load_profile(cfg.profile_path) if cfg.profile_path
               else ds.default_profile())
    rng = substream(cfg.seed, _STREAM["dataset"], 0)
    (x_train, y_train), (x_test, y_test) = ds.default_splits(rng, profile)
    ds.save_dataset_csv(out / "train.csv", x_train, y_train)
    ds.save_dataset_csv(out / "test.csv", x_test, y_test)
    counts = {"train": {lb: y_train.count(lb) for lb in ds.LABELS},
              "test": {lb: y_test.count(lb) for lb in ds.LABELS}}
    _write_json(out / "split.json", {"seed": cfg.seed, **counts})
    return counts


def _final_loss(result: TrainResult, x: np.ndarray, y: np.ndarray) -> float:
    """Exact-model loss of the returned params (noisy phases select by a
    panel score, so the curve tail can belong to a different epoch)."""
    return mse(y, forward(result.params, x))


def _train_config(cfg: RunConfig, phase: str) -> TrainConfig:
    """Build the optimizer settings for one training phase.

    ``continuous`` is a clean run to the loss target.  ``harden``
    continues with weight-noise injection scaled to the configured
    component tolerances, trading a little nominal loss for flatness.
    ``discrete`` additionally projects onto the realizable state ladder.
    """
    opts = dict(cfg.train)
    states = None
    if phase == "discrete":
        n = cfg.resistance_range.n_states or 7
        states = symmetric_weight_states(n, cfg.crossbar.r_f,
                                         cfg.resistance_range)
    if phase in ("harden", "discrete"):
        sig = cfg.tolerances.get("limit_sigmas", 3.0)
        sigma_m = cfg.tolerances.get("r_m", 0.2) / sig
        sigma_f = cfg.tolerances.get("r_f", 0.01) / sig
        opts["weight_noise"] = cfg.harden_boost * float(
            np.hypot(sigma_m, sigma_f))
        opts["noise_offset"] = cfg.crossbar.r_f / cfg.resistance_range.r_max
        opts["max_epochs"] = cfg.harden_epochs
    return TrainConfig(discrete_states=states,
                       weight_limit=w_max(cfg.crossbar.r_f, cfg.resistance_range),
                       **opts)


def stage_train(cfg: RunConfig) -> dict:
    out = cfg.out_dir / "train"
    out.mkdir(parents=True, exist_ok=True)
    x_train, y_train = _load_split(cfg.out_dir, "train")
    x_test, y_test = _load_split(cfg.out_dir, "test")
    y_target = ds.target_matrix(y_train)
    best = None
    for restart in range(cfg.restarts):
        rng = substream(cfg.seed, _STREAM["train"], restart)
        p0 = init_params(rng)
        cont = train_discrete(p0, x_train, y_target,
                              _train_config(cfg, "continuous"))
        phases = [("continuous", cont)]
        result = cont
        if cfg.harden_epochs > 0:
            result = train_discrete(result.params, x_train, y_target,
                                    _train_config(cfg, "harden"), rng)
            phases.append(("harden", result))
        if cfg.discrete:
            result = train_discrete(result.params, x_train, y_target,
                                    _train_config(cfg, "discrete"), rng)
            phases.append(("discrete", result))
        test_p = evaluate(result.params, x_test, y_test)
        entry = (test_p, result.final_mse, restart, result, cont, phases)
        if best is None or entry[:2] < best[:2]:
            best = entry
    test_p, _, restart, result, cont, phases = best
    _write_json(out / "params.json", result.params.to_dict())
    _write_json(out / "params_continuous.json", cont.params.to_dict())
    curve = np.concatenate([phases[0][1].curve]
                           + [r.curve[1:] for _, r in phases[1:]])
    reports.write_curve_csv(out / "curve.csv", curve)
    reports.render_learning_curve(curve, cfg.out_dir / reports.CURVE_SVG)
    meta = {"test_p_err": test_p,
            "final_mse": float(_final_loss(result, x_train, y_target)),
            "epochs": int(sum(r.epochs for _, r in phases)),
            "converged": result.converged, "restart": restart,
            "phases": {name: {"epochs": r.epochs,
                              "mse": float(_final_loss(r, x_train, y_target)),
                              "test_p_err": evaluate(r.params, x_test, y_test)}
                       for name, r in phases}}
    _write_json(out / "train.json", meta)
    return meta


def stage_compile(cfg: RunConfig) -> dict:
    out = cfg.out_dir / "compile"
    out.mkdir(parents=True, exist_ok=True)
    params = _load_params(cfg.out_dir)
    net = compile_network(params.w_hidden, params.w_out, cfg.crossbar.r_f,
                          cfg.resistance_range)
    payload = {
        "r_f": cfg.crossbar.r_f,
        "reference": cfg.resistance_range.r_max,
        "hidden": {"r_m1": net.hidden.r_m1.tolist(),
                   "r_m2": net.hidden.r_m2.tolist()},
        "out": {"r_m1": net.out.r_m1.tolist(), "r_m2": net.out.r_m2.tolist()},
    }
    _write_json(out / "compiled.json", payload)
    return {"synapses": int(net.hidden.r_m1.size + net.out.r_m1.size)}


def _stuck_lookup(cfg: RunConfig, array: str) -> dict:
    return {(s["row"], s["col"]): float(s["ohm"])
            for s in cfg.stuck if s["array"] == array}


def _program_array(cfg: RunConfig, name: str, layer: CompiledLayer,
                   rng: np.random.Generator, log_rows: list) -> Crossbar:
    """Program one layer's synapse pairs into a crossbar, compensating
    stuck devices by re-solving the opposing resistance."""
    xbar = Crossbar(cfg.crossbar, cfg.device)
    stuck = _stuck_lookup(cfg, name)
    for (row, col), ohm in stuck.items():
        xbar.grid[row][col] = MemristorCell(resistance=ohm, stuck=ohm)
    n_in, n_out = layer.r_m1.shape
    weights = layer.weights()
    for j in range(n_out):
        for i in range(n_in):
            row1, row2 = 2 * j, 2 * j + 1
            s1 = stuck.get((row1, i))
            s2 = stuck.get((row2, i))
            if s1 is None and s2 is None:
                targets = ((row1, layer.r_m1[i, j]), (row2, layer.r_m2[i, j]))
            else:
                syn, achieved, _ = compensate_stuck(
                    s1, s2, float(weights[i, j]), layer.r_f,
                    cfg.resistance_range)
                targets = tuple(
                    (row, r) for row, r, frozen in
                    ((row1, syn.r_m1, s1 is not None),
                     (row2, syn.r_m2, s2 is not None))
                    if not frozen)
            for row, target_r in targets:
                log = program_cell(xbar, (row, i), float(target_r), rng)
                log_rows.append((name, row, i) + log.csv_row())
    return xbar


def stage_program(cfg: RunConfig) -> dict:
    out = cfg.out_dir / "program"
    out.mkdir(parents=True, exist_ok=True)
    compiled = _load_compiled(cfg.out_dir)
    params = _load_params(cfg.out_dir)
    x_test, y_test = _load_split(cfg.out_dir, "test")
    rng = substream(cfg.seed, _STREAM["program"], 0)
    log_rows: list = []
    xbar_h = _program_array(cfg, "hidden", compiled.hidden, rng, log_rows)
    xbar_o = _program_array(cfg, "out", compiled.out, rng, log_rows)
    save_crossbar_csv(xbar_h, out / "hidden.csv")
    save_crossbar_csv(xbar_o, out / "out.csv")
    with open(out / "program_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["array", "row", "col", "target_ohm", "final_ohm",
                         "attempts", "pulses", "success"])
        writer.writerows(log_rows)
    r_f = compiled.hidden.r_f
    achieved = params.copy()
    res_h = xbar_h.resistance_matrix()
    res_o = xbar_o.resistance_matrix()
    n_in, n_out = compiled.hidden.r_m1.shape
    achieved.w_hidden = (r_f / res_h[0:2 * n_out:2, :n_in]
                         - r_f / res_h[1:2 * n_out:2, :n_in]).T
    m_in, m_out = compiled.out.r_m1.shape
    achieved.w_out = (r_f / res_o[0:2 * m_out:2, :m_in]
                      - r_f / res_o[1:2 * m_out:2, :m_in]).T
    p = evaluate(achieved, x_test, y_test)
    payload = {"programmed_p_err": p,
               "cells_programmed": len(log_rows),
               "total_pulses": int(sum(r[6] for r in log_rows)),
               "achieved": achieved.to_dict()}
    _write_json(out / "programmed.json", payload)
    return {"programmed_p_err": p, "cells_programmed": len(log_rows)}


def stage_analyze(cfg: RunConfig) -> dict:
    out = cfg.out_dir / "analyze"
    out.mkdir(parents=True, exist_ok=True)
    params = _load_params(cfg.out_dir)
    compiled = _load_compiled(cfg.out_dir)
    x_test, y_test = _load_split(cfg.out_dir, "test")
    specs = tolerance_set(cfg.tolerances.get("r_m", 0.2),
                          cfg.tolerances.get("r_f", 0.01),
                          cfg.tolerances.get("limit_sigmas", 3.0))
    report = analyze_tolerances(params, compiled, specs, x_test, y_test,
                                cfg.x_p, cfg.trials,
                                subseed(cfg.seed, _STREAM["analyze"], 0),
                                bounds_trials=cfg.bounds_trials,
                                threads=cfg.threads)
    report.save_json(out / "report.json")
    report.save_trials_csv(out / "trials.csv")
    reports.write_bounds_csv(out / "weight_bounds.csv", report.weight_bounds)
    reports.render_p_err_box(
        {"overall": report.p_err, "sites": report.p_err_sites,
         "extraneous": report.p_err_extraneous},
        cfg.x_p, cfg.out_dir / reports.BOX_SVG)
    reports.render_weight_bounds(
        reports.read_bounds_csv(out / "weight_bounds.csv"),
        cfg.out_dir / reports.BOUNDS_SVG)
    return {"max_p_err": report.max_p_err, "subset_max": report.subset_max,
            "passed": report.passed}


def _default_plan(cfg: RunConfig) -> ExperimentPlan:
    r_f = cfg.tolerances.get("r_f", 0.01)
    points = cfg.plan_points
    if points is None:
        points = [{"r_m1": d, "r_m2": d, "r_f": r_f}
                  for d in np.arange(0.05, 0.55, 0.05).round(2)]
    return ExperimentPlan(points=points, trials=cfg.plan_trials)


def stage_synthesize(cfg: RunConfig) -> dict:
    out = cfg.out_dir / "synthesize"
    out.mkdir(parents=True, exist_ok=True)
    params = _load_params(cfg.out_dir)
    compiled = _load_compiled(cfg.out_dir)
    x_test, y_test = _load_split(cfg.out_dir, "test")
    plan = _default_plan(cfg)
    seed = subseed(cfg.seed, _STREAM["synthesize"], 0)
    delta = synthesize_tolerances(params, compiled, x_test, y_test, cfg.x_p,
                                  plan, seed)
    payload = {"delta_star": delta, "x_p": cfg.x_p,
               "plan_trials": plan.trials, "plan_points": plan.points}
    _write_json(out / "result.json", payload)
    return payload


def stage_sweep(cfg: RunConfig) -> dict:
    out = cfg.out_dir / "sweep"
    out.mkdir(parents=True, exist_ok=True)
    params = _load_params(cfg.out_dir, "params_continuous.json")
    x_test, y_test = _load_split(cfg.out_dir, "test")
    results = discrete_state_sweep(params, x_test, y_test, cfg.sweep_counts,
                                   cfg.sweep_range, cfg.crossbar.r_f)
    reports.write_sweep_csv(out / "sweep.csv", results)
    reports.render_sweep(results, cfg.x_p, cfg.out_dir / reports.SWEEP_SVG)
    return {str(n): v for n, v in results.items()}


def write_summary(cfg: RunConfig) -> dict:
    summary = {"seed": cfg.seed, "config_hash": cfg.config_hash(),
               "x_p": cfg.x_p}
    train_json = cfg.out_dir / "train" / "train.json"
    if train_json.exists():
        with open(train_json) as fh:
            summary["nominal_p_err"] = json.load(fh)["test_p_err"]
    prog_json = cfg.out_dir / "program" / "programmed.json"
    if prog_json.exists():
        with open(prog_json) as fh:
            summary["programmed_p_err"] = json.load(fh)["programmed_p_err"]
    report_json = cfg.out_dir / "analyze" / "report.json"
    if report_json.exists():
        with open(report_json) as fh:
            rep = json.load(fh)
        summary["mc_max_p_err"] = rep["max_p_err"]
        summary["mc_subset_max"] = rep["subset_max"]
        summary["passed"] = rep["passed"]
    _write_json(cfg.out_dir / "summary.json", summary)
    return summary


_STAGE_FUNCS = {
    "dataset": stage_dataset,
    "train": stage_train,
    "compile": stage_compile,
    "program": stage_program,
    "analyze": stage_analyze,
    "synthesize": stage_synthesize,
    "sweep": stage_sweep,
}


def run_pipeline(cfg: RunConfig, stage: str = "all") -> dict:
    """Execute one stage, or the whole chain, and refresh the summary."""
    if stage == "report":
        reports.emit_report(cfg.out_dir)
        return write_summary(cfg)
    names = STAGES if stage == "all" else (stage,)
    unknown = set(names) - set(_STAGE_FUNCS)
    if unknown:
        raise ConfigError(f"unknown stage {sorted(unknown)}; "
                          f"choose from {', '.join(STAGES + ('report', 'all'))}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "manifest.json",
                {"config": cfg.to_dict(), "hash": cfg.config_hash()})
    for name in names:
        _STAGE_FUNCS[name](cfg)
    return write_summary(cfg)
