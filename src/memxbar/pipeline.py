"""End-to-end orchestration: dataset, training, compilation, programming,
stress analysis, tolerance synthesis, state sweep.

Each stage writes its artifacts, each replaced whole by ``reports.replacing``,
into the stage-named directory that ``run_pipeline`` makes in the run
directory; later stages reload them from disk, each through
``reports.read_artifact`` (a dataset split from its binary copy where
``split.json``'s digests show it current), so any stage can be re-run in
isolation.  All
randomness derives from the master seed through fixed per-stage
substreams; an identical configuration reproduces every artifact byte for
byte.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import reports
from .crossbar import (Crossbar, CrossbarConfig, check_crossbar,
                       program_cell, save_crossbar_csv, synapse_pairs,
                       synapse_weights)
from .device import DeviceParams, check_device
from .errors import BiasViolationError, ConfigError, ShapeMismatchError
from .mapping import (CompiledLayer, CompiledNet, ResistanceRange,
                      compensate_stuck, compile_network, w_max)
from .netmodel import (N_HIDDEN, N_INPUT, N_OUTPUT, MlpParams, TrainConfig,
                       check_train_settings, check_unity_chain, evaluate,
                       init_params, label_codes, train_discrete)
from .reports import read_artifact, read_json, write_json
from .stats import check_ranges, is_real, subseed, substream
from .tolerance import (TOLERANCE_DEFAULTS, ExperimentPlan, analyze_tolerances,
                        check_state_counts, discrete_state_sweep,
                        synthesize_tolerances, tolerance_set)

# Hardening jitter per unit of the combined component sigma.
HARDEN_BOOST = 1.3


def _count(least: int) -> tuple:
    return (f"an int >= {least}", lambda v: type(v) is int and v >= least)


# The rule of each top-level setting; ``check_experiment`` checks what an
# object or a list holds with the type or function that uses it.
_SETTING_RULES = {
    "seed": _count(0), "trials": _count(1), "plan_trials": _count(1),
    "harden_epochs": _count(0),
    "x_p": ("a percentage in (0, 100]", lambda v: 0 < v <= 100),
    "out_dir": ("a path", lambda v: isinstance(v, Path)),
    "profile_path": ("null or a path",
                     lambda v: v is None or isinstance(v, str)),
    "train": ("an object", lambda v: isinstance(v, dict)),
    "tolerances": (f"an object of some of {list(TOLERANCE_DEFAULTS)}",
                   lambda v: isinstance(v, dict)
                   and set(v) <= set(TOLERANCE_DEFAULTS)),
    "stuck": ("a list", lambda v: isinstance(v, list)),
}


# The settings a config gives as an object of that type's fields.
_SECTIONS = {"device": DeviceParams, "crossbar": CrossbarConfig,
             "sweep_range": ResistanceRange}


@dataclass
class RunConfig:
    """Everything one reproducible run needs.

    The default device window is 10-300 kOhm with a fine reset ramp, which
    keeps the fixed-branch conductance of every synapse small; weights then
    shift less in absolute terms for a given relative resistance error.
    Weights compile into that window, :attr:`resistance_range`.  Training
    runs one recipe: a clean fit from one start, then, unless
    ``harden_epochs`` is 0, ``harden_epochs`` of noise injection at
    ``HARDEN_BOOST`` times the component sigma.  Plain data: the
    constructor only makes a string ``out_dir`` a Path, and
    :meth:`check_experiment` runs every rule.
    """

    seed: int
    out_dir: Path
    device: DeviceParams = field(default_factory=lambda: DeviceParams(
        r_hrs_nominal=300e3, ramp_step=1.5 / 128))
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)
    train: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCE_DEFAULTS))
    profile_path: str | None = None
    stuck: list = field(default_factory=list)
    x_p: float = 5.0
    trials: int = 10000
    sweep_counts: tuple = tuple(range(2, 13))
    sweep_range: ResistanceRange = field(
        default_factory=lambda: ResistanceRange(10e3, 60e3))
    plan_points: list | None = None
    plan_trials: int = 1000
    harden_epochs: int = 3000

    def __post_init__(self):
        if isinstance(self.out_dir, str):
            self.out_dir = Path(self.out_dir)

    @property
    def resistance_range(self) -> ResistanceRange:
        """The compile window: the device's nominal resistance window."""
        return ResistanceRange(self.device.r_lrs_nominal,
                               self.device.r_hrs_nominal)

    def check_experiment(self) -> None:
        """Raise ConfigError, naming the setting, unless every setting is
        usable: the one place a config rule runs, before any stage.

        After ``_SETTING_RULES``, the types and functions that use the
        settings check them in order, each reading only settings checked
        before it; their ValueError, or a profile file that cannot be read,
        becomes the ConfigError.  The crossbar owner also builds one array,
        which proves its SET, READ and RESET bias maps against the device;
        a map that would disturb a cell names ``v_set`` and ``v_threshold``.
        """
        dp, sweep = self.device, self.sweep_range
        window = (f"inside the device window [{dp.r_lrs_nominal!r}, "
                  f"{dp.r_hrs_nominal!r}]")
        inside = lambda v: dp.r_lrs_nominal <= v <= dp.r_hrs_nominal
        owners = {   # in order, keyed by the prefix of their refusals
            "": lambda: check_ranges({name: getattr(self, name)
                                     for name in _SETTING_RULES},
                                    _SETTING_RULES),
            "train.": lambda: check_train_settings(self.train),
            "device: ": lambda: check_device(dp),
            "sweep_range: ": lambda: check_ranges(asdict(sweep), {
                "r_min": (window, inside),
                "r_max": (f"{window} and > r_min ({sweep.r_min!r})",
                          lambda v: inside(v) and v > sweep.r_min)}),
            "crossbar: ": lambda: (check_crossbar(self.crossbar, dp),
                                   check_unity_chain(self.crossbar),
                                   Crossbar(self.crossbar, dp)),
            "stuck: ": lambda: _stuck_cells(self),
            "tolerances: ": lambda: tolerance_set(**self.tolerance_settings()),
            "sweep_counts: ": lambda: check_state_counts(self.sweep_counts),
            "plan_points: ": lambda: _default_plan(self),
            "profile_path: ": lambda: (self.profile_path is not None
                                       and ds.load_profile(self.profile_path)),
        }
        for prefix, check in owners.items():
            try:
                check()
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{prefix}{exc}") from exc
            except BiasViolationError as exc:
                raise ConfigError(
                    f"{prefix}device v_set {dp.v_set!r} and v_threshold "
                    f"{dp.v_threshold!r} fail the bias map proof: {exc}"
                ) from exc

    def tolerance_settings(self) -> dict:
        """``tolerances`` with the default of every setting it leaves out."""
        return {**TOLERANCE_DEFAULTS, **self.tolerances}

    def to_dict(self) -> dict:
        return {**asdict(self), "out_dir": str(self.out_dir)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config a parsed JSON object gives; see :func:`_build`."""
        if isinstance(d, dict):
            d = {**d, **{name: _build(kind, d[name], name)
                         for name, kind in _SECTIONS.items() if name in d}}
        return _build(cls, d)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, ValueError) as exc:   # JSONDecodeError included
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def config_hash(self) -> str:
        """Digest of every setting that can change the results: all but
        ``out_dir``."""
        d = self.to_dict()
        del d["out_dir"]
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _build(kind, values, section: str = "config"):
    """The ``kind`` that the JSON object ``values``, the config or its
    ``section``, gives, a list as a tuple where the field's default is one;
    anything but an object, or an unknown or missing key, is refused,
    naming the section.  ``check_experiment`` checks the values."""
    if not isinstance(values, dict):
        raise ConfigError(f"{section} must be an object, got {values!r}")
    tuples = {f.name for f in fields(kind) if isinstance(f.default, tuple)}
    try:
        return kind(**{key: tuple(value) if key in tuples
                       and isinstance(value, list) else value
                       for key, value in values.items()})
    except TypeError as exc:   # an unknown or a missing key
        raise ConfigError(f"{section}: {exc}") from exc


def _stuck_cells(cfg: RunConfig) -> dict:
    """The stuck matrix of each array, the value of each cell an entry of
    ``cfg.stuck`` names and NaN elsewhere; ValueError unless each entry
    maps just ``array`` (hidden or out), an int ``row`` and ``col`` inside
    the array and a finite ``ohm`` > 0, and no cell is named twice."""
    rows, cols = cfg.crossbar.rows, cfg.crossbar.cols
    rules = {
        "array": ("hidden or out", lambda v: v in ("hidden", "out")),
        "row": (f"an int in [0, {rows})",
                lambda v: type(v) is int and 0 <= v < rows),
        "col": (f"an int in [0, {cols})",
                lambda v: type(v) is int and 0 <= v < cols),
        "ohm": ("finite and > 0", lambda v: 0 < v < math.inf),
    }
    cells = {name: np.full((rows, cols), np.nan) for name in ("hidden", "out")}
    for spot in cfg.stuck:
        if not isinstance(spot, dict) or set(spot) != set(rules):
            raise ValueError(f"each entry must map {', '.join(rules)} to "
                             f"values, got {spot!r}")
        check_ranges(spot, rules)
        matrix, cell = cells[spot["array"]], (spot["row"], spot["col"])
        if not np.isnan(matrix[cell]):
            raise ValueError(f"{spot['array']} cell {cell} named twice")
        matrix[cell] = spot["ohm"]
    return cells


def _sha256(path: Path) -> str:
    """The sha256 of the bytes of ``path``, read in blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _split_copy(run_dir: Path, name: str):
    """The patterns and labels of the binary copy ``dataset/<name>.npy``,
    or None unless ``split.json`` holds the sha256 of the CSV and of the
    copy as they are now, and the copy holds one float row per counted
    pattern: its 16 values, then its label's index in ``LABELS``."""
    folder = Path(run_dir) / "dataset"
    try:
        record = read_json(folder / "split.json")
        shape = (sum(record[name].values()), N_INPUT + 1)
        digests = record["sha256"]
        blob = (folder / f"{name}.npy").read_bytes()   # used as hashed
        if (hashlib.sha256(blob).hexdigest() != digests[f"{name}.npy"]
                or _sha256(folder / f"{name}.csv") != digests[f"{name}.csv"]):
            return None
        # np.save's format 1.0, read in place: np.load of a stream would
        # copy it through transient blocks that raise the peak RSS
        stream = io.BytesIO(blob)
        if np.lib.format.read_magic(stream) != (1, 0):
            return None
        header = np.lib.format.read_array_header_1_0(stream)
        a = np.frombuffer(blob, np.float64, offset=stream.tell())
    except (OSError, EOFError, ValueError, KeyError, TypeError,
            AttributeError):
        return None
    if header != (shape, False, np.float64) or a.size != math.prod(shape):
        return None
    a = a.reshape(shape)
    codes = a[:, N_INPUT]
    if not np.isin(codes, np.arange(len(ds.LABELS))).all():
        return None
    labels = [ds.LABELS[k] for k in codes.astype(np.intp).tolist()]
    return np.ascontiguousarray(a[:, :N_INPUT]), labels


def _load_split(run_dir: Path, name: str):
    """A dataset split: the binary copy where ``_split_copy`` finds it
    current, else the parse of ``dataset/<name>.csv``, which refuses a
    malformed file naming its line.  The copy holds the CSV's values bit
    for bit, so both give the same split.  A value outside [0, 1], the
    range ``encode`` writes, is refused (NaN included), naming its line."""
    rel = f"dataset/{name}.csv"
    x, labels = (_split_copy(run_dir, name)
                 or read_artifact(run_dir, rel, ds.load_dataset_csv))
    inside = (x >= 0) & (x <= 1)
    if not inside.all():
        i, j = np.argwhere(~inside)[0]   # a record per line after the header
        raise ShapeMismatchError(f"{Path(run_dir) / rel} line {i + 2}: x{j} = "
                                 f"{float(x[i, j])!r} is outside [0, 1]")
    return x, labels


def _load_params(run_dir: Path, name: str = "params.json") -> MlpParams:
    """Trained weights and biases; a value that is not finite is refused."""
    def read(path):
        params = MlpParams.from_dict(read_json(path))
        for key, values in vars(params).items():
            if not np.isfinite(values).all():
                raise ValueError(f"{key} holds a value that is not finite")
        return params
    return read_artifact(run_dir, f"train/{name}", read)


def _load_compiled(cfg: RunConfig) -> CompiledNet:
    """The compiled net: a finite ``r_f`` > 0 and the r_m1 and r_m2 of
    each layer in the 16-8-4 shapes, each inside the compile window
    ``cfg.resistance_range``, to which compile clips."""
    low, high = cfg.device.r_lrs_nominal, cfg.device.r_hrs_nominal

    def read(path):
        d = read_json(path)
        r_f = d["r_f"]
        if not (is_real(r_f) and 0 < r_f < math.inf):
            raise ValueError(f"r_f must be finite and > 0, got {r_f!r}")
        layers = []
        for name, shape in (("hidden", (N_INPUT, N_HIDDEN)),
                            ("out", (N_HIDDEN, N_OUTPUT))):
            r_m1, r_m2 = (np.array(d[name][key], dtype=float)
                          for key in ("r_m1", "r_m2"))
            if r_m1.shape != shape or r_m2.shape != shape:
                raise ValueError(f"{name} r_m1 {r_m1.shape} and r_m2 "
                                 f"{r_m2.shape}, not {shape}")
            for key, r in (("r_m1", r_m1), ("r_m2", r_m2)):
                outside = np.argwhere(~((low <= r) & (r <= high)))
                if len(outside):
                    i, j = outside[0]
                    raise ValueError(f"{name} {key}[{i}][{j}] = {r[i, j]} is "
                                     f"outside the compile window [{low}, {high}]")
            layers.append(CompiledLayer(r_m1, r_m2, r_f))
        return CompiledNet(*layers)
    return read_artifact(cfg.out_dir, "compile/compiled.json", read)


def stage_dataset(cfg: RunConfig, stream: int) -> None:
    profile = (ds.load_profile(cfg.profile_path)
               if cfg.profile_path is not None else ds.default_profile())
    out = cfg.out_dir / "dataset"
    rng = substream(cfg.seed, stream, 0)
    splits = dict(zip(("train", "test"), ds.default_splits(rng, profile)))
    record = {"seed": cfg.seed, "sha256": {}}
    for name, (x, labels) in splits.items():
        ds.save_dataset_csv(out / f"{name}.csv", x, labels)
        with reports.replacing(out / f"{name}.npy", mode="wb") as fh:
            np.save(fh, np.column_stack([x, label_codes(labels)]))
        record[name] = {lb: labels.count(lb) for lb in ds.LABELS}
        for file in (f"{name}.csv", f"{name}.npy"):
            record["sha256"][file] = _sha256(out / file)
    write_json(out / "split.json", record)


def _train_config(cfg: RunConfig, harden: bool) -> TrainConfig:
    """Training settings of the clean fit to the loss target or, with
    ``harden``, of the hardening phase: weight-noise injection scaled to the
    component tolerances, trading a little nominal loss for flatness.
    """
    opts = dict(cfg.train)
    window = cfg.resistance_range
    if harden:
        tol = cfg.tolerance_settings()
        sigma_m = tol["r_m"] / tol["limit_sigmas"]
        sigma_f = tol["r_f"] / tol["limit_sigmas"]
        opts["weight_noise"] = HARDEN_BOOST * float(np.hypot(sigma_m, sigma_f))
        opts["noise_offset"] = cfg.crossbar.r_f / window.r_max
        opts["max_epochs"] = cfg.harden_epochs
    return TrainConfig(weight_limit=w_max(cfg.crossbar.r_f, window), **opts)


def stage_train(cfg: RunConfig, stream: int) -> None:
    x_train, y_train = _load_split(cfg.out_dir, "train")
    x_test, y_test = _load_split(cfg.out_dir, "test")
    y_target = ds.target_matrix(y_train)
    rng = substream(cfg.seed, stream, 0)
    cont = train_discrete(init_params(rng), x_train, y_target,
                          _train_config(cfg, harden=False))
    phases = [("continuous", cont)]
    result = cont
    if cfg.harden_epochs > 0:
        result = train_discrete(cont.params, x_train, y_target,
                                _train_config(cfg, harden=True), rng)
        phases.append(("harden", result))
    out = cfg.out_dir / "train"
    for name, kept in (("params.json", result), ("params_continuous.json", cont)):
        write_json(out / name, kept.params.to_dict())
    curve = np.concatenate([cont.curve] + [r.curve[1:] for _, r in phases[1:]])
    reports.write_curve_csv(cfg.out_dir / reports.CURVE_CSV, curve)
    reports.render_learning_curve(curve, cfg.out_dir / reports.CURVE_SVG)
    scored = {name: {"epochs": r.epochs, "mse": r.final_mse,
                     "test_p_err": evaluate(r.params, x_test, y_test)}
              for name, r in phases}
    meta = {"test_p_err": scored[phases[-1][0]]["test_p_err"],
            "final_mse": result.final_mse,
            "epochs": int(sum(r.epochs for _, r in phases)),
            "converged": result.converged,
            "phases": scored}
    write_json(out / "train.json", meta)


def stage_compile(cfg: RunConfig) -> None:
    params = _load_params(cfg.out_dir)
    net = compile_network(params.w_hidden, params.w_out, cfg.crossbar.r_f,
                          cfg.resistance_range)
    payload = {
        "r_f": cfg.crossbar.r_f,
        "hidden": {"r_m1": net.hidden.r_m1.tolist(),
                   "r_m2": net.hidden.r_m2.tolist()},
        "out": {"r_m1": net.out.r_m1.tolist(), "r_m2": net.out.r_m2.tolist()},
    }
    write_json(cfg.out_dir / "compile/compiled.json", payload)


def _program_array(cfg: RunConfig, name: str, layer: CompiledLayer,
                   rng: np.random.Generator, log_rows: list) -> Crossbar:
    """Program one layer's synapse pairs into a crossbar: a stuck device
    keeps its value and its partner is re-solved against it."""
    stuck = _stuck_cells(cfg)[name]
    xbar = Crossbar(cfg.crossbar, cfg.device, stuck=stuck)
    n_in, n_out = layer.r_m1.shape
    target = compensate_stuck(layer, *synapse_pairs(stuck, n_in, n_out),
                              cfg.resistance_range)
    free = np.isnan(stuck)
    for j in range(n_out):
        for i in range(n_in):
            for row, target_r in ((2 * j, target.r_m1[i, j]),
                                  (2 * j + 1, target.r_m2[i, j])):
                if free[row, i]:
                    log = program_cell(xbar, (row, i), float(target_r), rng)
                    log_rows.append((name, row, i) + log.csv_row())
    return xbar


def stage_program(cfg: RunConfig, stream: int) -> None:
    compiled = _load_compiled(cfg)
    params = _load_params(cfg.out_dir)
    x_test, y_test = _load_split(cfg.out_dir, "test")
    rng = substream(cfg.seed, stream, 0)
    log_rows: list = []
    xbar_h = _program_array(cfg, "hidden", compiled.hidden, rng, log_rows)
    xbar_o = _program_array(cfg, "out", compiled.out, rng, log_rows)
    out = cfg.out_dir / "program"
    save_crossbar_csv(xbar_h, out / "hidden.csv")
    save_crossbar_csv(xbar_o, out / "out.csv")
    reports.write_csv(out / "program_log.csv",
                      ["array", "row", "col", "target_ohm", "final_ohm",
                       "attempts", "pulses", "success"], log_rows)
    achieved = params.copy()
    achieved.w_hidden = synapse_weights(xbar_h, *compiled.hidden.r_m1.shape)
    achieved.w_out = synapse_weights(xbar_o, *compiled.out.r_m1.shape)
    p = evaluate(achieved, x_test, y_test)
    payload = {"programmed_p_err": p,
               "cells_programmed": len(log_rows),
               "total_pulses": int(sum(r[6] for r in log_rows)),
               "achieved": achieved.to_dict()}
    write_json(out / "programmed.json", payload)


def stage_analyze(cfg: RunConfig, stream: int) -> None:
    params = _load_params(cfg.out_dir)
    compiled = _load_compiled(cfg)
    x_test, y_test = _load_split(cfg.out_dir, "test")
    specs = tolerance_set(**cfg.tolerance_settings())
    report = analyze_tolerances(params, compiled, specs, x_test, y_test,
                                cfg.x_p, cfg.trials,
                                subseed(cfg.seed, stream, 0))
    run = cfg.out_dir
    write_json(run / reports.REPORT_JSON, report.to_dict())
    report.save_trials_csv(run / reports.TRIALS_CSV)
    rows = reports.write_bounds_csv(run / reports.BOUNDS_CSV,
                                    report.weight_bounds)
    reports.render_p_err_box(report.rates, cfg.x_p, run / reports.BOX_SVG)
    reports.render_weight_bounds(rows, run / reports.BOUNDS_SVG)


def _default_plan(cfg: RunConfig) -> ExperimentPlan:
    tol = cfg.tolerance_settings()
    points = cfg.plan_points
    if points is None:
        points = [{"r_m1": d, "r_m2": d, "r_f": tol["r_f"]}
                  for d in np.arange(0.05, 0.55, 0.05).round(2)]
    return ExperimentPlan(points=points, trials=cfg.plan_trials,
                          limit_sigmas=tol["limit_sigmas"])


def stage_synthesize(cfg: RunConfig, stream: int) -> None:
    params = _load_params(cfg.out_dir)
    compiled = _load_compiled(cfg)
    x_test, y_test = _load_split(cfg.out_dir, "test")
    plan = _default_plan(cfg)
    seed = subseed(cfg.seed, stream, 0)
    result = synthesize_tolerances(params, compiled, x_test, y_test, cfg.x_p,
                                   plan, seed)
    payload = {"delta_star": result.delta_star, "x_p": cfg.x_p,
               "plan_trials": plan.trials, "plan_points": plan.points,
               "probes": result.probes}
    write_json(cfg.out_dir / "synthesize/result.json", payload)


def stage_sweep(cfg: RunConfig) -> None:
    params = _load_params(cfg.out_dir, "params_continuous.json")
    x_test, y_test = _load_split(cfg.out_dir, "test")
    results = discrete_state_sweep(params, x_test, y_test, cfg.sweep_counts,
                                   cfg.sweep_range, cfg.crossbar.r_f)
    reports.write_sweep_csv(cfg.out_dir / reports.SWEEP_CSV, results)
    reports.render_sweep(results, cfg.x_p, cfg.out_dir / reports.SWEEP_SVG)


def _verdict(report: dict) -> dict:
    """The summary figures of ``analyze/report.json``; ``passed`` must be a
    bool, and ``x_p`` and every ``subset_max`` value numbers."""
    passed, x_p, subsets = report["passed"], report["x_p"], report["subset_max"]
    if type(passed) is not bool:
        raise TypeError(f"passed must be a bool, got {passed!r}")
    if not all(map(is_real, [x_p, *subsets.values()])):
        raise TypeError(f"x_p and the subset_max values must be numbers, got "
                        f"{x_p!r} and {subsets!r}")
    return {"mc_max_p_err": report["max_p_err"], "mc_subset_max": subsets,
            "passed": passed, "subsets_passed": max(subsets.values()) <= x_p}


def write_summary(cfg: RunConfig) -> dict:
    summary = {"seed": cfg.seed, "config_hash": cfg.config_hash(),
               "x_p": cfg.x_p}
    readers = {   # the figures each JSON artifact written so far gives
        "train/train.json": lambda d: {"nominal_p_err": d["test_p_err"]},
        "program/programmed.json":
            lambda d: {"programmed_p_err": d["programmed_p_err"]},
        reports.REPORT_JSON: _verdict,
    }
    for rel, figures in readers.items():
        if (cfg.out_dir / rel).exists():
            summary.update(read_artifact(
                cfg.out_dir, rel, lambda path: figures(read_json(path))))
    write_json(cfg.out_dir / "summary.json", summary)
    return summary


# Each stage in run order, writing into the directory of its name: its
# function and, for a stage that draws, the id of its stream, its argument.
_STAGES = {
    "dataset": (stage_dataset, 10),
    "train": (stage_train, 11),
    "compile": (stage_compile,),
    "program": (stage_program, 13),
    "analyze": (stage_analyze, 14),
    "synthesize": (stage_synthesize, 15),
    "sweep": (stage_sweep,),
}
STAGES = tuple(_STAGES)
# What ``run_pipeline`` and the command line accept as a stage.
STAGE_CHOICES = (*STAGES, "report", "all")


def run_pipeline(cfg: RunConfig, stage: str = "all") -> dict:
    """Execute one stage, or the whole chain, and refresh the summary."""
    cfg.check_experiment()
    if stage not in STAGE_CHOICES:
        raise ConfigError(f"unknown stage {stage!r}; "
                          f"choose from {', '.join(STAGE_CHOICES)}")
    if stage == "report":
        reports.emit_report(cfg.out_dir)
        return write_summary(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_json(cfg.out_dir / "manifest.json",
               {"config": cfg.to_dict(), "hash": cfg.config_hash()})
    for name in STAGES if stage == "all" else (stage,):
        (cfg.out_dir / name).mkdir(exist_ok=True)
        run, *stream = _STAGES[name]
        run(cfg, *stream)
    return write_summary(cfg)
