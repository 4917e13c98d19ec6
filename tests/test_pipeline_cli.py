"""Run configuration, stage orchestration, and the command-line interface."""

import copy
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memxbar
from memxbar.cli import (BLAS_THREAD_VARIABLES, EXIT_CONFIG, EXIT_ENFORCE,
                         EXIT_OK, EXIT_STAGE, build_parser, load_config,
                         main)
from memxbar.crossbar import U_SAT, Crossbar, CrossbarConfig
from memxbar.dataset import load_dataset_csv
from memxbar.device import DeviceParams
from memxbar.errors import ConfigError
from memxbar.mapping import ResistanceRange
from memxbar.netmodel import LAYERS, MlpParams
from memxbar.pipeline import (_STAGES, STAGE_CHOICES, STAGES, RunConfig,
                              _load_compiled, _load_params, _load_split,
                              run_pipeline, stage_dataset)
from memxbar.reports import (BOUNDS_SVG, BOX_SVG, CURVE_SVG, SWEEP_SVG,
                             emit_report, write_json)
from memxbar.tolerance import TOLERANCE_DEFAULTS

from helpers import DEFAULT_SEED, default_profile_dict


def default_cfg(out, **kw):
    return RunConfig(seed=DEFAULT_SEED, out_dir=out, **kw)


def _settings(obj, path=()):
    """(path, value) of every leaf field of the config dataclass ``obj``."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _settings(value, path + (f.name,))
        else:
            yield path + (f.name,), value


def test_config_dict_round_trip(tmp_path):
    """The dataclasses are the one schema of a run: the dict holds exactly
    their fields, each setting but ``out_dir`` reaches the config hash,
    and the dict, as it is and through JSON, reads back to an equal
    config."""
    cfg = default_cfg(tmp_path, trials=123,
                      stuck=[{"array": "hidden", "row": 1, "col": 2,
                              "ohm": 20e3}],
                      plan_points=[{"r_m1": 0.1}], sweep_counts=(2, 5),
                      crossbar=CrossbarConfig(rows=32),
                      device=DeviceParams(r_hrs_nominal=300e3,
                                          ramp_range=(1.5, 2.5)))
    d = cfg.to_dict()
    names = lambda obj: [f.name for f in dataclasses.fields(obj)]
    assert list(d) == names(cfg)
    for section in ("device", "crossbar", "sweep_range"):
        assert list(d[section]) == names(getattr(cfg, section)), section
    for (*head, name), value in _settings(cfg):
        if name == "out_dir":
            continue
        edited = copy.deepcopy(cfg)
        owner = functools.reduce(getattr, head, edited)
        object.__setattr__(owner, name, [value])   # the frozen range too
        assert edited.config_hash() != cfg.config_hash(), (*head, name)
    for source in (d, json.loads(json.dumps(d))):
        back = RunConfig.from_dict(source)
        assert back == cfg
        assert back.to_dict() == d
        assert back.config_hash() == cfg.config_hash()


def test_config_hash_tracks_content(tmp_path):
    a = default_cfg(tmp_path)
    b = default_cfg(tmp_path, x_p=4.0)
    assert a.config_hash() != b.config_hash()


def test_config_hash_ignores_out_dir(tmp_path):
    a = default_cfg(tmp_path / "a")
    assert default_cfg(tmp_path / "b").config_hash() == a.config_hash()


@pytest.mark.parametrize("name, value", [
    ("trials", 0), ("trials", -5), ("trials", "abc"), ("trials", 2.5),
    ("plan_trials", 0), ("harden_epochs", -1),
    ("harden_epochs", True), ("seed", -1), ("seed", "7"), ("seed", True),
    ("seed", 7.0),
])
def test_bad_count_setting_exits_with_config_error(tmp_path, name, value):
    """Checked by the config check, in a config file and after a flag,
    before anything is written."""
    with pytest.raises(ConfigError, match=name):
        RunConfig(**{"seed": DEFAULT_SEED, "out_dir": tmp_path, name: value}
                  ).check_experiment()
    run = tmp_path / "run"
    config = default_cfg(run).to_dict()
    config[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--stage", "analyze"]) == EXIT_CONFIG
    flags = {"trials": ["--seed", "1", "--trials"], "seed": ["--seed"]}
    if name in flags and type(value) is int:
        assert main(["--out", str(run), "--stage", "analyze", *flags[name],
                     str(value)]) == EXIT_CONFIG
    assert not run.exists()


@pytest.mark.parametrize("name, value", [
    ("r_f", float("nan")), ("r_f", float("inf")), ("r_1", float("nan")),
    ("u_rail", float("inf")), ("adc_step", float("-inf")),
])
def test_non_finite_amplifier_value_exits_with_config_error(
        tmp_path, capsys, name, value):
    config = default_cfg(tmp_path / "run").to_dict()
    config["crossbar"] = {name: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--stage", "compile"]) == EXIT_CONFIG
    message = json.loads(capsys.readouterr().out)["message"]
    assert message.startswith(f"crossbar: {name} must be finite")


# keys older configs set, with the values they set, and a misspelt one
_REMOVED = {"bounds_trials": 20000, "restarts": 1, "discrete": False,
            "resistance_range": {"r_min": 10e3, "r_max": 300e3},
            "harden_boost": 1.3, "train.step": 0.02, "train.beta1": 0.9,
            "train.beta2": 0.999, "train.eps": 1e-8, "train.leak": 0.05,
            "sweep_range.n_states": 7, "sweep_range.rmax_typo": 5,
            "crossbar.r_3": 0.0, "crossbar.r_4": 100e3, "crossbar.u_sat": 1.0}


@pytest.mark.parametrize("key", list(_REMOVED))
def test_removed_bounds_trials_setting_exits_with_config_error(tmp_path,
                                                              capsys, key):
    """Settings that selected a path no run takes, or that had one legal
    value, are unknown keys: the weight bands come from the analysis
    trials, training runs one recipe from one start with fixed optimizer
    constants and hardening boost, the compile window is the device
    window, the state ladders come from the sweep counts, and the
    amplifier chain has no output divider and saturates at 1.  A config
    that still sets one, or a misspelt range key, is refused before any
    stage, naming the key."""
    config = default_cfg(tmp_path / "run").to_dict()
    section, _, name = key.rpartition(".")
    (config[section] if section else config)[name] = _REMOVED[key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--stage", "analyze"]) == EXIT_CONFIG
    message = json.loads(capsys.readouterr().out)
    assert message["stage"] == "config"
    assert name in message["message"]
    assert not (tmp_path / "run").exists()


# the stopping settings out of range, and the optimizer constants, which
# are no training settings at all
@pytest.mark.parametrize("name, value", [
    ("step", 0), ("step", -0.02), ("step", float("nan")),
    ("step", float("inf")), ("step", "abc"), ("eps", 0.0),
    ("max_epochs", "abc"), ("max_epochs", -1), ("max_epochs", 10.0),
    ("max_epochs", True), ("mse_target", -1e-4),
    ("mse_target", float("inf")), ("mse_target", float("nan")),
    ("leak", 1.0), ("leak", -0.05), ("beta1", 1), ("beta2", 1.5),
    ("beta2", True),
])
def test_bad_train_setting_exits_with_config_error(tmp_path, name, value):
    """Checked by the config check and in a config file."""
    with pytest.raises(ConfigError, match=f"train.{name}"):
        default_cfg(tmp_path, train={name: value}).check_experiment()
    config = default_cfg(tmp_path / "run").to_dict()
    config["train"] = {name: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--stage", "train"]) == EXIT_CONFIG


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, value", [
    ("tolerances", {"r_m": 1.5}), ("tolerances", {"r_m": -0.1}),
    ("tolerances", {"r_f": 1.0}), ("tolerances", {"r_m": NAN}),
    ("tolerances", {"r_m": "0.2"}), ("tolerances", {"r_f": True}),
    ("tolerances", {"limit_sigmas": 0}), ("tolerances", {"limit_sigmas": -1}),
    ("tolerances", {"limit_sigmas": INF}), ("tolerances", {"limit_sigmas": NAN}),
    ("tolerances", {"rm": 0.2}), ("tolerances", [0.2, 0.01, 3.0]),
    ("x_p", 0), ("x_p", -1.0), ("x_p", 100.5), ("x_p", NAN), ("x_p", INF),
    ("x_p", "5"), ("x_p", True), ("x_p", None),
    ("sweep_counts", [1, 2]), ("sweep_counts", []), ("sweep_counts", [2, 2.5]),
    ("sweep_counts", ["3"]), ("sweep_counts", [True, 3]),
    ("plan_points", []), ("plan_points", "r_m1"), ("plan_points", [0.1]),
    ("plan_points", [{}]), ("plan_points", [{"r_m": 0.1}]),
    ("plan_points", [{"r_m1": 1.0}]), ("plan_points", [{"r_m1": "0.1"}]),
    ("plan_points", [{"r_m1": 0.2}, {"r_m1": 0.1}]),
    ("plan_points", [{"r_m1": 0.1, "r_f": 0.02}, {"r_m1": 0.2, "r_f": 0.01}]),
    ("plan_points", [{"r_m1": 0.1}, {"r_m2": 0.2}]),
    ("plan_points", [{"r_m1": 0.1}, {"r_m1": 0.2, "r_m2": 0.2}]),
    # the hardening boost is a constant; a config that sets it is refused
    ("harden_boost", -1.0), ("harden_boost", NAN), ("harden_boost", 1.3),
    # a NaN threshold would pass every bias-safety comparison
    ("device.v_threshold", NAN), ("device.v_read", 0.0),
    ("device.v_read", -0.5), ("device.v_read", 1.5),
    ("device.max_program_iterations", 2.5),
    ("crossbar.adc_step", -0.0025), ("crossbar.adc_step", 0.0),
    ("crossbar.adc_range", 0.0), ("crossbar.adc_range", -5.0),
    # values that would only stop the program stage, or pass its checks
    ("device.v_set", NAN), ("device.v_set", -INF), ("device.v_set", -1.0),
    ("device.v_set", "-3.0"), ("device.ramp_range", [3.0, 1.5]),
    ("device.ramp_range", [1.5, NAN]), ("device.ramp_range", [NAN, 3.0]),
    ("device.ramp_step", NAN), ("device.ramp_step", INF),
    ("device.ramp_gamma", "1.0"), ("device.ramp_gamma", 0.0),
    ("device.ramp_gamma", -1.0), ("device.ramp_gamma", NAN),
    ("device.response_noise_sigma", NAN),
    ("device.response_noise_sigma", INF),
    # values the bias-map proof refuses: a half-selected cell of the SET map
    # would see 2.5, 1.51 or 1.6 V
    ("device.v_set", -4.0), ("device.v_set", -3.01),
    ("device.v_threshold", 1.4),
])
def test_bad_experiment_setting_exits_before_any_stage(tmp_path, capsys,
                                                      name, value):
    """Checked when the pipeline starts, before it writes anything; the
    command line reports it as a config error, naming the setting,
    whatever the stage.  A dotted name is a setting of that section."""
    out = tmp_path / "run"
    config = default_cfg(out).to_dict()
    section, _, key = name.rpartition(".")
    (config[section] if section else config)[key] = value
    with pytest.raises(ConfigError, match=key):
        run_pipeline(RunConfig.from_dict(config), "dataset")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for stage in ("dataset", "analyze", "all"):
        assert main(["--config", str(path), "--stage", stage]) == EXIT_CONFIG
        message = json.loads(capsys.readouterr().out)
        assert message["error"] == "ConfigError"
        assert message["stage"] == "config"
        assert key in message["message"]
    assert not out.exists()


# Numbers out of range for each device and crossbar field, each refused
# naming that field; the bad-field test adds a bool, the default as a
# string, null (for ramp_step the default step) and the default in a
# one-element list.
_BAD_FIELD_VALUES = {
    "device": {
        "r_lrs_nominal": [NAN, INF, -INF, -1.0, 0.0],
        "r_hrs_nominal": [NAN, INF, -1.0, 0.0, 5e3, 10e3],
        "v_threshold": [NAN, INF, -INF, -1.5, 0.0],
        "v_set": [NAN, INF, -INF, -1.0, 0.0, 3.0],
        "ramp_range": [2.0, [], [1.5], [3.0, 1.5], [1.5, 1.5], [1.5, NAN],
                       [NAN, 3.0], [-INF, 3.0], [1.5, INF], [1.0, 3.0],
                       [1.5, 3.5], [1.5, 2.0, 3.0], ["1.5", 3.0],
                       [True, 3.0]],
        "ramp_step": [NAN, INF, -1.0, 0.0],
        "ramp_gamma": [NAN, INF, -1.0, 0.0],
        "v_read": [NAN, INF, -0.5, 0.0, 1.5, 2.0],
        "program_tolerance": [NAN, INF, -0.1, 0.0, 1.0, 1.5],
        "response_noise_sigma": [NAN, INF, -0.01],
        "max_program_iterations": [NAN, INF, -1, 0, 2.5, 50.0],
    },
    "crossbar": {
        "rows": [NAN, INF, -1, 0, 8, 17, 16.0],
        "cols": [NAN, INF, -1, 0, 15, 16.0],
        "r_f": [NAN, INF, -INF, -1.0, 0.0],
        "r_1": [NAN, INF, -1.0, 0.0],
        "r_2": [NAN, INF, -1.0, 0.0, 200e3],
        "u_rail": [NAN, INF, -1.0, 0.0, 0.5],
        "u_in_max": [NAN, INF, -1.0, 0.0, 0.9, 1.5],
        "adc_step": [NAN, INF, -INF, -0.0025, 0.0],
        "adc_range": [NAN, INF, -5.0, 0.0],
    },
}
_NO_ENTRY = "no bad value listed"


def _bad_field_cases():
    """A case for each bad value of every device and crossbar field, and
    one that fails for a field that has no entry."""
    defaults = default_cfg(Path("run")).to_dict()
    for section, kind in (("device", DeviceParams),
                          ("crossbar", CrossbarConfig)):
        for name in (f.name for f in dataclasses.fields(kind)):
            if name not in _BAD_FIELD_VALUES[section]:
                yield pytest.param(section, name, _NO_ENTRY,
                                   id=f"{section}.{name}-{_NO_ENTRY}")
                continue
            default = defaults[section][name]
            typed = [True, str(default), [default]]
            if name != "ramp_step":
                typed.append(None)
            for value in _BAD_FIELD_VALUES[section][name] + typed:
                yield pytest.param(section, name, value,
                                   id=f"{section}.{name}={value!r}")


@pytest.mark.parametrize("section, name, value", _bad_field_cases())
def test_every_device_and_crossbar_field_refuses_a_bad_value(
        tmp_path, capsys, section, name, value):
    """The settings are plain data, checked once when the pipeline starts:
    a value of the wrong type or out of range exits 2 from the library and
    the command alike, naming the section and the field, and nothing is
    written."""
    assert value != _NO_ENTRY, f"{section}.{name}: {_NO_ENTRY}"
    out = tmp_path / "run"
    config = default_cfg(out).to_dict()
    config[section][name] = value
    refusal = f"{section}: {name} must be "
    with pytest.raises(ConfigError) as refused:
        run_pipeline(RunConfig.from_dict(config), "all")
    assert str(refused.value).startswith(refusal)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--stage", "all"]) == EXIT_CONFIG
    message = json.loads(capsys.readouterr().out)
    assert message["stage"] == "config"
    assert message["message"].startswith(refusal)
    assert not out.exists()


# Bad values of each run setting, and of each key of the sweep window, of a
# stuck entry and of the tolerances.  Every case starts from the default
# config with one stuck entry, so a stuck entry is compared with the array
# only once the crossbar settings have passed.
_STUCK_ENTRY = {"array": "hidden", "row": 3, "col": 5, "ohm": 20e3}
_BAD_CONFIG_VALUES = {
    "seed": [True, "7", None, [7], {}, -1, 7.0, NAN],
    "out_dir": [True, None, 5, ["run"], {}],
    "device": [True, "device", None, [], 5, {"v_sat": 1.0}],
    "crossbar": [True, "crossbar", None, [], 5, {"u_sat": 1.0},
                 {"rows": NAN}, {"rows": "16"}],
    "train": [True, "step", None, [], 5, {"step": 0.02}, {"max_epochs": -1}],
    "tolerances": [True, "r_m", None, [0.2], 5, {"rm": 0.2}],
    "profile_path": [True, 5, [], {}, "", "absent.json"],
    "stuck": [True, "stuck", None, 5, {}, [5], [None], [{}],
              [{**_STUCK_ENTRY, "extra": 1}], [_STUCK_ENTRY, _STUCK_ENTRY]],
    "x_p": [True, "5", None, [5.0], {}, 0, -1.0, 100.5, NAN, INF],
    "trials": [True, "10", None, [10], {}, 0, -1, 2.5, 10.0],
    "sweep_counts": [True, "ab", None, 5, {}, [], [1], [2, 2.5], ["3"],
                     [True, 3]],
    "sweep_range": [True, "sweep", None, [], 5, {}, {"r_min": 1e4},
                    {"r_min": 1e4, "r_max": 6e4, "n_states": 7},
                    {"r_min": 5e4, "r_max": 2e4}],
    "plan_points": [True, "r_m1", [], 5, {}, [0.1], [{}], [{"r_m1": 1.0}]],
    "plan_trials": [True, "1000", None, [1000], {}, 0, -1, 2.5],
    "harden_epochs": [True, "3000", None, [3000], {}, -1, 2.5],
    "sweep_range.r_min": [True, "1e4", None, [1e4], {}, NAN, -INF, 0.0,
                          5e3],
    "sweep_range.r_max": [True, "6e4", None, [6e4], {}, NAN, INF, 5e3, 10e3,
                          400e3],
    "stuck.array": [True, "middle", None, ["hidden"], {}, 5],
    "stuck.row": [True, "3", None, [3], {}, -1, 16, 3.0, NAN],
    "stuck.col": [True, "5", None, [5], {}, -1, 16, 5.0, NAN],
    "stuck.ohm": [True, "2e4", None, [2e4], {}, 0.0, -2e4, NAN, INF],
    "tolerances.r_m": [True, "0.2", None, [0.2], {}, -0.1, 1.0, NAN, INF],
    "tolerances.r_f": [True, "0.01", None, [0.01], {}, -0.1, 1.0, NAN],
    "tolerances.limit_sigmas": [True, "3", None, [3.0], {}, 0.0, -1.0, NAN,
                                INF],
}


def _bad_config_cases():
    """A case for each bad value of every run setting and of every key of
    the sweep window, a stuck entry and the tolerances, and one that fails
    for a setting or key that has no entry."""
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    keys += [f"sweep_range.{f.name}"
             for f in dataclasses.fields(ResistanceRange)]
    keys += [f"stuck.{key}" for key in _STUCK_ENTRY]
    keys += [f"tolerances.{key}" for key in TOLERANCE_DEFAULTS]
    for key in keys:
        if key not in _BAD_CONFIG_VALUES:
            yield pytest.param(key, _NO_ENTRY, id=f"{key}-{_NO_ENTRY}")
            continue
        for value in _BAD_CONFIG_VALUES[key]:
            yield pytest.param(key, value, id=f"{key}={value!r}")


@pytest.mark.parametrize("key, value", _bad_config_cases())
def test_every_config_field_refuses_a_bad_value(tmp_path, monkeypatch, capsys,
                                                key, value):
    """A run config is plain data, checked once when the pipeline starts: a
    value of the wrong type or out of range exits 2 from the library and
    the command alike, naming the setting first (``section: key`` for a
    key of a section), and nothing is written."""
    assert value != _NO_ENTRY, f"{key}: {_NO_ENTRY}"
    monkeypatch.chdir(tmp_path)
    config = default_cfg(Path("run"), stuck=[_STUCK_ENTRY]).to_dict()
    section, _, name = key.partition(".")
    if name:
        entry = config[section][0] if section == "stuck" else config[section]
        entry[name] = value
        refusal = f"{section}: {name}"
    else:
        config[section] = value
        refusal = section
    named = re.compile(rf"{re.escape(refusal)}\b")    # not r_m1 for r_m
    with pytest.raises(ConfigError) as refused:
        run_pipeline(RunConfig.from_dict(config), "all")
    assert named.match(str(refused.value))
    Path("cfg.json").write_text(json.dumps(config))
    assert main(["--config", "cfg.json", "--stage", "all"]) == EXIT_CONFIG
    message = json.loads(capsys.readouterr().out)
    assert message["stage"] == "config"
    assert named.match(message["message"])
    assert os.listdir() == ["cfg.json"]


@pytest.mark.parametrize("section, value, name", [
    ("crossbar", CrossbarConfig(r_f=(1e5, 2e5)), "r_f"),
    ("device", DeviceParams(v_read=(0.5, 0.6)), "v_read"),
    ("device", DeviceParams(ramp_step=(0.1, 0.2)), "ramp_step"),
])
def test_a_tuple_in_a_scalar_setting_is_refused_naming_it(tmp_path, section,
                                                         value, name):
    """Only a Python caller can put a tuple in a scalar field; the rule
    that compares it with a number refuses it like any other bad value."""
    with pytest.raises(ConfigError, match=f"^{section}: {name} must be "):
        default_cfg(tmp_path, **{section: value}).check_experiment()


def test_an_empty_profile_path_is_refused(tmp_path, monkeypatch, capsys):
    """An empty path names no file: it is refused like any profile that
    cannot be read, not taken for the packaged default."""
    monkeypatch.chdir(tmp_path)
    cfg = default_cfg(Path("run"), profile_path="")
    with pytest.raises(ConfigError, match="^profile_path: "):
        run_pipeline(cfg, "dataset")
    with pytest.raises(OSError):
        stage_dataset(cfg, _STAGES["dataset"][1])
    Path("cfg.json").write_text(json.dumps(cfg.to_dict()))
    assert main(["--config", "cfg.json", "--stage", "dataset"]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().out)["stage"] == "config"
    assert os.listdir() == ["cfg.json"]


@pytest.mark.parametrize("name, value", [
    ("r_2", 200e3), ("u_sat", 0.5), ("u_sat", 2.0), ("u_in_max", 0.9),
    ("rows", 8), ("rows", 16.0), ("rows", 17), ("cols", 15),
    ("u_in_max", 1.5), ("u_in_max", 2.0),
])
def test_chain_the_model_cannot_represent_exits_before_any_stage(
        tmp_path, capsys, name, value):
    """Every figure comes from the network model, which computes the unity
    amplifier chain on arrays large enough for the 16-8-4 net; another
    chain, or a data-signal limit at or above the device threshold (1.5 V),
    which would switch cells, is a config error that names the setting,
    and nothing is written.  The saturation is no setting but the
    constant ``crossbar.U_SAT``: a config that asks for another one is
    refused as an unknown key."""
    out = tmp_path / "run"
    if name in {f.name for f in dataclasses.fields(CrossbarConfig)}:
        refusal = f"crossbar: {name} must be"
        with pytest.raises(ConfigError, match=refusal):
            default_cfg(out, crossbar=CrossbarConfig(**{name: value})
                        ).check_experiment()
    else:
        assert value != U_SAT
        unknown = ("CrossbarConfig.__init__() got an unexpected keyword "
                   f"argument '{name}'")
        with pytest.raises(TypeError, match=re.escape(unknown)):
            CrossbarConfig(**{name: value})
        refusal = f"crossbar: {unknown}"
    config = default_cfg(out).to_dict()
    config["crossbar"][name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for stage in ("dataset", "program", "all"):
        assert main(["--config", str(path), "--stage", stage]) == EXIT_CONFIG
        message = json.loads(capsys.readouterr().out)
        assert message["error"] == "ConfigError"
        assert message["stage"] == "config"
        assert message["message"].startswith(refusal)
    assert not out.exists()


@pytest.mark.parametrize("name, value", [
    ("tolerances", {}), ("tolerances", {"r_m": 0, "limit_sigmas": 2}),
    ("x_p", 100), ("x_p", 0.01), ("sweep_counts", [3]),
    ("plan_points", [{"r_m1": 0.0}]),
    ("plan_points", [{"r_m1": 0.1, "r_f": 0.01}, {"r_m1": 0.1, "r_f": 0.02}]),
    # a read just below the threshold, one SET cycle per write
    ("device", DeviceParams(v_read=1.4, max_program_iterations=1)),
    # the rails are not part of the network model's assumption
    ("crossbar", CrossbarConfig(u_rail=1.0)),
    ("crossbar", CrossbarConfig(u_rail=2.5, u_in_max=1.2)),
    ("crossbar", CrossbarConfig(rows=32, cols=20, r_1=47e3, r_2=47e3)),
    # a SET pulse at the threshold, a noiseless device, a concave ramp
    ("device", DeviceParams(v_set=-1.5, response_noise_sigma=0.0,
                            ramp_gamma=0.5)),
])
def test_usable_experiment_setting_passes_the_check(tmp_path, name, value):
    default_cfg(tmp_path, **{name: value}).check_experiment()


@pytest.mark.parametrize("section, name", [
    ("crossbar", "resistor_tolerance"), ("device", "i_limit_set"),
    ("device", "pulse_width"), (None, "threads"),
])
def test_config_rejects_removed_setting(tmp_path, section, name):
    """Settings that no code read are unknown keys, like any other."""
    config = default_cfg(tmp_path / "run").to_dict()
    (config[section] if section else config)[name] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match=name):
        RunConfig.from_json(path)
    assert main(["--config", str(path), "--stage", "dataset"]) == EXIT_CONFIG


def test_tolerance_settings_fill_in_defaults(tmp_path):
    cfg = default_cfg(tmp_path, tolerances={"r_m": 0.1})
    assert cfg.tolerance_settings() == {"r_m": 0.1, "r_f": 0.01,
                                        "limit_sigmas": 3.0}
    assert default_cfg(tmp_path).tolerance_settings() == \
        default_cfg(tmp_path).tolerances


def test_config_rejects_window_mismatch(tmp_path):
    """The compile window is the device window; no config can set another."""
    cfg = default_cfg(tmp_path, device=DeviceParams(r_hrs_nominal=90e3))
    assert cfg.resistance_range == ResistanceRange(10e3, 90e3)
    with pytest.raises(ConfigError, match="resistance_range"):
        RunConfig.from_dict({**cfg.to_dict(), "resistance_range":
                             {"r_min": 10e3, "r_max": 60e3}})


def test_config_rejects_sweep_outside_window(tmp_path):
    """Checked when the pipeline starts, once the device settings have
    passed: the constructor compares no device value."""
    for sweep, refusal in (
            (ResistanceRange(5e3, 60e3), r"r_min must be inside the device "
                                         r"window \[10000.0, 300000.0\], "
                                         r"got 5000.0"),
            (ResistanceRange(10e3, 400e3), "r_max must be inside")):
        cfg = default_cfg(tmp_path, sweep_range=sweep)
        with pytest.raises(ConfigError, match=f"^sweep_range: {refusal}"):
            cfg.check_experiment()


def test_config_rejects_unknown_train_key(tmp_path):
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, train={"learning_rate": 0.1}).check_experiment()


@pytest.mark.parametrize("train", [[], "step", None])
def test_config_rejects_train_settings_that_are_not_a_mapping(tmp_path, train):
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, train=train).check_experiment()


def test_config_rejects_bad_stuck_entry(tmp_path):
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, stuck=[{"array": "nowhere", "row": 0,
                                      "col": 0, "ohm": 20e3}]
                    ).check_experiment()


@pytest.mark.parametrize("change", [
    {"row": 16}, {"row": -1}, {"col": 16}, {"col": -1}, {"row": "3"},
    {"row": 3.0}, {"col": True}, {"ohm": None}, {"ohm": 0.0}, {"ohm": -20e3},
    {"ohm": "20e3"}, {"ohm": float("nan")}, {"ohm": float("inf")},
])
def test_config_rejects_stuck_entry_outside_array(tmp_path, change):
    spot = {"array": "hidden", "row": 3, "col": 5, "ohm": 20e3, **change}
    spot = {k: v for k, v in spot.items() if v is not None}
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, stuck=[spot]).check_experiment()


def test_config_rejects_a_stuck_cell_named_twice(tmp_path):
    """Two entries for one cell would leave only the last one's value;
    the same row and column of the other array is another cell."""
    stuck = [{"array": "out", "row": 3, "col": 5, "ohm": 20e3},
             {"array": "hidden", "row": 3, "col": 5, "ohm": 20e3},
             {"array": "out", "row": 3, "col": 5, "ohm": 40e3}]
    default_cfg(tmp_path, stuck=stuck[:2]).check_experiment()
    with pytest.raises(ConfigError, match=r"out cell \(3, 5\) named twice"):
        default_cfg(tmp_path, stuck=stuck).check_experiment()
    run = tmp_path / "run"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**default_cfg(run).to_dict(), "stuck": stuck}))
    assert main(["--config", str(path), "--stage", "program"]) == EXIT_CONFIG
    assert not run.exists()


def test_config_rejects_missing_profile(tmp_path):
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, profile_path=str(tmp_path / "absent.json")
                    ).check_experiment()


@pytest.mark.parametrize("edit", [
    "missing class", "missing means", "invalid JSON", "mean shape",
    "zero dac_step", "window_ms string",
])
def test_bad_profile_exits_before_any_stage(tmp_path, capsys, edit):
    """The profile file is read when the pipeline starts; one that the
    profile type refuses is a config error, and nothing is written."""
    profile = default_profile_dict()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(profile))
    if edit == "missing class":
        del profile["means"]["S2"]
    elif edit == "missing means":
        del profile["means"]
    elif edit == "mean shape":
        profile["means"]["S1"] = profile["means"]["S1"][:3]
    elif edit == "zero dac_step":
        profile["dac_step"] = 0
    elif edit == "window_ms string":
        profile["window_ms"] = "50"
    path = tmp_path / "profile.json"
    path.write_text("{not json" if edit == "invalid JSON"
                    else json.dumps(profile))
    out = tmp_path / "run"
    default_cfg(out, profile_path=str(good)).check_experiment()
    with pytest.raises(ConfigError, match="profile_path"):
        run_pipeline(default_cfg(out, profile_path=str(path)), "dataset")
    config = default_cfg(out, profile_path=str(path)).to_dict()
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    assert main(["--config", str(config_path), "--stage", "all"]) == EXIT_CONFIG
    message = json.loads(capsys.readouterr().out)
    assert message["error"] == "ConfigError"
    assert message["stage"] == "config"
    assert not out.exists()


def test_config_from_json_errors(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_json(tmp_path / "missing.json")
    with pytest.raises(ConfigError):
        RunConfig.from_json(tmp_path)      # a directory
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[]", "5"):
        bad.write_text(text)
        with pytest.raises(ConfigError):
            RunConfig.from_json(bad)
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(ConfigError):
        RunConfig.from_json(bad)


def test_unknown_stage_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_pipeline(default_cfg(tmp_path / "r"), "polish")


def test_stage_names_come_from_the_stage_table():
    """``STAGES`` is the table's stages in run order, each a function
    ``stage_<name>``; only the stages that draw hold a stream, each its
    own.  The command line offers, and ``run_pipeline`` accepts, the same
    choices."""
    assert STAGES == tuple(_STAGES) == ("dataset", "train", "compile",
                                        "program", "analyze", "synthesize",
                                        "sweep")
    streams = {name: stream for name, (run, *stream) in _STAGES.items()
               if stream}
    assert list(streams) == ["dataset", "train", "program", "analyze",
                             "synthesize"]
    assert len(set(map(tuple, streams.values()))) == len(streams)
    for name, (run, *_) in _STAGES.items():
        assert run.__name__ == f"stage_{name}"
    assert STAGE_CHOICES == STAGES + ("report", "all")
    stage = next(a for a in build_parser()._actions if a.dest == "stage")
    assert tuple(stage.choices) == STAGE_CHOICES


def test_layer_names_and_shapes_come_from_the_layer_table(default_run,
                                                          tmp_path):
    """``LAYERS`` names each layer, in order, with its weight shape: the
    params and their shapes, the compiled net and ``compiled.json``, the
    arrays the program stage writes and the stuck-cell refusal follow
    it."""
    assert LAYERS == {"hidden": (16, 8), "out": (8, 4)}
    shapes = {"w_hidden": (16, 8), "b_hidden": (8,), "w_out": (8, 4),
              "b_out": (4,)}
    assert [f.name for f in dataclasses.fields(MlpParams)] == list(shapes)
    params = _load_params(default_run.run_dir)
    assert {k: np.shape(v) for k, v in params.to_dict().items()} == shapes
    assert list(params.to_dict()) == list(shapes)
    compiled = json.loads(
        (default_run.run_dir / "compile" / "compiled.json").read_text())
    assert set(compiled) == {"r_f", *LAYERS}
    for name, shape in LAYERS.items():
        assert np.shape(compiled[name]["r_m1"]) == shape
        assert np.shape(compiled[name]["r_m2"]) == shape
    net = _load_compiled(default_run.cfg)
    assert [name for name, _ in net.layers()] == list(LAYERS)
    program = default_run.run_dir / "program"
    assert sorted(p.name for p in program.glob("*.csv")) == \
        sorted([f"{name}.csv" for name in LAYERS] + ["program_log.csv"])
    spot = {"array": "input", "row": 0, "col": 0, "ohm": 20e3}
    with pytest.raises(ConfigError, match="array must be hidden or out"):
        default_cfg(tmp_path, stuck=[spot]).check_experiment()


def test_pipeline_is_deterministic(default_run, tmp_path):
    """Same seed and settings in a fresh directory: identical outputs,
    every file but ``manifest.json``, which names the directory."""
    out = tmp_path / "again"
    summary = run_pipeline(default_cfg(out), "all")
    assert summary == default_run.summary
    written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert Path("program/hidden.csv") in written and len(written) > 20
    for rel in written:
        if rel != Path("manifest.json"):
            assert (out / rel).read_bytes() == \
                (default_run.run_dir / rel).read_bytes(), rel
    # the charts the stages drew are those emit_report redraws from the CSVs
    drawn = [(out / rel).read_bytes()
             for rel in (CURVE_SVG, BOX_SVG, BOUNDS_SVG, SWEEP_SVG)]
    assert [path.read_bytes() for path in emit_report(out)] == drawn


@pytest.fixture
def csv_parses(monkeypatch):
    """The names of the files ``dataset.load_dataset_csv`` parses while the
    test runs."""
    parsed, parse = [], memxbar.dataset.load_dataset_csv

    def spy(path):
        parsed.append(Path(path).name)
        return parse(path)
    monkeypatch.setattr(memxbar.dataset, "load_dataset_csv", spy)
    return parsed


def _same_split(got, want):
    """Two (patterns, labels) pairs hold the same bits and labels."""
    assert got[0].shape == want[0].shape and got[0].flags.c_contiguous
    assert np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    assert got[1] == want[1]


def test_a_split_is_read_from_its_binary_copy(default_run, csv_parses):
    """Where ``split.json`` holds the digests of the CSV and of the copy as
    they are, a stage reads the copy, and it is the CSV's parse bit for
    bit."""
    folder = default_run.run_dir / "dataset"
    digests = json.loads((folder / "split.json").read_text())["sha256"]
    assert sorted(digests) == ["test.csv", "test.npy", "train.csv", "train.npy"]
    for name in ("train", "test"):
        got = _load_split(default_run.run_dir, name)
        assert csv_parses == []
        _same_split(got, load_dataset_csv(folder / f"{name}.csv"))


def _record(change):
    """An edit of ``split.json``: ``change`` the parsed object."""
    def edit(folder):
        record = json.loads((folder / "split.json").read_text())
        change(record)
        write_json(folder / "split.json", record)
    return edit


def _rewritten(content):
    """``test.npy`` replaced by the bytes ``content`` makes of its path, its
    new digest recorded: only the check of the copy's content can refuse
    it."""
    def edit(folder):
        path = folder / "test.npy"
        path.write_bytes(content(path))
        _record(lambda d: d["sha256"].update(
            {"test.npy": hashlib.sha256(path.read_bytes()).hexdigest()}))(folder)
    return edit


def _resaved(change):
    """``test.npy`` saved again as ``change`` of its array."""
    def content(path):
        buf = io.BytesIO()
        np.save(buf, change(np.load(path)))
        return buf.getvalue()
    return _rewritten(content)


def _nudged(folder):
    """One value of ``test.npy`` one ulp up, its digest left as it was."""
    path = folder / "test.npy"
    a = np.load(path)
    a[5, 3] = np.nextafter(a[5, 3], 2.0)
    np.save(path, a)


def _set(row, col, value):
    def change(a):
        a[row, col] = value
        return a
    return change


def _made_a_directory(folder):
    (folder / "test.npy").unlink()
    (folder / "test.npy").mkdir()


@pytest.mark.parametrize("edit", [
    _nudged,
    lambda f: (f / "test.npy").write_bytes((f / "test.npy").read_bytes()[:999]),
    _record(lambda d: d["sha256"].update({"test.csv": "0" * 64})),
    _record(lambda d: d.pop("sha256")),
    _record(lambda d: d["sha256"].pop("test.npy")),
    _record(lambda d: d["test"].update(Sr=d["test"]["Sr"] + 1)),
    lambda f: (f / "test.npy").unlink(),
    _made_a_directory,
    _resaved(lambda a: a[:-1]),
    _resaved(lambda a: a[:, :16]),
    _resaved(lambda a: a.astype(np.float32)),
    _resaved(lambda a: a.astype(">f8")),
    _resaved(np.asfortranarray),
    _rewritten(lambda path: path.read_bytes() + bytes(8)),
    _resaved(_set(7, 16, 5.0)),
    _resaved(_set(7, 16, 0.5)),
    _resaved(_set(7, 16, -1.0)),
    _resaved(_set(7, 16, np.nan)),
], ids=["value-nudged", "truncated", "csv-digest-edited", "no-digests",
        "no-copy-digest", "count-edited", "copy-missing", "copy-a-directory",
        "row-dropped", "no-label-column", "float32", "big-endian",
        "fortran-order", "value-appended", "label-5", "label-half",
        "label-negative", "label-nan"])
def test_a_copy_that_is_not_current_gives_the_csv_parse(default_run, tmp_path,
                                                        csv_parses, edit):
    """An edited, cut, missing or unreadable copy, a digest that does not
    match, a run that recorded none, or a copy of the wrong shape, type or
    label index: the stage parses the CSV, as a run without copies does."""
    run = tmp_path / "run"
    shutil.copytree(default_run.run_dir / "dataset", run / "dataset")
    want = load_dataset_csv(run / "dataset" / "test.csv")
    edit(run / "dataset")
    got = _load_split(run, "test")
    assert csv_parses == ["test.csv"]
    _same_split(got, want)


def test_a_run_without_binary_copies_scores_to_the_same_bytes(
        default_run, tmp_path, csv_parses):
    """A run directory as written before the copies, with no ``.npy`` file
    and no ``sha256`` entry, is scored from the CSVs, to the same bytes."""
    run = tmp_path / "csv-only"
    shutil.copytree(default_run.run_dir, run)
    for name in ("train", "test"):
        (run / "dataset" / f"{name}.npy").unlink()
    _record(lambda d: d.pop("sha256"))(run / "dataset")
    stages = ("program", "analyze", "synthesize", "sweep")
    for stage in stages:
        run_pipeline(dataclasses.replace(default_run.cfg, out_dir=run), stage)
    assert csv_parses == ["test.csv"] * len(stages)
    written = [p.relative_to(run) for stage in stages
               for p in sorted((run / stage).iterdir())]
    assert len(written) >= 10
    for rel in written + [Path("summary.json")]:
        assert (run / rel).read_bytes() == \
            (default_run.run_dir / rel).read_bytes(), rel


def test_program_stage_keeps_stuck_cells(default_run, tmp_path):
    """Stuck cells on synapse rows are not programmed: r_m2 alone and r_m1
    alone in the hidden array, both branches of one hidden pair, and r_m1
    alone and r_m2 alone in the out array; one on an unused out row is
    only recorded.  Six of the 320 synapse cells are left out of the log."""
    run = tmp_path / "stuck"
    shutil.copytree(default_run.run_dir, run)
    stuck = [{"array": "hidden", "row": 3, "col": 5, "ohm": 40e3},
             {"array": "hidden", "row": 6, "col": 2, "ohm": 150e3},
             {"array": "hidden", "row": 8, "col": 9, "ohm": 20e3},
             {"array": "hidden", "row": 9, "col": 9, "ohm": 90e3},
             {"array": "out", "row": 2, "col": 1, "ohm": 120e3},
             {"array": "out", "row": 5, "col": 7, "ohm": 11e3},
             {"array": "out", "row": 12, "col": 0, "ohm": 25e3}]
    run_pipeline(default_cfg(run, stuck=stuck), "program")
    with open(run / "program" / "program_log.csv", newline="") as fh:
        logged = [(r["array"], int(r["row"]), int(r["col"]))
                  for r in csv.DictReader(fh)]
    assert len(logged) == 314
    assert not set(logged) & {(s["array"], s["row"], s["col"]) for s in stuck}
    for spot in stuck:
        with open(run / "program" / f"{spot['array']}.csv", newline="") as fh:
            rec = next(r for r in csv.DictReader(fh)
                       if (int(r["row"]), int(r["col"]))
                       == (spot["row"], spot["col"]))
        assert rec["stuck_flag"] == "1"
        assert float(rec["stuck_ohm"]) == spot["ohm"]
        assert float(rec["resistance_ohm"]) == spot["ohm"]


def test_synthesis_records_its_probes(default_run):
    with open(default_run.run_dir / "synthesize" / "result.json") as fh:
        result = json.load(fh)
    probes = result["probes"]
    assert probes[0]["deltas"] == {k: 0.0 for k in result["delta_star"]}
    assert all(p["passed"] == (p["max_p_err"] <= result["x_p"])
               for p in probes)
    passing = [p for p in probes if p["passed"]]
    assert passing[-1]["deltas"] == result["delta_star"]
    assert all(p["trials"] == result["plan_trials"] for p in passing)
    assert all(1 <= p["trials"] <= result["plan_trials"] for p in probes)


def test_stage_rerun_from_artifacts(default_run):
    """A single stage re-executed on persisted artifacts changes nothing."""
    before = (default_run.run_dir / "summary.json").read_text()
    summary = run_pipeline(default_run.cfg, "analyze")
    assert (default_run.run_dir / "summary.json").read_text() == before
    assert summary["mc_max_p_err"] == default_run.summary["mc_max_p_err"]


def test_cli_requires_out_and_seed():
    assert main(["--stage", "dataset"]) == EXIT_CONFIG
    assert main(["--out", "/tmp/nowhere"]) == EXIT_CONFIG


def test_cli_rejects_missing_config_file(tmp_path):
    code = main(["--config", str(tmp_path / "none.json"), "--stage",
                 "dataset"])
    assert code == EXIT_CONFIG


def test_cli_runs_single_stage(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["--out", str(out), "--seed", "7", "--stage", "dataset"])
    assert code == EXIT_OK
    assert (out / "dataset" / "train.csv").exists()
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["seed"] == 7


def test_cli_flags_override_config(tmp_path):
    cfg = default_cfg(tmp_path / "a")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    args = build_parser().parse_args(
        ["--config", str(path), "--seed", "99", "--trials", "321",
         "--out", str(tmp_path / "b")])
    loaded = load_config(args)
    assert loaded.seed == 99
    assert loaded.trials == 321
    assert str(loaded.out_dir) == str(tmp_path / "b")


def test_cli_has_no_threads_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "run"), "--seed", "1", "--threads", "2"])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "run").exists()


def test_cli_stage_failure_is_reported(tmp_path, capsys):
    # analysis cannot run before training artifacts exist
    code = main(["--out", str(tmp_path / "empty"), "--seed", "3",
                 "--stage", "analyze"])
    assert code == EXIT_STAGE
    message = json.loads(capsys.readouterr().out.strip())
    assert message["error"] == "MissingArtifactError"
    assert message["stage"] == "analyze"


@pytest.mark.parametrize("row, stage", [
    ("S9", "analyze"), ("S9", "sweep"), ("width", "analyze"),
    ("width", "sweep"), ("abc", "sweep"), ("nan", "analyze"),
    ("inf", "program"), ("1.5", "analyze"), ("-0.25", "program"),
])
def test_cli_refuses_an_edited_test_set(default_run, tmp_path, capsys, row,
                                        stage):
    """A label outside the classes, a row of the wrong width, a value that
    is not a number or one outside [0, 1], the range the encoder writes,
    stops the stage with one JSON line, instead of a traceback or a silent
    error."""
    run = tmp_path / "edited"
    shutil.copytree(default_run.run_dir, run)
    path = run / "dataset" / "test.csv"
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    lines[5] = ",".join({"S9": fields[:-1] + ["S9"], "width": fields[1:]}.get(
        row, fields[:3] + [row] + fields[4:]))
    path.write_text("\n".join(lines) + "\n")
    code = main(["--out", str(run), "--seed", str(DEFAULT_SEED),
                 "--stage", stage])
    assert code == EXIT_STAGE
    message = json.loads(capsys.readouterr().out)
    assert message["error"] == ("CountMismatchError" if row == "S9"
                                else "ShapeMismatchError")
    assert message["stage"] == stage
    assert "test.csv line 6" in message["message"]


@pytest.mark.parametrize("stage", ["analyze", "program"])
def test_cli_refuses_an_empty_test_set(default_run, tmp_path, capsys, stage):
    """A test split cut to its header stops the stage with one JSON line
    that names the file, not with a division by zero in the scorer."""
    run = tmp_path / "empty"
    shutil.copytree(default_run.run_dir, run)
    path = run / "dataset" / "test.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    code = main(["--out", str(run), "--seed", str(DEFAULT_SEED),
                 "--stage", stage])
    assert code == EXIT_STAGE
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])
    assert message["error"] == "CountMismatchError"
    assert message["stage"] == stage
    assert "test.csv: no patterns" in message["message"]


@pytest.mark.parametrize("artifact, row", [("trials.csv", "2,abc,0.0,0.0"),
                                           ("weight_bounds.csv", "x,y")])
def test_report_stage_refuses_a_malformed_csv(default_run, tmp_path, capsys,
                                              artifact, row):
    """A field that is no number, or a row cut short, stops the report
    stage with one JSON line that names the file, not a traceback."""
    run = tmp_path / "malformed"
    shutil.copytree(default_run.run_dir, run)
    path = run / "analyze" / artifact
    lines = path.read_text().splitlines()
    lines[3] = row
    path.write_text("\n".join(lines) + "\n")
    code = main(["--out", str(run), "--seed", str(DEFAULT_SEED),
                 "--stage", "report"])
    assert code == EXIT_STAGE
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])
    assert message["error"] == "ShapeMismatchError"
    assert message["stage"] == "report"
    assert artifact in message["message"]


def _json_edit(change):
    """A text edit of a JSON artifact: ``change`` the parsed object."""
    def edit(text):
        d = json.loads(text)
        change(d)
        return json.dumps(d)
    return edit


def _cut_in_half(text):
    return text[:len(text) // 2]


def _header_only(text):
    return text.splitlines()[0] + "\n"


def _set_entry(*keys, value):
    """A JSON edit that sets the entry at ``keys`` to ``value``."""
    def change(d):
        *head, last = keys
        functools.reduce(lambda node, key: node[key], head, d)[last] = value
    return _json_edit(change)


@pytest.mark.parametrize("artifact, edit, stage", [
    ("train/params.json", _cut_in_half, "compile"),
    ("train/params.json", _json_edit(lambda d: d.pop("w_out")), "compile"),
    ("train/params.json", lambda text: "[]", "compile"),
    ("train/params.json", _json_edit(lambda d: d.update(w_hidden=[1.0, 2.0])),
     "compile"),
    ("compile/compiled.json", _cut_in_half, "analyze"),
    ("compile/compiled.json", _json_edit(lambda d: d.pop("r_f")), "analyze"),
    ("compile/compiled.json", _json_edit(lambda d: d.update(r_f="x")),
     "synthesize"),
    ("compile/compiled.json", lambda text: "[]", "analyze"),
    ("compile/compiled.json",
     _json_edit(lambda d: d["hidden"].update(r_m1=[[3e4]], r_m2=[[3e4]])),
     "analyze"),
    # values compile, which clips to the compile window and writes the
    # crossbar's r_f, and training cannot have written
    ("compile/compiled.json", _set_entry("hidden", "r_m1", 0, 0, value=-5),
     "program"),
    ("compile/compiled.json", _set_entry("hidden", "r_m1", 0, 0, value=-5),
     "analyze"),
    ("compile/compiled.json", _set_entry("out", "r_m2", 7, 3, value=301e3),
     "synthesize"),
    ("compile/compiled.json", _set_entry("r_f", value=NAN), "analyze"),
    ("compile/compiled.json", _set_entry("r_f", value=-1e5), "analyze"),
    ("train/params.json", _set_entry("b_out", 0, value=NAN), "compile"),
    ("train/params.json", _set_entry("w_hidden", 3, 5, value=-INF),
     "analyze"),
    ("train/params_continuous.json", _set_entry("b_hidden", 2, value=INF),
     "sweep"),
    ("train/curve.csv", _header_only, "report"),
    ("analyze/weight_bounds.csv", _header_only, "report"),
    ("sweep/sweep.csv", _header_only, "report"),
    ("train/train.json", lambda text: "{", "sweep"),
    ("analyze/report.json", _json_edit(lambda d: d.pop("subset_max")),
     "sweep"),
    ("analyze/report.json", _json_edit(lambda d: d.update(subset_max=[1.0])),
     "sweep"),
    ("analyze/report.json", _json_edit(lambda d: d.update(passed="no")),
     "report"),
    ("analyze/report.json", _json_edit(lambda d: d.update(x_p="5")), "sweep"),
    ("analyze/report.json",
     _json_edit(lambda d: d["subset_max"].update(sites=None)), "sweep"),
    ("program/programmed.json", lambda text: "", "sweep"),
], ids=["params-cut", "params-no-w_out", "params-list",
        "params-w_hidden-shape", "compiled-cut", "compiled-no-r_f",
        "compiled-text-r_f", "compiled-list", "compiled-1x1",
        "compiled-r_m1-negative-program", "compiled-r_m1-negative-analyze",
        "compiled-r_m2-above-window", "compiled-r_f-nan",
        "compiled-r_f-negative", "params-b_out-nan", "params-w_hidden-inf",
        "params-continuous-b_hidden-inf", "curve-header",
        "bounds-header", "sweep-header", "train-json-brace",
        "report-no-subset_max", "report-subset_max-list",
        "report-passed-text", "report-x_p-text", "report-subset-null",
        "programmed-empty"])
def test_a_corrupt_or_header_only_artifact_stops_the_stage(
        default_run, tmp_path, capsys, artifact, edit, stage):
    """An artifact cut short, of the wrong JSON type, missing an entry,
    with an array of the wrong shape, a value the config cannot have
    written, or a verdict entry of the wrong type
    (a ``passed`` that ``--enforce`` could not see as a failure), or a
    re-rendered CSV cut to its header, stops the stage that reads it, or
    the summary after it, with one JSON line that names the file, not a
    traceback or exit 0."""
    run = tmp_path / "corrupt"
    shutil.copytree(default_run.run_dir, run)
    path = run / artifact
    path.write_text(edit(path.read_text()))
    code = main(["--out", str(run), "--seed", str(DEFAULT_SEED),
                 "--stage", stage, "--enforce"])
    assert code == EXIT_STAGE
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])
    assert message["error"] == "ShapeMismatchError"
    assert message["stage"] == stage
    assert str(path) in message["message"]


def test_cli_checks_the_config_once(tmp_path, monkeypatch):
    """``run_pipeline`` is the one config check of a command-line run, so
    the config-time array that proves the bias maps is built once."""
    built = []
    init = Crossbar.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(Crossbar, "__init__", counting_init)
    assert main(["--out", str(tmp_path / "run"), "--seed", "7",
                 "--stage", "dataset"]) == EXIT_OK
    assert len(built) == 1


def test_cli_enforce_flags_budget_miss(default_run, tmp_path, capsys):
    """A permitted error level below the nominal rate must trip --enforce."""
    run = tmp_path / "strict"
    shutil.copytree(default_run.run_dir, run)
    cfg = default_run.cfg.to_dict()
    cfg.update(out_dir=str(run), x_p=0.01, trials=200)
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(cfg))
    code = main(["--config", str(path), "--stage", "analyze", "--enforce"])
    assert code == EXIT_ENFORCE
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["passed"] is False


def test_enforce_flags_a_subset_over_the_budget(default_run, tmp_path,
                                                capsys):
    """The overall worst trial within the budget does not hide a pattern
    subset over it: ``subsets_passed`` is false and --enforce exits 4,
    while the report's own ``passed`` stays the overall verdict."""
    run = tmp_path / "subset"
    shutil.copytree(default_run.run_dir, run)
    path = run / "analyze" / "report.json"
    report = json.loads(path.read_text())
    report["subset_max"]["sites"] = report["x_p"] + 0.5
    path.write_text(json.dumps(report))
    assert report["passed"]
    code = main(["--out", str(run), "--seed", str(DEFAULT_SEED),
                 "--stage", "report", "--enforce"])
    assert code == EXIT_ENFORCE
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["passed"] is True
    assert summary["subsets_passed"] is False
    assert default_run.summary["subsets_passed"] is True


@pytest.mark.parametrize("activation, code", [
    (None, EXIT_OK), ({"slope": 1.0, "lower": -1.0, "upper": 1.0}, EXIT_OK),
    ({"slope": 2.0, "lower": -1.0, "upper": 1.0}, EXIT_STAGE),
    ({"slope": 1.0, "lower": 0.0, "upper": 1.0}, EXIT_STAGE),
])
def test_params_file_must_hold_the_unity_transfer(default_run, tmp_path,
                                                 capsys, activation, code):
    """Params written with the unity activation entry, as older runs wrote
    them, still load; any other transfer stops the stage with one JSON
    line that names the file."""
    run = tmp_path / "params"
    shutil.copytree(default_run.run_dir, run)
    path = run / "train" / "params.json"
    params = json.loads(path.read_text())
    assert "activation" not in params
    if activation is not None:
        params["activation"] = activation
    path.write_text(json.dumps(params))
    assert main(["--out", str(run), "--seed", str(DEFAULT_SEED),
                 "--stage", "compile"]) == code
    message = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    if code == EXIT_STAGE:
        assert message["error"] == "ShapeMismatchError"
        assert message["stage"] == "compile"
        assert "activation" in message["message"]
        assert str(path) in message["message"]
    else:
        assert (run / "compile" / "compiled.json").read_bytes() == \
            (default_run.run_dir / "compile" / "compiled.json").read_bytes()


def test_enforce_passes_on_good_run(default_run, capsys):
    cfg_path = default_run.run_dir / "manifest.json"
    config = json.loads(cfg_path.read_text())["config"]
    path = default_run.run_dir / "replay.json"
    path.write_text(json.dumps(config))
    code = main(["--config", str(path), "--stage", "report", "--enforce"])
    assert code == EXIT_OK


BLAS_PROBE = """
import ctypes
from memxbar import cli
get = cli.openblas_function("get_num_threads")
if get is None:
    print("no bundled OpenBLAS")
    raise SystemExit(0)
get.argtypes, get.restype = [], ctypes.c_int
before = get()
cli.main(["--seed", "1"])   # refused for the missing --out, before any stage
print(before, get())
"""


@pytest.mark.parametrize("env, threads", [
    ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2),
])
def test_cli_keeps_blas_to_one_thread_unless_set(env, threads):
    environ = {k: v for k, v in os.environ.items()
               if k not in BLAS_THREAD_VARIABLES}
    environ.update(env)
    src = str(Path(memxbar.__file__).resolve().parents[1])
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=environ,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = done.stdout.strip().splitlines()[-1]
    if last == "no bundled OpenBLAS":
        pytest.skip(last)
    before, after = map(int, last.split())
    assert after == threads
    if env:
        assert before == threads
