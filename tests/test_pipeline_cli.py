"""Run configuration, stage orchestration, and the command-line interface."""

import json
import shutil

import numpy as np
import pytest

from memxbar.cli import (EXIT_CONFIG, EXIT_ENFORCE, EXIT_OK, EXIT_STAGE,
                         build_parser, load_config, main)
from memxbar.device import DeviceParams
from memxbar.errors import ConfigError
from memxbar.mapping import ResistanceRange
from memxbar.pipeline import RunConfig, run_pipeline

from helpers import DEFAULT_SEED


def default_cfg(out, **kw):
    return RunConfig(seed=DEFAULT_SEED, out_dir=out, **kw)


def test_config_dict_round_trip(tmp_path):
    cfg = default_cfg(tmp_path, trials=123, threads=2,
                      stuck=[{"array": "hidden", "row": 1, "col": 2,
                              "ohm": 20e3}])
    back = RunConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    assert back.config_hash() == cfg.config_hash()


def test_config_hash_tracks_content(tmp_path):
    a = default_cfg(tmp_path)
    b = default_cfg(tmp_path, x_p=4.0)
    assert a.config_hash() != b.config_hash()


def test_config_hash_ignores_out_dir_and_threads(tmp_path):
    a = default_cfg(tmp_path / "a")
    assert default_cfg(tmp_path / "b").config_hash() == a.config_hash()
    assert default_cfg(tmp_path / "a", threads=4).config_hash() == \
        a.config_hash()


@pytest.mark.parametrize("name, value", [
    ("trials", 0), ("trials", -5), ("trials", "abc"), ("trials", 2.5),
    ("threads", -3), ("bounds_trials", 999), ("plan_trials", 0),
    ("restarts", 0), ("harden_epochs", -1), ("harden_epochs", True),
])
def test_bad_count_setting_exits_with_config_error(tmp_path, name, value):
    """Checked in the constructor, in a config file and after a flag."""
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, **{name: value})
    config = default_cfg(tmp_path / "run").to_dict()
    config[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--stage", "analyze"]) == EXIT_CONFIG
    if name in ("trials", "threads") and isinstance(value, int):
        assert main(["--out", str(tmp_path / "run"), "--seed", "1",
                     "--stage", "analyze", f"--{name}", str(value)]) \
            == EXIT_CONFIG


def test_config_rejects_window_mismatch(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig(seed=1, out_dir=tmp_path,
                  resistance_range=ResistanceRange(10e3, 60e3))


def test_config_rejects_sweep_outside_window(tmp_path):
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, sweep_range=ResistanceRange(5e3, 60e3))


def test_config_rejects_unknown_train_key(tmp_path):
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, train={"learning_rate": 0.1})


def test_config_rejects_bad_stuck_entry(tmp_path):
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, stuck=[{"array": "nowhere", "row": 0,
                                      "col": 0, "ohm": 20e3}])


def test_config_rejects_missing_profile(tmp_path):
    with pytest.raises(ConfigError):
        default_cfg(tmp_path, profile_path=str(tmp_path / "absent.json"))


def test_config_from_json_errors(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_json(bad)


def test_unknown_stage_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_pipeline(default_cfg(tmp_path / "r"), "polish")


def test_pipeline_is_deterministic(default_run, tmp_path):
    """Same seed and settings in a fresh directory: identical outputs."""
    out = tmp_path / "again"
    summary = run_pipeline(default_cfg(out), "all")
    assert summary == default_run.summary
    for rel in ("train/params.json", "analyze/trials.csv", "sweep/sweep.csv"):
        assert (out / rel).read_bytes() == \
            (default_run.run_dir / rel).read_bytes()


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
         "--threads", "3", "--out", str(tmp_path / "b")])
    loaded = load_config(args)
    assert loaded.seed == 99
    assert loaded.trials == 321
    assert loaded.threads == 3
    assert str(loaded.out_dir) == str(tmp_path / "b")


def test_cli_stage_failure_is_reported(tmp_path, capsys):
    # analysis cannot run before training artifacts exist
    code = main(["--out", str(tmp_path / "empty"), "--seed", "3",
                 "--stage", "analyze"])
    assert code == EXIT_STAGE
    message = json.loads(capsys.readouterr().out.strip())
    assert message["error"] == "MissingArtifactError"
    assert message["stage"] == "analyze"


def test_cli_enforce_flags_budget_miss(default_run, tmp_path, capsys):
    """A permitted error level below the nominal rate must trip --enforce."""
    run = tmp_path / "strict"
    shutil.copytree(default_run.run_dir, run)
    cfg = default_run.cfg.to_dict()
    cfg.update(out_dir=str(run), x_p=0.01, trials=200, bounds_trials=1000)
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(cfg))
    code = main(["--config", str(path), "--stage", "analyze", "--enforce"])
    assert code == EXIT_ENFORCE
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["passed"] is False


def test_enforce_passes_on_good_run(default_run, capsys):
    cfg_path = default_run.run_dir / "manifest.json"
    config = json.loads(cfg_path.read_text())["config"]
    path = default_run.run_dir / "replay.json"
    path.write_text(json.dumps(config))
    code = main(["--config", str(path), "--stage", "report", "--enforce"])
    assert code == EXIT_OK
