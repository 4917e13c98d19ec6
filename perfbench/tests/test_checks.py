"""Each output check accepts a real run and rejects a corrupted copy."""

import csv
import json
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from memxbar import run_pipeline

import checks
import workloads
from checks import CheckFailed


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One small run of every stage, plus the circuit outputs."""
    cfg = workloads.make_config(7, tmp_path_factory.mktemp("bench") / "run")
    cfg.trials, cfg.plan_trials, cfg.bounds_trials = 250, 250, 1000
    for stage in ("dataset", "train", "compile", "program", "analyze",
                  "synthesize", "sweep", "report"):
        run_pipeline(cfg, stage)
    outputs = workloads.circuit_inference(cfg)
    return cfg, outputs


@pytest.fixture
def copy(run, tmp_path):
    cfg, _ = run
    target = tmp_path / "copy"
    shutil.copytree(cfg.out_dir, target)
    return target


def edit_json(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def edit_csv(path, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = change(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_train_check(run, copy):
    cfg, _ = run
    assert checks.check_train(copy)["epochs"] == 600
    edit_csv(copy / "train" / "curve.csv", lambda rows: rows[:-1])
    with pytest.raises(CheckFailed, match="points"):
        checks.check_train(copy)


def test_train_check_rejects_params_that_disagree(copy):
    edit_json(copy / "train" / "params.json",
              lambda p: p["b_out"].__setitem__(0, 5.0))
    with pytest.raises(CheckFailed):
        checks.check_train(copy)


def test_analyze_check(run, copy):
    cfg, _ = run
    reemit = lambda: run_pipeline(cfg.__class__.from_dict(
        {**cfg.to_dict(), "out_dir": copy}), "report")
    assert checks.check_analyze(copy, 250, cfg.x_p, reemit)["trials"] == 250
    edit_csv(copy / "analyze" / "trials.csv", lambda rows: rows[:-1])
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_analyze(copy, 250, cfg.x_p, reemit)


def test_analyze_check_rejects_wrong_verdict_and_changed_charts(run, copy):
    cfg, _ = run
    noop = lambda: None
    edit_json(copy / "analyze" / "report.json",
              lambda r: r.__setitem__("passed", not r["passed"]))
    with pytest.raises(CheckFailed, match="passed"):
        checks.check_analyze(copy, 250, cfg.x_p, noop)
    edit_json(copy / "analyze" / "report.json",
              lambda r: r.__setitem__("passed", not r["passed"]))
    svg = copy / "sweep" / "sweep.svg"
    with pytest.raises(CheckFailed, match="re-emission"):
        checks.check_analyze(copy, 250, cfg.x_p,
                             lambda: svg.write_text(svg.read_text() + " "))


def test_synthesize_check(run, copy):
    cfg, _ = run
    args = (cfg.plan_points, cfg.sweep_counts, cfg.x_p)
    assert checks.check_synthesize(copy, *args)["delta_star"]["r_m1"] > 0
    edit_json(copy / "synthesize" / "result.json",
              lambda r: r["delta_star"].__setitem__("r_m1", 0.7))
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_synthesize(copy, *args)


def test_synthesize_check_rejects_short_sweep(run, copy):
    cfg, _ = run
    edit_csv(copy / "sweep" / "sweep.csv", lambda rows: rows[:-1])
    with pytest.raises(CheckFailed, match="sweep rows"):
        checks.check_synthesize(copy, cfg.plan_points, cfg.sweep_counts,
                                cfg.x_p)


def test_circuit_check(run, copy):
    cfg, outputs = run
    xbar = asdict(cfg.crossbar)
    figures = checks.check_circuit(copy, xbar, outputs)
    assert figures["cells"] == 320
    assert figures["circuit_gap"] <= checks.CIRCUIT_TOLERANCE
    shifted = outputs.copy()
    shifted[0, 0] += 1e-6
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_circuit(copy, xbar, shifted)
    edit_csv(copy / "program" / "program_log.csv",
             lambda rows: rows[:1] + [rows[1][:-1] + ["0"]] + rows[2:])
    with pytest.raises(CheckFailed, match="failed to program"):
        checks.check_circuit(copy, xbar, outputs)


def test_circuit_check_rejects_wrong_achieved_weights(run, copy):
    cfg, outputs = run
    edit_json(copy / "program" / "programmed.json",
              lambda p: p["achieved"]["w_out"][0].__setitem__(0, 0.0))
    with pytest.raises(CheckFailed):
        checks.check_circuit(copy, asdict(cfg.crossbar), outputs)


def test_rail_bound_patterns_are_counted_not_compared():
    xbar = {"r_f": 100e3, "r_1": 100e3, "r_2": 100e3, "u_rail": 15.0}
    res = np.full((2, 2), 10e3)
    x = np.array([[0.1, 0.1], [1.0, 1.0]])     # row sums -2 V and -20 V
    bound = checks._rail_bound(res, x, np.zeros(1), xbar)
    assert bound.tolist() == [False, True]


def test_digests_see_changes_but_not_the_manifest(copy):
    before = checks.digests(copy)
    assert "manifest.json" not in before
    (copy / "manifest.json").write_text("{}")
    assert checks.digests(copy) == before
    (copy / "sweep" / "sweep.csv").write_text("n_states,p_err_percent\n")
    assert checks.digests(copy) != before
