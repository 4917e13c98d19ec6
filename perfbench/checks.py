"""Output checks that turn a wrong answer into a failed run.

Each check reads the artifacts a workload's stages wrote, recomputes what
it can with plain numpy rather than through memxbar, and raises
``CheckFailed`` on the first disagreement.  On success it returns the
verdict figures the run produced, so they are recorded beside the timings.
Every check holds at any seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

LABEL_CODES = {"S1": 0, "S2": 1, "S3": 2, "S4": 3, "Sr": 4}
REJECT_CODE = 4
MAX_TEST_ERROR = 3.0          # percent; criterion 01's bound across seeds
CIRCUIT_TOLERANCE = 1e-9      # criterion 09's oracle equivalence
# Written on every stage call and holding the run directory through the
# config hash, so they differ between directories by design.
NOT_DIGESTED = ("manifest.json", "summary.json")


class CheckFailed(Exception):
    """An artifact contradicts what the run was asked to compute."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_test_split(run_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = _rows(run_dir / "dataset" / "test.csv")
    x = np.array([[float(r[f"x{i}"]) for i in range(16)] for r in rows])
    codes = np.array([LABEL_CODES[r["label"]] for r in rows])
    return x, codes


def layers(params: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden and output activations of the 16-8-4 saturating-linear
    network, from its JSON form."""
    act = params.get("activation", {})
    slope = act.get("slope", 1.0)
    lower, upper = act.get("lower", -1.0), act.get("upper", 1.0)

    def f(z):
        return np.clip(slope * z, lower, upper)

    hidden = f(x @ np.array(params["w_hidden"]) + np.array(params["b_hidden"]))
    return hidden, f(hidden @ np.array(params["w_out"])
                     + np.array(params["b_out"]))


def error_rate(outputs: np.ndarray, codes: np.ndarray) -> float:
    """Percent misclassified; no positive output means the reject class."""
    best = outputs.argmax(axis=1)
    strongest = outputs[np.arange(len(best)), best]
    pred = np.where(strongest > 0, best, REJECT_CODE)
    return 100.0 * float(np.mean(pred != codes))


def digests(run_dir: Path) -> dict:
    """sha256 of every artifact under the run directory."""
    out = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name not in NOT_DIGESTED:
            out[path.relative_to(run_dir).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def check_train(run_dir: Path) -> dict:
    meta = _json(run_dir / "train" / "train.json")
    curve = [float(r["mse"]) for r in _rows(run_dir / "train" / "curve.csv")]
    _require(len(curve) == meta["epochs"] + 1,
             f"curve has {len(curve)} points for {meta['epochs']} epochs")
    _require(all(math.isfinite(v) for v in curve), "curve is not finite")
    x, codes = load_test_split(run_dir)
    _, out = layers(_json(run_dir / "train" / "params.json"), x)
    rate = error_rate(out, codes)
    _require(abs(rate - meta["test_p_err"]) < 1e-9,
             f"train.json test error {meta['test_p_err']} != "
             f"recomputed {rate}")
    _require(rate < MAX_TEST_ERROR,
             f"test error {rate}% not below {MAX_TEST_ERROR}%")
    return {"nominal_p_err": rate, "epochs": meta["epochs"]}


SVGS = ("train/learning_curve.svg", "analyze/p_err_box.svg",
        "analyze/weight_bounds.svg", "sweep/sweep.svg")


def check_analyze(run_dir: Path, trials: int, x_p: float, reemit) -> dict:
    """``reemit`` re-runs the report stage; its charts must not change."""
    report = _json(run_dir / "analyze" / "report.json")
    rows = _rows(run_dir / "analyze" / "trials.csv")
    _require(report["trials"] == trials and len(rows) == trials,
             f"asked for {trials} trials, report says {report['trials']}, "
             f"trials.csv has {len(rows)} rows")
    worst = max(float(r["p_err_percent"]) for r in rows)
    _require(worst == report["max_p_err"],
             f"trials.csv maximum {worst} != max_p_err {report['max_p_err']}")
    _require(report["x_p"] == x_p, f"report x_p {report['x_p']} != {x_p}")
    _require(report["passed"] == (report["max_p_err"] <= x_p),
             f"passed={report['passed']} contradicts max_p_err "
             f"{report['max_p_err']} against x_p {x_p}")
    before = {name: (run_dir / name).read_bytes() for name in SVGS}
    reemit()
    changed = [name for name in SVGS
               if (run_dir / name).read_bytes() != before[name]]
    _require(not changed, f"report re-emission changed {changed}")
    return {"mc_max_p_err": report["max_p_err"], "passed": report["passed"],
            "trials": report["trials"]}


def check_synthesize(run_dir: Path, plan_points: list, sweep_counts,
                     x_p: float) -> dict:
    result = _json(run_dir / "synthesize" / "result.json")
    delta, last = result["delta_star"], plan_points[-1]
    _require(set(delta) == set(last),
             f"delta_star components {sorted(delta)} != {sorted(last)}")
    for comp, value in delta.items():
        _require(0.0 <= value <= last[comp],
                 f"delta_star {comp}={value} outside [0, {last[comp]}]")
    rows = _rows(run_dir / "sweep" / "sweep.csv")
    counts = [int(r["n_states"]) for r in rows]
    _require(counts == sorted(int(n) for n in sweep_counts),
             f"sweep rows {counts} != state counts {list(sweep_counts)}")
    rates = {int(r["n_states"]): float(r["p_err_percent"]) for r in rows}
    _require(all(0.0 <= v <= 100.0 for v in rates.values()),
             "sweep error rate outside [0, 100]")
    passing = [n for n, v in rates.items() if v <= x_p]
    return {"delta_star": delta, "sweep_n_star": min(passing, default=None)}


def _resistances(path: Path, rows: int, cols: int) -> np.ndarray:
    res = np.full((rows, cols), np.nan)
    for r in _rows(path):
        res[int(r["row"]), int(r["col"])] = float(r["resistance_ohm"])
    _require(not np.isnan(res).any(), f"{path.name} misses cells")
    return res


def _rail_bound(res: np.ndarray, x: np.ndarray, bias: np.ndarray,
                xbar: dict) -> np.ndarray:
    """Patterns whose summing or difference stage exceeds the supply rail
    on one of the row pairs that feed the outputs."""
    pairs = len(bias)
    sums = -xbar["r_f"] * (x @ (1.0 / res[:2 * pairs, :x.shape[1]]).T)
    diff = (xbar["r_2"] / xbar["r_1"]) * (sums[:, 1::2] - sums[:, 0::2]) + bias
    rail = xbar["u_rail"]
    return (np.abs(sums) > rail).any(axis=1) | (np.abs(diff) > rail).any(axis=1)


def check_circuit(run_dir: Path, xbar: dict, outputs: np.ndarray) -> dict:
    """Every cell programmed; circuit inference equals the informational
    model on the achieved weights wherever no amplifier rail binds.

    ``xbar`` is the crossbar config as a dict, ``outputs`` the circuit's
    (patterns, 4) outputs for the test set in file order.
    """
    compiled = _json(run_dir / "compile" / "compiled.json")
    cells = 2 * sum(np.size(compiled[layer]["r_m1"])
                    for layer in ("hidden", "out"))
    log = _rows(run_dir / "program" / "program_log.csv")
    _require(len(log) == cells, f"program log has {len(log)} cells of {cells}")
    failed = [r for r in log if r["success"] != "1"]
    _require(not failed, f"{len(failed)} cells failed to program")
    programmed = _json(run_dir / "program" / "programmed.json")
    achieved = programmed["achieved"]
    x, codes = load_test_split(run_dir)
    _require(outputs.shape == (len(x), 4),
             f"circuit outputs have shape {outputs.shape}")
    hidden, expected = layers(achieved, x)
    shape = (xbar["rows"], xbar["cols"])
    hidden_res = _resistances(run_dir / "program" / "hidden.csv", *shape)
    out_res = _resistances(run_dir / "program" / "out.csv", *shape)
    hidden = np.clip(hidden, -xbar["u_in_max"], xbar["u_in_max"])
    bound = (_rail_bound(hidden_res, x, np.array(achieved["b_hidden"]), xbar)
             | _rail_bound(out_res, hidden, np.array(achieved["b_out"]), xbar))
    gap = np.abs(outputs - expected).max(axis=1)
    free_gap = float(gap[~bound].max()) if (~bound).any() else 0.0
    _require(free_gap <= CIRCUIT_TOLERANCE,
             f"circuit differs from the model by {free_gap:.3g} on a pattern "
             "where no rail binds")
    _require(abs(error_rate(expected, codes)
                 - programmed["programmed_p_err"]) < 1e-9,
             "programmed_p_err disagrees with the achieved weights")
    return {"programmed_p_err": programmed["programmed_p_err"],
            "rail_bound_patterns": int(bound.sum()),
            "circuit_gap": free_gap,
            "pulses": programmed["total_pulses"], "cells": len(log)}
