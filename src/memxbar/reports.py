"""Report rendering: CSV dumps and deterministic SVG charts.

The chart set mirrors the standard result figures: training curve, error
rate distribution under perturbation, per-synapse weight-error bands, and
the discrete-state sweep.  Every chart is rebuilt purely from its CSV
source, so re-emission is byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import MissingArtifactError
from .svgplot import SvgFigure

CURVE_CSV = "train/curve.csv"
CURVE_SVG = "train/learning_curve.svg"
TRIALS_CSV = "analyze/trials.csv"
REPORT_JSON = "analyze/report.json"
BOX_SVG = "analyze/p_err_box.svg"
BOUNDS_CSV = "analyze/weight_bounds.csv"
BOUNDS_SVG = "analyze/weight_bounds.svg"
SWEEP_CSV = "sweep/sweep.csv"
SWEEP_SVG = "sweep/sweep.svg"


def write_curve_csv(path, curve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mse"])
        for epoch, value in enumerate(curve):
            writer.writerow([epoch, repr(float(value))])


def read_curve_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return np.array([float(rec["mse"]) for rec in reader])


def render_learning_curve(curve, path) -> None:
    curve = np.asarray(curve, dtype=float)
    floor = max(float(curve.min()), 1e-12)
    fig = SvgFigure(title="Training convergence", xlabel="epoch",
                    ylabel="mean squared error", y_log=True)
    fig.set_limits((0.0, max(len(curve) - 1, 1)),
                   (floor * 0.5, float(curve.max()) * 2.0))
    fig.polyline(np.arange(len(curve)), np.maximum(curve, floor))
    fig.save(path)


def write_trials_csv(path, p_err, sites, extraneous) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "p_err_percent", "p_err_sites_percent",
                         "p_err_extraneous_percent"])
        for t in range(len(p_err)):
            writer.writerow([t, repr(float(p_err[t])), repr(float(sites[t])),
                             repr(float(extraneous[t]))])


def read_trials_csv(path) -> dict:
    cols = {"overall": [], "sites": [], "extraneous": []}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            cols["overall"].append(float(rec["p_err_percent"]))
            cols["sites"].append(float(rec["p_err_sites_percent"]))
            cols["extraneous"].append(float(rec["p_err_extraneous_percent"]))
    return {k: np.array(v) for k, v in cols.items()}


def render_p_err_box(trials: dict, x_p: float, path) -> None:
    """Box chart of the trial error rates: overall, sites subset, Sr subset."""
    series = [("all", trials["overall"]), ("S1-S4", trials["sites"]),
              ("Sr", trials["extraneous"])]
    top = max(max(float(np.max(v)) for _, v in series), x_p) * 1.15 + 1e-6
    fig = SvgFigure(title="Error rate under perturbation", xlabel="",
                    ylabel="P_err, %")
    fig.set_limits((0.0, float(len(series) + 1)), (0.0, top))
    fig.hline(x_p)
    for k, (name, values) in enumerate(series, start=1):
        values = np.asarray(values, dtype=float)
        q1, median, q3 = np.percentile(values, (25, 50, 75))
        fig.box(float(k), float(values.min()), float(q1), float(median),
                float(q3), float(values.max()), 0.3)
        fig.label(float(k), top * 0.03, name)
    fig.save(path)


def write_bounds_csv(path, bounds: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "in_idx", "out_idx", "low_percent",
                         "high_percent"])
        for layer, band in bounds.items():
            n_in, n_out, _ = band.shape
            for i in range(n_in):
                for j in range(n_out):
                    writer.writerow([layer, i, j, repr(float(band[i, j, 0])),
                                     repr(float(band[i, j, 1]))])


def read_bounds_csv(path):
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append((rec["layer"], int(rec["in_idx"]), int(rec["out_idx"]),
                         float(rec["low_percent"]), float(rec["high_percent"])))
    return rows


def render_weight_bounds(rows, path) -> None:
    lows = np.array([r[3] for r in rows])
    highs = np.array([r[4] for r in rows])
    xs = np.arange(len(rows))
    lo = float(lows.min())
    hi = float(highs.max())
    pad = max((hi - lo) * 0.1, 1.0)
    fig = SvgFigure(title="Weight error band per synapse",
                    xlabel="synapse index", ylabel="weight error, %")
    fig.set_limits((0.0, max(len(rows) - 1, 1)), (lo - pad, hi + pad))
    fig.band(xs, lows, highs)
    fig.polyline(xs, lows, color="#2a7fc1", width=1.0)
    fig.polyline(xs, highs, color="#2a7fc1", width=1.0)
    fig.hline(0.0, color="#666666", dash="2,3")
    fig.save(path)


def write_sweep_csv(path, results: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_states", "p_err_percent"])
        for n in sorted(results):
            writer.writerow([n, repr(float(results[n]))])


def read_sweep_csv(path) -> dict:
    out = {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            out[int(rec["n_states"])] = float(rec["p_err_percent"])
    return out


def render_sweep(results: dict, x_p: float, path) -> None:
    ns = sorted(results)
    ys = [results[n] for n in ns]
    top = max(max(ys), x_p) * 1.15 + 1e-6
    fig = SvgFigure(title="Error rate vs resistance state count",
                    xlabel="number of resistance states", ylabel="P_err, %")
    fig.set_limits((min(ns) - 0.5, max(ns) + 0.5), (0.0, top))
    fig.hline(x_p)
    fig.polyline(ns, ys)
    fig.markers(ns, ys)
    fig.save(path)


def require_artifact(run_dir, rel: str) -> Path:
    """Path of the artifact ``rel`` under ``run_dir``; raises when it is
    missing, naming the stage that writes it (the first path component)."""
    path = Path(run_dir) / rel
    if not path.exists():
        stage = Path(rel).parts[0]
        raise MissingArtifactError(f"{path} (run the {stage} stage first)")
    return path


def emit_report(run_dir) -> list:
    """Re-render every chart from its CSV source; purely a read-render pass."""
    run_dir = Path(run_dir)
    written = []
    curve = read_curve_csv(require_artifact(run_dir, CURVE_CSV))
    render_learning_curve(curve, run_dir / CURVE_SVG)
    written.append(run_dir / CURVE_SVG)
    trials = read_trials_csv(require_artifact(run_dir, TRIALS_CSV))
    if trials["overall"].size == 0:
        raise MissingArtifactError(f"{run_dir / TRIALS_CSV} holds no trials")
    with open(require_artifact(run_dir, REPORT_JSON)) as fh:
        x_p = float(json.load(fh)["x_p"])
    render_p_err_box(trials, x_p, run_dir / BOX_SVG)
    written.append(run_dir / BOX_SVG)
    rows = read_bounds_csv(require_artifact(run_dir, BOUNDS_CSV))
    render_weight_bounds(rows, run_dir / BOUNDS_SVG)
    written.append(run_dir / BOUNDS_SVG)
    sweep = read_sweep_csv(require_artifact(run_dir, SWEEP_CSV))
    render_sweep(sweep, x_p, run_dir / SWEEP_SVG)
    written.append(run_dir / SWEEP_SVG)
    return written
