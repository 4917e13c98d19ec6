"""Report rendering: CSV dumps and deterministic SVG charts.

The chart set mirrors the standard result figures: training curve, error
rate distribution under perturbation, per-synapse weight-error bands, and
the discrete-state sweep.  Every chart is rebuilt purely from its CSV
source, so re-emission is byte-identical.

Every artifact of a run, in any module, is written through :func:`replacing`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path

import numpy as np

from .errors import MissingArtifactError, ShapeMismatchError
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

# error-rate columns of TRIALS_CSV, after its "trial" column
TRIALS_COLUMNS = {"overall": "p_err_percent", "sites": "p_err_sites_percent",
                  "extraneous": "p_err_extraneous_percent"}


@contextlib.contextmanager
def replacing(path, newline=None):
    """Text file written as ``<path>.part`` that replaces ``path`` whole when
    the block completes; on an error ``path`` keeps its old bytes."""
    part = Path(f"{path}.part")
    try:
        with open(part, "w", newline=newline) as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """``header``, then each row of the iterable ``rows`` (floats as repr)."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_curve_csv(path, curve) -> None:
    write_csv(path, ["epoch", "mse"], enumerate(curve.tolist()))


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
    with replacing(path) as fh:
        fh.write(fig.render())


def write_trials_csv(path, p_err, sites, extraneous) -> None:
    write_csv(path, ["trial", *TRIALS_COLUMNS.values()],
              zip(range(len(p_err)), p_err.tolist(), sites.tolist(),
                  extraneous.tolist()))


def read_trials_csv(path) -> dict:
    """The error-rate columns of a trials CSV, by their ``TRIALS_COLUMNS``
    key, as ``csv.DictReader`` would read them: blank lines are skipped,
    a column the header lacks raises KeyError once there is a row, a row
    too short to hold a column raises TypeError and a field that is no
    number raises ValueError.  The header is looked up once and each field
    is converted by one ``float()`` call."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]
    if not rows:
        return {key: np.array([]) for key in TRIALS_COLUMNS}
    index = {name: k for k, name in enumerate(header)}
    cols = [index[name] for name in TRIALS_COLUMNS.values()]
    if min(map(len, rows)) <= max(cols):
        raise TypeError(f"{path}: a row has fewer fields than the header")
    return {key: np.array([float(row[k]) for row in rows])
            for key, k in zip(TRIALS_COLUMNS, cols)}


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
    with replacing(path) as fh:
        fh.write(fig.render())


def write_bounds_csv(path, bounds: dict) -> None:
    write_csv(path, ["layer", "in_idx", "out_idx", "low_percent",
                     "high_percent"],
              ((layer, i, j, low, high) for layer, band in bounds.items()
               for i, cells in enumerate(band.tolist())
               for j, (low, high) in enumerate(cells)))


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
    with replacing(path) as fh:
        fh.write(fig.render())


def write_sweep_csv(path, results: dict) -> None:
    write_csv(path, ["n_states", "p_err_percent"],
              ((n, float(results[n])) for n in sorted(results)))


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
    with replacing(path) as fh:
        fh.write(fig.render())


def require_artifact(run_dir, rel: str) -> Path:
    """Path of the artifact ``rel`` under ``run_dir``; raises when it is
    missing, naming the stage that writes it (the first path component)."""
    path = Path(run_dir) / rel
    if not path.exists():
        stage = Path(rel).parts[0]
        raise MissingArtifactError(f"{path} (run the {stage} stage first)")
    return path


def _read(run_dir: Path, rel: str, reader):
    """``reader`` of the artifact ``rel``; a file it cannot parse raises
    ShapeMismatchError, naming the file."""
    path = require_artifact(run_dir, rel)
    try:
        return reader(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ShapeMismatchError(f"{path} is malformed: {exc!r}") from exc


def emit_report(run_dir) -> list:
    """Re-render every chart from its CSV source; purely a read-render pass.
    An artifact that cannot be parsed raises ShapeMismatchError."""
    run_dir = Path(run_dir)
    written = []
    curve = _read(run_dir, CURVE_CSV, read_curve_csv)
    render_learning_curve(curve, run_dir / CURVE_SVG)
    written.append(run_dir / CURVE_SVG)
    trials = _read(run_dir, TRIALS_CSV, read_trials_csv)
    if trials["overall"].size == 0:
        raise MissingArtifactError(f"{run_dir / TRIALS_CSV} holds no trials")
    x_p = _read(run_dir, REPORT_JSON,
                lambda path: float(json.loads(path.read_text())["x_p"]))
    render_p_err_box(trials, x_p, run_dir / BOX_SVG)
    written.append(run_dir / BOX_SVG)
    rows = _read(run_dir, BOUNDS_CSV, read_bounds_csv)
    render_weight_bounds(rows, run_dir / BOUNDS_SVG)
    written.append(run_dir / BOUNDS_SVG)
    sweep = _read(run_dir, SWEEP_CSV, read_sweep_csv)
    render_sweep(sweep, x_p, run_dir / SWEEP_SVG)
    written.append(run_dir / SWEEP_SVG)
    return written
