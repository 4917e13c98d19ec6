"""Report rendering: CSV dumps and deterministic SVG charts.

The chart set mirrors the standard result figures: training curve, error
rate distribution under perturbation, per-synapse weight-error bands, and
the discrete-state sweep.  Every chart is rebuilt purely from its CSV
source, so re-emission is byte-identical.

Every artifact of a run, in any module, is written through :func:`replacing`
(every JSON artifact through :func:`write_json`) and read back through
:func:`read_artifact`, except a dataset split's binary copy, which the
pipeline reads only where its recorded digest matches.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path

import numpy as np

from .errors import MissingArtifactError, ShapeMismatchError
from .netmodel import BUDGETS
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

# Per error budget (netmodel.BUDGETS): its column of TRIALS_CSV, after the
# "trial" column, and its label in the box chart.
TRIALS_COLUMNS = {"overall": "p_err_percent", "sites": "p_err_sites_percent",
                  "extraneous": "p_err_extraneous_percent"}
BOX_LABELS = {"overall": "all", "sites": "S1-S4", "extraneous": "Sr"}


@contextlib.contextmanager
def replacing(path, newline=None, mode="w"):
    """File, text or with ``mode="wb"`` bytes, written as ``<path>.part``
    that replaces ``path`` whole when the block completes; on an error
    ``path`` keeps its old bytes."""
    part = Path(f"{path}.part")
    try:
        with open(part, mode, newline=newline) as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_json(path, value) -> None:
    """``value`` as JSON, indented by 2 with its keys sorted: the format
    of every JSON artifact."""
    with replacing(path) as fh:
        json.dump(value, fh, indent=2, sort_keys=True)


def write_csv(path, header, rows) -> None:
    """``header``, then each row of the iterable ``rows`` (floats as repr)."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_columns(path, columns: dict) -> dict:
    """The ``columns``, ``{name: type}``, of a CSV file as lists of typed
    fields, read as ``csv.DictReader`` would: blank lines are skipped, a
    column the header lacks raises KeyError once there is a row, a row too
    short to hold a column raises TypeError and a field its type cannot
    convert raises ValueError.  A file of no rows gives empty lists.  The
    header is looked up once."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]
    if not rows:
        return {name: [] for name in columns}
    index = {name: k for k, name in enumerate(header)}
    cols = [index[name] for name in columns]
    if min(map(len, rows)) <= max(cols):
        raise TypeError(f"{path}: a row has fewer fields than the header")
    return {name: [kind(row[k]) for row in rows]
            for (name, kind), k in zip(columns.items(), cols)}


def write_curve_csv(path, curve) -> None:
    write_csv(path, ["epoch", "mse"], enumerate(curve.tolist()))


def read_curve_csv(path) -> np.ndarray:
    return np.array(read_csv_columns(path, {"mse": float})["mse"])


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


def write_trials_csv(path, rates: dict) -> None:
    """Each trial's error rate on every budget, ``rates[budget]``."""
    columns = [rates[name].tolist() for name in BUDGETS]
    write_csv(path, ["trial", *(TRIALS_COLUMNS[name] for name in BUDGETS)],
              ((k, *row) for k, row in enumerate(zip(*columns))))


def read_trials_csv(path) -> dict:
    """The error-rate columns of a trials CSV, by their ``TRIALS_COLUMNS``
    key."""
    cols = read_csv_columns(path, dict.fromkeys(TRIALS_COLUMNS.values(), float))
    return {key: np.array(cols[name]) for key, name in TRIALS_COLUMNS.items()}


def render_p_err_box(trials: dict, x_p: float, path) -> None:
    """Box chart of the trial error rates ``trials`` of each budget."""
    series = [(BOX_LABELS[name], trials[name]) for name in BUDGETS]
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


def write_bounds_csv(path, bounds: dict) -> list:
    """The rows written, as :func:`read_bounds_csv` reads them back."""
    rows = [(layer, i, j, low, high) for layer, band in bounds.items()
            for i, cells in enumerate(band.tolist())
            for j, (low, high) in enumerate(cells)]
    write_csv(path, ["layer", "in_idx", "out_idx", "low_percent",
                     "high_percent"], rows)
    return rows


def read_bounds_csv(path) -> list:
    return list(zip(*read_csv_columns(path, {
        "layer": str, "in_idx": int, "out_idx": int, "low_percent": float,
        "high_percent": float}).values()))


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
    cols = read_csv_columns(path, {"n_states": int, "p_err_percent": float})
    return dict(zip(cols["n_states"], cols["p_err_percent"]))


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


def read_json(path) -> dict:
    """The JSON object of ``path``; any other JSON value raises TypeError."""
    with open(path) as fh:
        value = json.load(fh)
    if not isinstance(value, dict):
        raise TypeError(f"a JSON {type(value).__name__}, not an object")
    return value


def read_artifact(run_dir, rel: str, reader):
    """``reader(path)`` of the artifact ``rel`` under ``run_dir``.  A missing
    file raises MissingArtifactError, naming the stage that writes it (the
    first path component); one that ``reader`` cannot parse or finds
    incomplete (ValueError, KeyError, TypeError, AttributeError or a
    ShapeMismatchError that does not name the file) raises
    ShapeMismatchError, naming the file."""
    path = Path(run_dir) / rel
    if not path.exists():
        stage = Path(rel).parts[0]
        raise MissingArtifactError(f"{path} (run the {stage} stage first)")
    try:
        return reader(path)
    except (ValueError, KeyError, TypeError, AttributeError,
            ShapeMismatchError) as exc:
        if isinstance(exc, ShapeMismatchError) and str(path) in str(exc):
            raise   # the dataset reader names the file and the line itself
        raise ShapeMismatchError(f"{path} is malformed: {exc!r}") from exc


def emit_report(run_dir) -> list:
    """Re-render every chart from its CSV source; purely a read-render pass.
    An artifact that cannot be parsed, or a CSV that holds no rows, raises
    ShapeMismatchError before any chart is written."""
    run_dir = Path(run_dir)
    curve = read_artifact(run_dir, CURVE_CSV, read_curve_csv)
    trials = read_artifact(run_dir, TRIALS_CSV, read_trials_csv)
    rows = read_artifact(run_dir, BOUNDS_CSV, read_bounds_csv)
    sweep = read_artifact(run_dir, SWEEP_CSV, read_sweep_csv)
    for rel, data in ((CURVE_CSV, curve), (TRIALS_CSV, trials["overall"]),
                      (BOUNDS_CSV, rows), (SWEEP_CSV, sweep)):
        if len(data) == 0:
            raise ShapeMismatchError(f"{run_dir / rel} holds no rows")
    x_p = read_artifact(run_dir, REPORT_JSON,
                        lambda path: float(read_json(path)["x_p"]))
    render_learning_curve(curve, run_dir / CURVE_SVG)
    render_p_err_box(trials, x_p, run_dir / BOX_SVG)
    render_weight_bounds(rows, run_dir / BOUNDS_SVG)
    render_sweep(sweep, x_p, run_dir / SWEEP_SVG)
    return [run_dir / name for name in (CURVE_SVG, BOX_SVG, BOUNDS_SVG,
                                        SWEEP_SVG)]
