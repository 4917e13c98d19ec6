"""CSV round trips, atomic artifact writes and deterministic SVG emission."""

import ast
import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import memxbar
from memxbar.crossbar import Crossbar, CrossbarConfig, load_crossbar_csv
from memxbar.device import DeviceParams
from memxbar.errors import MissingArtifactError, ShapeMismatchError
from memxbar.netmodel import BUDGETS
from memxbar.reports import (BOX_LABELS, TRIALS_COLUMNS, emit_report,
                             read_bounds_csv, read_curve_csv, read_sweep_csv,
                             read_trials_csv, render_p_err_box, replacing,
                             write_bounds_csv, write_csv, write_curve_csv,
                             write_sweep_csv, write_trials_csv)


def test_curve_csv_round_trip(tmp_path):
    curve = np.geomspace(2.0, 1e-4, 40)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    assert np.array_equal(read_curve_csv(path), curve)


def test_trials_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    overall = rng.uniform(0, 5, 30)
    sites = rng.uniform(0, 5, 30)
    extraneous = rng.uniform(0, 5, 30)
    path = tmp_path / "trials.csv"
    write_trials_csv(path, {"overall": overall, "sites": sites,
                            "extraneous": extraneous})
    back = read_trials_csv(path)
    assert np.array_equal(back["overall"], overall)
    assert np.array_equal(back["sites"], sites)
    assert np.array_equal(back["extraneous"], extraneous)


def test_trials_csv_round_trip_keeps_every_bit(tmp_path):
    awkward = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1 + 0.2, 100.0 / 3.0,
                        -1.0 / 3.0, np.nextafter(1.0, 2.0), np.inf, -np.inf,
                        np.nan])
    rng = np.random.default_rng(1)
    overall = np.concatenate((awkward, rng.uniform(0, 100, 50)))
    sites, extraneous = rng.permutation(overall), overall[::-1].copy()
    path = tmp_path / "trials.csv"
    write_trials_csv(path, {"overall": overall, "sites": sites,
                            "extraneous": extraneous})
    back = read_trials_csv(path)
    for key, sent in (("overall", overall), ("sites", sites),
                      ("extraneous", extraneous)):
        assert back[key].dtype == np.float64
        assert np.array_equal(back[key].view(np.uint64),
                              sent.view(np.uint64)), key


def test_trials_columns_and_box_series_follow_the_budgets(tmp_path):
    """One column of the trials CSV and one box of the chart per budget,
    named and ordered as ``netmodel.BUDGETS``."""
    assert list(TRIALS_COLUMNS) == list(BOX_LABELS) == list(BUDGETS)
    rates = {name: np.full(4, 1.0 + k) for k, name in enumerate(BUDGETS)}
    path = tmp_path / "trials.csv"
    write_trials_csv(path, rates)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["trial"] + [TRIALS_COLUMNS[name] for name in BUDGETS]
    render_p_err_box(rates, 5.0, tmp_path / "box.svg")
    texts = [el.text for el in ET.parse(tmp_path / "box.svg").getroot()
             if el.tag.endswith("text")]
    boxes = [text for text in texts if text in BOX_LABELS.values()]
    assert boxes == [BOX_LABELS[name] for name in BUDGETS]


def dict_reader_trials(path) -> dict:
    """The trials CSV read through ``csv.DictReader``, one dict per row."""
    cols = {"overall": [], "sites": [], "extraneous": []}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            cols["overall"].append(float(rec["p_err_percent"]))
            cols["sites"].append(float(rec["p_err_sites_percent"]))
            cols["extraneous"].append(float(rec["p_err_extraneous_percent"]))
    return {k: np.array(v) for k, v in cols.items()}


HEADER = "trial,p_err_percent,p_err_sites_percent,p_err_extraneous_percent\n"


@pytest.mark.parametrize("text", [
    "",
    HEADER,
    HEADER + "0,1.5,2.5,0.5\n\n1,3,4e-1,nan\n",
    HEADER + "0,1.5,2.5,0.5,extra\n",
    "p_err_percent,trial,p_err_extraneous_percent,p_err_sites_percent\n"
    "1.5,0,0.5,2.5\n",
    "trial,p_err_percent,p_err_sites_percent\n",
    "trial,p_err_percent,p_err_sites_percent\n0,1.5,2.5\n",
    HEADER + "0,1.5,2.5\n",
    HEADER + "0,1.5,abc,0.5\n",
    HEADER + "0,1.5,,0.5\n",
])
def test_trials_csv_reads_as_dict_reader_does(tmp_path, text):
    path = tmp_path / "trials.csv"
    path.write_text(text)
    try:
        want = dict_reader_trials(path)
    except Exception as exc:
        with pytest.raises(type(exc)):
            read_trials_csv(path)
        return
    got = read_trials_csv(path)
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key], equal_nan=True), key


def dict_reader_curve(path):
    with open(path, newline="") as fh:
        return np.array([float(rec["mse"]) for rec in csv.DictReader(fh)])


def dict_reader_bounds(path):
    with open(path, newline="") as fh:
        return [(rec["layer"], int(rec["in_idx"]), int(rec["out_idx"]),
                 float(rec["low_percent"]), float(rec["high_percent"]))
                for rec in csv.DictReader(fh)]


def dict_reader_sweep(path):
    with open(path, newline="") as fh:
        return {int(rec["n_states"]): float(rec["p_err_percent"])
                for rec in csv.DictReader(fh)}


ARRAY_2X2 = CrossbarConfig(rows=2, cols=2)


def dict_reader_array(path):
    """Resistance and stuck values of a 2x2 array file read through
    ``csv.DictReader``, each cell listed exactly once."""
    resistance, stuck = np.full((2, 2), np.nan), np.full((2, 2), np.nan)
    seen = np.zeros((2, 2), dtype=bool)
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            r, c = int(rec["row"]), int(rec["col"])
            if not (0 <= r < 2 and 0 <= c < 2) or seen[r, c]:
                raise ShapeMismatchError(f"cell ({r}, {c})")
            seen[r, c] = True
            resistance[r, c] = float(rec["resistance_ohm"])
            if int(rec["stuck_flag"]):
                stuck[r, c] = float(rec["stuck_ohm"])
    if not seen.all():
        raise ShapeMismatchError("a cell is missing")
    xbar = Crossbar(ARRAY_2X2, DeviceParams(), resistance, stuck)
    return xbar.resistance, xbar.stuck


def read_array(path):
    xbar = load_crossbar_csv(path, ARRAY_2X2, DeviceParams())
    return xbar.resistance, xbar.stuck


CURVE = "epoch,mse\n"
BOUNDS = "layer,in_idx,out_idx,low_percent,high_percent\n"
SWEEP = "n_states,p_err_percent\n"
ARRAY = "row,col,resistance_ohm,stuck_flag,stuck_ohm\n"
CELLS = "0,0,1e4,0,\n0,1,2e4,1,25000.0\n1,0,3e4,0,\n"

COLUMN_CASES = {
    "curve": (read_curve_csv, dict_reader_curve, [
        "", CURVE, CURVE + "0,1.5\n\n1,4e-1\n2,nan\n", "mse,epoch\n2.5,0\n",
        CURVE + "0,1.5,extra\n", CURVE + "0\n", CURVE + "0,abc\n",
        "epoch\n0\n",
    ]),
    "bounds": (read_bounds_csv, dict_reader_bounds, [
        "", BOUNDS, BOUNDS + "hidden,0,1,-4.5,6.25\n\nout,3,2,-1e-3,2\n",
        "high_percent,layer,out_idx,in_idx,low_percent\n6.25,out,1,0,-4.5\n",
        BOUNDS + "hidden,0,1,-4.5\n", BOUNDS + "hidden,0.5,1,-4.5,6.25\n",
        BOUNDS + "hidden,0,1,-4.5,x\n", "layer,in_idx\nhidden,0\n",
    ]),
    "sweep": (read_sweep_csv, dict_reader_sweep, [
        "", SWEEP, SWEEP + "2,51.3\n\n7,0.6\n2,9.0\n",
        "p_err_percent,n_states\n0.1,12\n", SWEEP + "2\n", SWEEP + "3.5,1\n",
        "n_states\n2\n",
    ]),
    "array": (read_array, dict_reader_array, [
        "", ARRAY, ARRAY + CELLS + "\n1,1,4e4,0,\n",
        "stuck_ohm,stuck_flag,resistance_ohm,col,row\n,0,1e4,0,0\n"
        "25000.0,1,2e4,1,0\n,0,3e4,0,1\n,0,4e4,1,1\n",
        ARRAY + CELLS, ARRAY + CELLS + "0,0,5e4,0,\n", ARRAY + CELLS + "2,1,4e4,0,\n",
        ARRAY + CELLS + "1,1,abc,0,\n", ARRAY + CELLS + "1,1,4e4\n",
        ARRAY + CELLS + "1,1,4e4,1,\n", "row,col\n0,0\n",
    ]),
}


@pytest.mark.parametrize("kind, text", [
    (kind, text) for kind, (_, _, texts) in COLUMN_CASES.items()
    for text in texts])
def test_csv_readers_read_as_dict_reader_does(tmp_path, kind, text):
    """The curve, bounds, sweep and array readers parse through one column
    reader and give what a ``csv.DictReader`` loop gives, or raise the
    same type of error: empty, header-only and blank-line files, reordered
    and extra columns, short rows, a missing column and bad fields."""
    read, reference = COLUMN_CASES[kind][:2]
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    try:
        want = reference(path)
    except Exception as exc:
        with pytest.raises(type(exc)):
            read(path)
        return
    got = read(path)
    if kind == "curve":
        assert np.array_equal(got, want, equal_nan=True)
    elif kind == "array":
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
    else:
        assert got == want


def test_bounds_csv_round_trip(tmp_path):
    band = np.stack([np.full((3, 2), -4.5), np.full((3, 2), 6.25)], axis=-1)
    path = tmp_path / "bounds.csv"
    written = write_bounds_csv(path, {"hidden": band})
    rows = read_bounds_csv(path)
    assert written == rows
    assert len(rows) == 6
    assert rows[0] == ("hidden", 0, 0, -4.5, 6.25)


def test_sweep_csv_round_trip(tmp_path):
    results = {2: 51.3, 7: 0.6, 12: 0.1}
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, results)
    assert read_sweep_csv(path) == results


def test_emit_report_produces_charts(default_run):
    written = emit_report(default_run.run_dir)
    assert len(written) == 4
    for path in written:
        assert path.exists()
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


def test_emit_report_is_byte_identical(default_run):
    written = emit_report(default_run.run_dir)
    before = [p.read_bytes() for p in written]
    written2 = emit_report(default_run.run_dir)
    after = [p.read_bytes() for p in written2]
    assert before == after


def test_emit_report_requires_artifacts(tmp_path):
    with pytest.raises(MissingArtifactError):
        emit_report(tmp_path)


def test_interrupted_csv_write_keeps_the_old_artifact(tmp_path):
    path = tmp_path / "trials.csv"
    write_csv(path, ["trial", "value"], [(0, 1.5), (1, 2.5)])
    before = path.read_bytes()

    def rows():
        yield (0, 9.0)
        yield (1, 9.5)
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_csv(path, ["trial", "value"], rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trials.csv"]


def test_replacing_swaps_the_file_in_only_when_the_block_completes(tmp_path):
    path = tmp_path / "chart.svg"
    path.write_text("old\n")
    with replacing(path) as fh:
        fh.write("new\n")
        fh.flush()
        assert path.read_text() == "old\n"
        assert (tmp_path / "chart.svg.part").read_text() == "new\n"
    assert path.read_text() == "new\n"
    assert not (tmp_path / "chart.svg.part").exists()


def test_interrupted_first_write_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(KeyboardInterrupt):
        with replacing(path) as fh:
            fh.write("{")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []


# Calls that write a file: ``open`` (builtin, a module's or a ``Path``'s)
# with a mode that can write, or a mode this scan cannot read.
_WRITE_METHODS = ("write_text", "write_bytes")
_OPEN_MODULES = ("io", "gzip", "bz2", "lzma", "codecs")


def _file_writes(source: str) -> list:
    """Line numbers of the calls in ``source`` that open a file for writing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in _WRITE_METHODS:
            found.append(node.lineno)
        elif name == "open":
            # the mode follows the path, except in ``Path.open(mode)``
            on_path = (isinstance(func, ast.Attribute)
                       and getattr(func.value, "id", None) not in _OPEN_MODULES)
            mode = [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode += node.args[0 if on_path else 1:][:1]
            if mode and not (isinstance(mode[0], ast.Constant)
                             and isinstance(mode[0].value, str)
                             and not set(mode[0].value) & set("wax+")):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("source, writes", [
    ("open(p, 'w')", 1), ("open(p, mode='a', newline='')", 1),
    ("open(p, 'xb')", 1), ("open(p, 'r+')", 1), ("io.open(p, 'w')", 1),
    ("gzip.open(p, 'wt')", 1), ("p.open('w')", 1), ("p.open(mode='w')", 1),
    ("open(p, m)", 1), ("p.write_text(s)", 1), ("p.write_bytes(b)", 1),
    ("open(p)", 0), ("open(p, newline='')", 0), ("open(p, 'rb')", 0),
    ("p.open()", 0), ("p.open('r')", 0), ("gzip.open(p)", 0),
    ("io.open(p, 'r')", 0), ("fh.write(s)", 0),
])
def test_write_scan_finds_every_kind_of_write(source, writes):
    assert len(_file_writes(source)) == writes


def test_only_the_atomic_writer_opens_files_for_writing():
    """Every artifact goes through ``reports.replacing``."""
    package = Path(memxbar.__file__).parent
    offenders = {}
    for module in sorted(package.glob("*.py")):
        source = module.read_text()
        lines = _file_writes(source)
        if module.name == "reports.py":
            tree = ast.parse(source)
            writer = next(node for node in ast.walk(tree)
                          if isinstance(node, ast.FunctionDef)
                          and node.name == "replacing")
            lines = [n for n in lines
                     if not writer.lineno <= n <= writer.end_lineno]
        if lines:
            offenders[module.name] = lines
    assert offenders == {}


def test_every_json_artifact_is_indented_with_sorted_keys(default_run):
    """All ten JSON artifacts of a run share ``write_json``'s format."""
    names = {"split.json", "params.json", "params_continuous.json",
             "train.json", "compiled.json", "programmed.json", "report.json",
             "result.json", "summary.json", "manifest.json"}
    paths = [p for p in default_run.run_dir.rglob("*.json") if p.name in names]
    assert {p.name for p in paths} == names and len(paths) == len(names)
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True), path.name
