"""Spike-pattern synthesis, encoding, and split bookkeeping."""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from memxbar import pipeline
from memxbar.dataset import (TEST_COUNTS, TRAIN_COUNTS, StimulusProfile,
                             default_profile, default_splits, encode,
                             load_dataset_csv, load_profile, make_split,
                             save_dataset_csv, synthesize_extraneous,
                             synthesize_pool, synthesize_stimulus_patterns,
                             target_matrix)
from memxbar.errors import CountMismatchError, ShapeMismatchError
from memxbar.netmodel import LABELS

from helpers import default_profile_dict


def test_default_profile_covers_all_sites():
    profile = default_profile()
    assert set(profile.means) == {"S1", "S2", "S3", "S4"}
    assert profile.window_ms == 50.0


def test_profile_rejects_bad_means():
    with pytest.raises(ValueError):
        StimulusProfile(means={"S1": np.zeros((4, 4))})
    means = {lb: np.full((4, 4), 10.0) for lb in ("S1", "S2", "S3", "S4")}
    means["S2"] = np.full((4, 4), 60.0)       # outside the window
    with pytest.raises(ValueError):
        StimulusProfile(means=means)


@pytest.mark.parametrize("name, value", [
    ("window_ms", "50"), ("window_ms", 0), ("window_ms", -50.0),
    ("window_ms", float("nan")), ("window_ms", float("inf")),
    ("window_ms", True), ("jitter_fraction", -1), ("jitter_fraction", "0.3"),
    ("jitter_fraction", float("nan")), ("jitter_fraction", float("inf")),
    ("jitter_sigmas", 0), ("jitter_sigmas", float("nan")),
    ("jitter_sigmas", float("inf")), ("jitter_sigmas", None),
    ("dac_step", 0), ("dac_step", -0.0025), ("dac_step", float("nan")),
    ("dac_step", float("inf")), ("dac_step", "0.0025"), ("dac_step", False),
])
def test_profile_refuses_bad_scalar_setting(name, value):
    d = default_profile_dict()
    d[name] = value
    with pytest.raises(ValueError, match=name):
        StimulusProfile.from_dict(d)


def test_profile_accepts_zero_jitter():
    d = default_profile_dict()
    d["jitter_fraction"] = 0
    assert StimulusProfile.from_dict(d).jitter_fraction == 0


def test_profile_of_only_means_takes_the_defaults(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"means": default_profile_dict()["means"]}))
    back = load_profile(path)
    for name in ("window_ms", "jitter_fraction", "jitter_sigmas", "dac_step"):
        assert getattr(back, name) == getattr(StimulusProfile, name)


def test_profile_json_round_trip(tmp_path):
    profile = default_profile()
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(default_profile_dict()))
    back = load_profile(path)
    assert back.window_ms == profile.window_ms
    for label, arr in profile.means.items():
        assert np.array_equal(back.means[label], arr)


def test_stimulus_patterns_sorted_in_window():
    profile = default_profile()
    times = synthesize_stimulus_patterns(profile, "S3", 200,
                                         np.random.default_rng(0))
    assert times.shape == (200, 4, 4)
    assert times.min() >= 0.0 and times.max() <= profile.window_ms
    assert (np.diff(times, axis=-1) >= 0).all()


def test_stimulus_patterns_track_class_means():
    profile = default_profile()
    times = synthesize_stimulus_patterns(profile, "S1", 4000,
                                         np.random.default_rng(1))
    spread = profile.jitter_fraction * profile.means["S1"]
    assert np.all(np.abs(times.mean(axis=0) - profile.means["S1"])
                  <= 0.2 * spread + 0.5)


def test_extraneous_patterns_fill_window():
    profile = default_profile()
    times = synthesize_extraneous(profile, 3000, np.random.default_rng(2))
    assert (np.diff(times, axis=-1) >= 0).all()
    # a uniform draw explores the full window
    assert times.min() < 2.0 and times.max() > 48.0


def test_encoding_normalizes_and_snaps():
    profile = default_profile()
    times = np.tile([0.0, 12.5, 25.0, 50.0], (1, 4, 1))
    x = encode(times, profile)
    assert np.array_equal(x, np.tile([0.0, 0.25, 0.5, 1.0], (1, 4)))
    grid = encode(np.full((1, 4, 4), 12.51), profile)
    assert grid == pytest.approx(np.full((1, 16), 0.25))  # 0.2502 snaps down


def test_encode_flattens_to_sixteen_inputs():
    profile = default_profile()
    times = synthesize_stimulus_patterns(profile, "S2", 10,
                                         np.random.default_rng(3))
    x = encode(times, profile)
    assert x.shape == (10, 16)
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_target_vectors():
    assert np.array_equal(target_matrix(["S1", "S4", "Sr"]),
                          [[1, -1, -1, -1], [-1, -1, -1, 1], [-1, -1, -1, -1]])
    mat = target_matrix(["S2", "Sr", "S1", "S4", "S3", "Sr"])
    assert mat.shape == (6, 4)
    assert np.array_equal(mat, [[-1, 1, -1, -1], [-1, -1, -1, -1],
                                [1, -1, -1, -1], [-1, -1, -1, 1],
                                [-1, -1, 1, -1], [-1, -1, -1, -1]])


def test_pool_composition():
    profile = default_profile()
    x, labels = synthesize_pool(profile, np.random.default_rng(4),
                                per_site=50, extraneous=100)
    assert x.shape == (300, 16)
    assert labels.count("Sr") == 100
    assert labels.count("S1") == 50


def test_make_split_partitions_exactly():
    rng = np.random.default_rng(5)
    profile = default_profile()
    x, labels = synthesize_pool(profile, rng, per_site=30, extraneous=40)
    train_counts = {lb: 20 for lb in ("S1", "S2", "S3", "S4")}
    train_counts["Sr"] = 25
    test_counts = {lb: 10 for lb in ("S1", "S2", "S3", "S4")}
    test_counts["Sr"] = 15
    (x_tr, y_tr), (x_te, y_te) = make_split(x, labels, train_counts,
                                            test_counts, rng)
    assert len(y_tr) == 105 and len(y_te) == 55
    # every pool row lands on exactly one side
    seen = np.vstack([x_tr, x_te])
    assert seen.shape == x.shape
    order = np.lexsort(seen.T), np.lexsort(x.T)
    assert np.array_equal(seen[order[0]], x[order[1]])
    for lb, n in test_counts.items():
        assert y_te.count(lb) == n


def test_make_split_rejects_wrong_counts():
    profile = default_profile()
    x, labels = synthesize_pool(profile, np.random.default_rng(6),
                                per_site=10, extraneous=10)
    with pytest.raises(CountMismatchError):
        make_split(x, labels, {"S1": 8}, {"S1": 5}, np.random.default_rng(0))


def test_default_splits_have_standard_counts():
    (x_tr, y_tr), (x_te, y_te) = default_splits(np.random.default_rng(7))
    assert len(y_tr) == 6000 and len(y_te) == 2000
    for lb, n in TRAIN_COUNTS.items():
        assert y_tr.count(lb) == n
    for lb, n in TEST_COUNTS.items():
        assert y_te.count(lb) == n
    assert x_tr.shape == (6000, 16) and x_te.shape == (2000, 16)


def test_dataset_csv_round_trip(tmp_path):
    profile = default_profile()
    x, labels = synthesize_pool(profile, np.random.default_rng(8),
                                per_site=5, extraneous=5)
    path = tmp_path / "data.csv"
    save_dataset_csv(path, x, labels)
    x2, labels2 = load_dataset_csv(path)
    assert np.array_equal(x, x2)
    assert labels == labels2


AWKWARD = [-0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2]


def awkward_dataset(rows=2500, seed=3):
    """More rows than one block of the CSV code, the awkward values
    repeated across blocks between ordinary ones."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (rows, 16))
    mask = rng.random(x.shape) < 0.3
    x[mask] = rng.choice(AWKWARD, mask.sum())
    labels = [LABELS[k] for k in rng.integers(0, len(LABELS), rows)]
    return x, labels


def test_dataset_csv_bytes_equal_csv_writer(tmp_path):
    x, labels = awkward_dataset()
    path, ref = tmp_path / "data.csv", tmp_path / "ref.csv"
    save_dataset_csv(path, x, labels)
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(16)] + ["label"])
        writer.writerows(row.tolist() + [lb] for row, lb in zip(x, labels))
    assert path.read_bytes() == ref.read_bytes()
    assert b"-0.0," in ref.read_bytes() and b"5e-324" in ref.read_bytes()


def test_dataset_csv_round_trip_is_exact(tmp_path):
    x, labels = awkward_dataset()
    path = tmp_path / "data.csv"
    save_dataset_csv(path, x, labels)
    x2, labels2 = load_dataset_csv(path)
    assert x2.shape == x.shape
    assert np.array_equal(x2.view(np.uint64), x.view(np.uint64))
    assert labels2 == labels


def test_the_binary_copy_of_each_split_holds_the_csv_bits(tmp_path,
                                                         monkeypatch):
    """The dataset stage writes each split as CSV and as binary copy; the
    copy reads back as the CSV's parse bit for bit, awkward values
    included, and a value outside [0, 1] is refused, naming its line, from
    either one."""
    splits = (awkward_dataset(), awkward_dataset(rows=700, seed=4))
    monkeypatch.setattr(pipeline.ds, "default_splits",
                        lambda rng, profile: splits)
    pipeline.run_pipeline(pipeline.RunConfig(seed=1, out_dir=tmp_path),
                          "dataset")
    for name in ("train", "test"):
        csv_path = tmp_path / "dataset" / f"{name}.csv"
        x, labels = pipeline._split_copy(tmp_path, name)
        want, want_labels = load_dataset_csv(csv_path)
        assert x.shape == want.shape and x.flags.c_contiguous
        assert np.array_equal(x.view(np.uint64), want.view(np.uint64))
        assert labels == want_labels
        messages = []
        for _ in range(2):   # from the copy, then from the CSV alone
            with pytest.raises(ShapeMismatchError) as refused:
                pipeline._load_split(tmp_path, name)
            messages.append(str(refused.value))
            (tmp_path / "dataset" / f"{name}.npy").unlink(missing_ok=True)
        assert messages[0] == messages[1]
        assert f"{csv_path} line " in messages[0]


def test_dataset_csv_passes_hold_no_whole_file_buffer(tmp_path):
    (x, labels), _ = default_splits(np.random.default_rng(7))
    path = tmp_path / "train.csv"
    for run, bound in ((lambda: save_dataset_csv(path, x, labels), 2.0),
                       (lambda: load_dataset_csv(path), 4.5)):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * x.nbytes


@pytest.mark.parametrize("edit, error", [
    (lambda f: f[:-1] + ["S9"], CountMismatchError),
    (lambda f: f[:-1] + [""], CountMismatchError),
    (lambda f: f[1:], ShapeMismatchError),
    (lambda f: f + ["0.5"], ShapeMismatchError),
    (lambda f: ["0.5x"] + f[1:], ShapeMismatchError),
])
def test_dataset_csv_refuses_a_bad_row(tmp_path, edit, error):
    """In the first block of rows and after it."""
    path = tmp_path / "test.csv"
    x = np.random.default_rng(0).uniform(0.0, 1.0, (2000, 16))
    save_dataset_csv(path, x, ["S1", "S2", "Sr", "S4"] * 500)
    good = path.read_text().splitlines()
    for row in (3, 1500):
        lines = list(good)
        lines[row] = ",".join(edit(lines[row].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error, match=f"line {row + 1}:"):
            load_dataset_csv(path)


@pytest.mark.parametrize("keep", [1, 0], ids=["header", "nothing"])
def test_dataset_csv_without_patterns_is_refused(tmp_path, keep):
    path = tmp_path / "test.csv"
    save_dataset_csv(path, np.zeros((2, 16)), ["S1", "Sr"])
    path.write_text("".join(path.read_text().splitlines(True)[:keep]))
    with pytest.raises(CountMismatchError, match="test.csv: no patterns"):
        load_dataset_csv(path)


def test_dataset_csv_names_the_first_bad_row(tmp_path):
    """A bad number is refused before a bad label on a later row of the
    same block, as a row-by-row read would."""
    path = tmp_path / "test.csv"
    x = np.random.default_rng(0).uniform(0.0, 1.0, (40, 16))
    save_dataset_csv(path, x, ["S1", "S2", "Sr", "S4"] * 10)
    lines = path.read_text().splitlines()
    lines[10] = "nope" + lines[10][lines[10].index(","):]
    lines[20] = lines[20].rsplit(",", 1)[0] + ",S9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ShapeMismatchError, match="line 11: .*'nope'"):
        load_dataset_csv(path)
