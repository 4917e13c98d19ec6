"""Spike-pattern synthesis for the classification task.

Each pattern is 4 channels x 4 spike times inside a 50 ms window.  The
four signal classes jitter their spike times around class-specific means;
the extraneous class draws times uniformly.  Times are normalized by the
window and quantized to the DAC grid, giving 16 input voltages in [0, 1].
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import CountMismatchError, ShapeMismatchError
from .netmodel import (LABELS, N_OUTPUT, OUTPUT_LABELS, REJECT_LABEL,
                       label_codes)
from .reports import replacing
from .stats import check_ranges, quantize_half_up, truncated_normal

N_CHANNELS = 4
N_SPIKES = 4

TRAIN_COUNTS = {"S1": 735, "S2": 760, "S3": 724, "S4": 754, "Sr": 3027}
TEST_COUNTS = {"S1": 265, "S2": 240, "S3": 276, "S4": 246, "Sr": 973}


# Accepted values of each scalar profile setting; NaN fails every comparison.
_PROFILE_RANGES = {
    "window_ms": ("finite and > 0", lambda v: 0 < v < math.inf),
    "jitter_fraction": ("finite and >= 0", lambda v: 0 <= v < math.inf),
    "jitter_sigmas": ("finite and > 0", lambda v: 0 < v < math.inf),
    "dac_step": ("finite and > 0", lambda v: 0 < v < math.inf),
}


@dataclass
class StimulusProfile:
    """Mean spike times per signal class, plus jitter and encoding settings.

    The constructor refuses, with ValueError, a scalar setting that is not
    a number in its range and a class whose means are missing, of the
    wrong shape or outside the window.
    """

    means: dict = field(default_factory=dict)  # label -> (4, 4) ms array
    window_ms: float = 50.0
    jitter_fraction: float = 0.3
    jitter_sigmas: float = 3.0
    dac_step: float = 0.0025

    def __post_init__(self):
        check_ranges({name: getattr(self, name) for name in _PROFILE_RANGES},
                     _PROFILE_RANGES)
        for label in OUTPUT_LABELS:
            if label not in self.means:
                raise ValueError(f"profile is missing class {label}")
            arr = np.asarray(self.means[label], dtype=float)
            if arr.shape != (N_CHANNELS, N_SPIKES):
                raise ValueError(f"{label}: expected shape "
                                 f"({N_CHANNELS}, {N_SPIKES}), got {arr.shape}")
            if np.any(arr < 0) or np.any(arr > self.window_ms):
                raise ValueError(f"{label}: mean times must lie in the window")
            self.means[label] = arr

    @classmethod
    def from_dict(cls, d: dict) -> "StimulusProfile":
        if not isinstance(d, dict) or not isinstance(d.get("means"), dict):
            raise ValueError("profile needs a 'means' object mapping each "
                             "class to its (4, 4) mean spike times")
        return cls(means={k: np.array(v) for k, v in d["means"].items()},
                   **{k: d[k] for k in _PROFILE_RANGES if k in d})


def load_profile(path) -> StimulusProfile:
    with open(path) as fh:
        return StimulusProfile.from_dict(json.load(fh))


def default_profile() -> StimulusProfile:
    """Packaged recording-site profile used by the bundled experiments."""
    text = resources.files("memxbar").joinpath("data/default_profile.json")
    return StimulusProfile.from_dict(json.loads(text.read_text()))


def synthesize_stimulus_patterns(profile: StimulusProfile, label: str,
                                 count: int, rng: np.random.Generator) -> np.ndarray:
    """Jittered spike trains (count, channels, spikes) for one signal class."""
    mean = profile.means[label]
    sigma = profile.jitter_fraction * mean / profile.jitter_sigmas
    times = truncated_normal(rng, mean, np.maximum(sigma, 1e-12),
                             profile.jitter_sigmas,
                             (count, N_CHANNELS, N_SPIKES))
    times = np.clip(times, 0.0, profile.window_ms)
    return np.sort(times, axis=-1)


def synthesize_extraneous(profile: StimulusProfile, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Uniform spike trains with no structure, the rejection class."""
    times = rng.uniform(0.0, profile.window_ms,
                        size=(count, N_CHANNELS, N_SPIKES))
    return np.sort(times, axis=-1)


def encode(times: np.ndarray, profile: StimulusProfile) -> np.ndarray:
    """Flatten (H, channels, spikes) trains into (H, 16) input voltages:
    divide by the window, snap to the DAC grid, clip to [0, 1]."""
    times = np.asarray(times, dtype=float)
    x = times.reshape(times.shape[0], N_CHANNELS * N_SPIKES) / profile.window_ms
    return np.clip(quantize_half_up(x, profile.dac_step), 0.0, 1.0)


def target_matrix(labels) -> np.ndarray:
    """Desired outputs, one row per label: +1 on the class line, -1
    elsewhere, all -1 for reject."""
    codes = label_codes(labels)
    return np.where(codes[:, None] == np.arange(N_OUTPUT), 1.0, -1.0)


def synthesize_pool(profile: StimulusProfile, rng: np.random.Generator,
                    per_site: int = 1000,
                    extraneous: int = 4000) -> tuple[np.ndarray, list]:
    """The full labelled corpus before splitting."""
    blocks, labels = [], []
    for label in OUTPUT_LABELS:
        times = synthesize_stimulus_patterns(profile, label, per_site, rng)
        blocks.append(encode(times, profile))
        labels.extend([label] * per_site)
    times = synthesize_extraneous(profile, extraneous, rng)
    blocks.append(encode(times, profile))
    labels.extend([REJECT_LABEL] * extraneous)
    return np.vstack(blocks), labels


def make_split(x: np.ndarray, labels, train_counts: dict, test_counts: dict,
               rng: np.random.Generator):
    """Shuffle the pool and partition it into exact per-class counts.

    Every pattern lands in exactly one side, and the per-class pool sizes
    must equal train + test counts.
    """
    x = np.asarray(x, dtype=float)
    labels = list(labels)
    if x.shape[0] != len(labels):
        raise CountMismatchError(f"{x.shape[0]} rows vs {len(labels)} labels")
    unknown = (set(train_counts) | set(test_counts)) - set(LABELS)
    if unknown:
        raise CountMismatchError(f"unknown classes {sorted(unknown)}")
    train_idx, test_idx = [], []
    for label in LABELS:
        pool = [i for i, lb in enumerate(labels) if lb == label]
        n_train = train_counts.get(label, 0)
        n_test = test_counts.get(label, 0)
        if len(pool) != n_train + n_test:
            raise CountMismatchError(
                f"{label}: pool has {len(pool)}, split wants "
                f"{n_train}+{n_test}"
            )
        order = rng.permutation(len(pool))
        train_idx.extend(pool[k] for k in order[:n_train])
        test_idx.extend(pool[k] for k in order[n_train:])
    y_train = [labels[i] for i in train_idx]
    y_test = [labels[i] for i in test_idx]
    return (x[train_idx], y_train), (x[test_idx], y_test)


def default_splits(rng: np.random.Generator, profile: StimulusProfile | None = None):
    """The standard 6000/2000 train/test split of the synthesized corpus."""
    if profile is None:
        profile = default_profile()
    x, labels = synthesize_pool(profile, rng)
    return make_split(x, labels, TRAIN_COUNTS, TEST_COUNTS, rng)


# Rows per block of a dataset file: a block's text, strings and lists are
# built and freed before the next, so no whole-file buffer is held.
_CSV_ROWS = 1024


def _csv_cell(value) -> str:
    """``value`` as ``csv.writer`` writes it in a field after the first."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", value])
    return buf.getvalue()[1:-2]


def save_dataset_csv(path, x: np.ndarray, labels) -> None:
    """One row per pattern, floats as repr, bytes as ``csv.writer`` writes
    them; each distinct value of a block of rows is formatted once, keyed
    by its bits so that -0.0 and 0.0 stay apart."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != len(labels):
        raise CountMismatchError(f"{x.shape[0]} rows vs {len(labels)} labels")
    labels = list(labels)
    cells = {label: _csv_cell(label) for label in dict.fromkeys(labels)}
    with replacing(path, newline="") as fh:
        csv.writer(fh).writerow([f"x{i}" for i in range(x.shape[1])]
                                + ["label"])
        for start in range(0, len(x), _CSV_ROWS):
            block = np.ascontiguousarray(x[start:start + _CSV_ROWS])
            keys, inverse = np.unique(block.view(np.uint64),
                                      return_inverse=True)
            text = np.array([repr(v) for v in keys.view(float).tolist()],
                            dtype=object)
            rows = text[inverse.reshape(block.shape)].tolist()
            fh.write("".join(
                f"{','.join(row)},{cells[label]}\r\n"
                for row, label in zip(rows, labels[start:start + _CSV_ROWS])))


def load_dataset_csv(path) -> tuple[np.ndarray, list]:
    """Patterns and labels of a dataset file; a row of the wrong width, with
    a value that is not a number or with a label outside ``LABELS`` is
    refused, naming the first bad row's line, as is a file of no patterns.

    Rows are read in blocks; each distinct text of a block is converted
    once."""
    canonical = {lb: lb for lb in LABELS}
    blocks, labels = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, ["label"])    # an empty file: no patterns
        n = len(header) - 1
        while True:
            fields, lines, refused = [], [], None
            for rec in itertools.islice(reader, _CSV_ROWS):
                if len(rec) != len(header):
                    refused = ShapeMismatchError(
                        f"{path} line {reader.line_num}: {len(rec)} fields, "
                        f"the header has {len(header)}")
                    break
                label = canonical.get(rec[n])
                if label is None:
                    refused = CountMismatchError(
                        f"{path} line {reader.line_num}: label {rec[n]!r} is "
                        f"not one of {LABELS}")
                    break
                fields.extend(rec[:n])
                lines.append(reader.line_num)
                labels.append(label)
            # a bad number on an earlier row is refused before a bad row
            blocks.append(_parse_block(path, fields, lines, n))
            if refused is not None:
                raise refused
            if len(lines) < _CSV_ROWS:
                break
    if not labels:
        raise CountMismatchError(f"{path}: no patterns")
    return np.concatenate(blocks), labels


def _parse_block(path, fields: list, lines: list, n: int) -> np.ndarray:
    """(rows, n) floats of the row-major ``fields``; ``lines`` are the
    rows' line numbers."""
    values = {}
    for text in dict.fromkeys(fields):      # in order of first appearance
        try:
            values[text] = float(text)
        except ValueError as exc:
            row = fields.index(text) // n
            raise ShapeMismatchError(
                f"{path} line {lines[row]}: {exc}") from exc
    return np.fromiter(map(values.__getitem__, fields), dtype=float,
                       count=len(fields)).reshape(len(lines), n)
