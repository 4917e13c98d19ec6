"""Translation between informational weights and physical resistance pairs.

A signed synaptic weight is realized by two memristors in adjacent rows:

    w = r_f / r_m1 - r_f / r_m2

where ``r_m1`` sits in the row feeding the inverting input of the
differential stage and ``r_m2`` in the row feeding the non-inverting one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, WeightOutOfRangeError
from .netmodel import LAYERS


@dataclass(frozen=True)
class ResistanceRange:
    """Programmable resistance window of the devices, 0 < r_min < r_max:
    plain data, whose rule ``check_device`` states for the device window
    and ``RunConfig.check_experiment`` for the sweep window."""

    r_min: float
    r_max: float


@dataclass(frozen=True)
class SynapseNominals:
    """Nominal resistor values realizing one synapse."""

    r_f: float
    r_m1: float
    r_m2: float

    def __post_init__(self):
        if min(self.r_f, self.r_m1, self.r_m2) <= 0:
            raise ValueError("all resistances must be > 0")


def weight_from_resistances(syn: SynapseNominals) -> float:
    """Signed weight produced by a differential memristor pair."""
    return syn.r_f / syn.r_m1 - syn.r_f / syn.r_m2


def w_max(r_f: float, rng: ResistanceRange) -> float:
    """Largest weight magnitude realizable inside the resistance range."""
    return r_f * (rng.r_max - rng.r_min) / (rng.r_max * rng.r_min)


def resistances_for_weight(w: float, r_f: float,
                           rng: ResistanceRange) -> SynapseNominals:
    """Pick a resistance pair realizing ``w``.

    The one-synapse case of :func:`compile_weight_matrix`.
    """
    layer = compile_weight_matrix(np.array([[w]], dtype=float), r_f, rng)
    return layer.synapse(0, 0)


def discrete_weight_table(
    r_f: float,
    r_m2_ref: float,
    rng: ResistanceRange,
    step: float,
) -> list[float]:
    """Weights reachable when the programmed memristor moves in fixed steps.

    Sweeps r_m1 over r_min, r_min + step, ... r_max against a fixed
    opposing resistance and returns the resulting weights in ascending
    order.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    n_steps = int(round((rng.r_max - rng.r_min) / step))
    r_values = rng.r_min + step * np.arange(n_steps + 1)
    r_values = r_values[r_values <= rng.r_max * (1 + 1e-12)]
    weights = r_f / r_values - r_f / r_m2_ref
    return sorted(float(v) for v in weights)


def symmetric_weight_states(n_states: int, r_f: float, rng: ResistanceRange) -> list[float]:
    """Signed weight levels from ``n_states`` evenly spaced resistance states.

    Resistance states are linspace(r_min, r_max, n); each gives a
    non-negative weight against the r_max reference, and the mirrored
    negatives complete the set (zero appears once).
    """
    if n_states < 2:
        raise ValueError("need at least 2 resistance states")
    r_states = np.linspace(rng.r_min, rng.r_max, n_states)
    pos = r_f / r_states - r_f / rng.r_max
    states = np.concatenate([-pos, pos])
    return sorted(set(float(v) for v in states))


def quantize_weights(w: np.ndarray, states) -> np.ndarray:
    """Nearest member of ``states`` for every weight.

    At a midpoint tie the smaller magnitude wins, then the smaller value.
    """
    arr = np.sort(np.asarray(states, dtype=float))
    if arr.size == 0:
        raise ValueError("states must be nonempty")
    flat = np.asarray(w, dtype=float).ravel()
    idx = np.searchsorted(arr, flat)
    idx = np.clip(idx, 1, len(arr) - 1) if len(arr) > 1 else np.zeros_like(idx)
    lo = arr[idx - 1]
    hi = arr[idx]
    d_lo = np.abs(flat - lo)
    d_hi = np.abs(flat - hi)
    pick_hi = d_hi < d_lo
    tie = np.isclose(d_lo, d_hi, rtol=1e-15, atol=0.0)
    # at an exact midpoint the smaller-magnitude neighbour wins
    pick_hi[tie] = np.abs(hi[tie]) < np.abs(lo[tie])
    return np.where(pick_hi, hi, lo).reshape(np.shape(w))


@dataclass
class CompiledLayer:
    """Per-synapse resistance nominals of one crossbar layer."""

    r_m1: np.ndarray             # (inputs, outputs)
    r_m2: np.ndarray
    r_f: float

    def __post_init__(self):
        self.r_m1 = np.asarray(self.r_m1, dtype=float)
        self.r_m2 = np.asarray(self.r_m2, dtype=float)
        if self.r_m1.shape != self.r_m2.shape:
            raise ShapeMismatchError(f"{self.r_m1.shape} vs {self.r_m2.shape}")

    def synapse(self, i: int, j: int) -> SynapseNominals:
        return SynapseNominals(r_f=self.r_f, r_m1=float(self.r_m1[i, j]),
                               r_m2=float(self.r_m2[i, j]))

    def weights(self) -> np.ndarray:
        return self.r_f / self.r_m1 - self.r_f / self.r_m2


@dataclass
class CompiledNet:
    """Resistance-level realization of the whole network."""

    hidden: CompiledLayer
    out: CompiledLayer

    def layers(self):
        """(name, layer) of each of ``netmodel.LAYERS``, in order."""
        return tuple((name, getattr(self, name)) for name in LAYERS)


def compile_weight_matrix(w: np.ndarray, r_f: float,
                          rng: ResistanceRange) -> CompiledLayer:
    """Resistance pairs realizing every weight of a matrix.

    For each synapse the opposing memristor is pinned at the top of the
    range, which maximizes the usable weight span to :func:`w_max`, and
    the other one carries the magnitude.  Negative weights mirror the
    pair.
    """
    w = np.asarray(w, dtype=float)
    ref = rng.r_max
    cap = w_max(r_f, rng)
    worst = np.abs(w).max() if w.size else 0.0
    if worst > cap * (1 + 1e-12):
        raise WeightOutOfRangeError(f"|w|={worst:.4g} exceeds {cap:.4g}")
    r_prog = _free_branch(np.abs(w), r_f, ref, rng)
    r_m1 = np.where(w >= 0, r_prog, ref)
    r_m2 = np.where(w >= 0, ref, r_prog)
    return CompiledLayer(r_m1=r_m1, r_m2=r_m2, r_f=r_f)


def _free_branch(w: np.ndarray, r_f: float, fixed, rng: ResistanceRange):
    """The branch realizing ``w = r_f/free - r_f/fixed``, clamped to the
    range; ``r_max`` where no resistance > 0 does."""
    denom = w + r_f / fixed
    with np.errstate(divide="ignore"):
        free = np.where(denom > 0, r_f / denom, rng.r_max)
    return np.minimum(np.maximum(free, rng.r_min), rng.r_max)


def compile_network(w_hidden: np.ndarray, w_out: np.ndarray, r_f: float,
                    rng: ResistanceRange) -> CompiledNet:
    """Resistance realization of both layers of the perceptron."""
    return CompiledNet(
        hidden=compile_weight_matrix(w_hidden, r_f, rng),
        out=compile_weight_matrix(w_out, r_f, rng),
    )


def compensate_stuck(layer: CompiledLayer, stuck_m1: np.ndarray,
                     stuck_m2: np.ndarray, rng: ResistanceRange) -> CompiledLayer:
    """``layer`` as far as the frozen branches ``stuck_m1`` and ``stuck_m2``
    (NaN where free) allow: a frozen branch keeps its value, and a free one
    opposite it is solved from the weight equation and clamped to the
    range, so the pair realizes the nearest weight it can."""
    w, r_f = layer.weights(), layer.r_f
    free1, free2 = np.isnan(stuck_m1), np.isnan(stuck_m2)
    r_m1 = np.where(free2, layer.r_m1, _free_branch(w, r_f, stuck_m2, rng))
    r_m2 = np.where(free1, layer.r_m2, _free_branch(-w, r_f, stuck_m1, rng))
    return CompiledLayer(r_m1=np.where(free1, r_m1, stuck_m1),
                         r_m2=np.where(free2, r_m2, stuck_m2), r_f=r_f)
