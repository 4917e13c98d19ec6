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


@dataclass(frozen=True)
class ResistanceRange:
    """Programmable resistance window of the devices."""

    r_min: float
    r_max: float
    n_states: int | None = None

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise ValueError(f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}")
        if self.n_states is not None and self.n_states < 2:
            raise ValueError("n_states must be >= 2")


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


def resistances_for_weight(
    w: float,
    r_f: float,
    rng: ResistanceRange,
    reference: float | None = None,
) -> SynapseNominals:
    """Pick a resistance pair realizing ``w``.

    The one-synapse case of :func:`compile_weight_matrix`.
    """
    layer = compile_weight_matrix(np.array([[w]], dtype=float), r_f, rng,
                                  reference)
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
    out = np.where(pick_hi, hi, lo)
    if len(arr) == 1:
        out = np.full_like(flat, arr[0])
    return out.reshape(np.shape(w))


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
        return (("hidden", self.hidden), ("out", self.out))


def compile_weight_matrix(w: np.ndarray, r_f: float, rng: ResistanceRange,
                          reference: float | None = None) -> CompiledLayer:
    """Resistance pairs realizing every weight of a matrix.

    For each synapse the opposing memristor is pinned at ``reference``
    (the top of the range by default, which maximizes the usable weight
    span) and the other one carries the magnitude.  Negative weights
    mirror the pair.
    """
    w = np.asarray(w, dtype=float)
    ref = rng.r_max if reference is None else reference
    if not (rng.r_min <= ref <= rng.r_max):
        raise ValueError(f"reference {ref} outside range [{rng.r_min}, {rng.r_max}]")
    cap = r_f * (ref - rng.r_min) / (ref * rng.r_min)
    worst = np.abs(w).max() if w.size else 0.0
    if worst > cap * (1 + 1e-12):
        raise WeightOutOfRangeError(
            f"|w|={worst:.4g} exceeds {cap:.4g} for reference {ref:.4g}"
        )
    r_prog = np.clip(r_f / (np.abs(w) + r_f / ref), rng.r_min, rng.r_max)
    r_m1 = np.where(w >= 0, r_prog, ref)
    r_m2 = np.where(w >= 0, ref, r_prog)
    return CompiledLayer(r_m1=r_m1, r_m2=r_m2, r_f=r_f)


def compile_network(w_hidden: np.ndarray, w_out: np.ndarray, r_f: float,
                    rng: ResistanceRange,
                    reference: float | None = None) -> CompiledNet:
    """Resistance realization of both layers of the perceptron."""
    return CompiledNet(
        hidden=compile_weight_matrix(w_hidden, r_f, rng, reference),
        out=compile_weight_matrix(w_out, r_f, rng, reference),
    )


def compensate_stuck(
    stuck_m1: float | None,
    stuck_m2: float | None,
    target_w: float,
    r_f: float,
    rng: ResistanceRange,
    reference: float | None = None,
) -> tuple[SynapseNominals, float, bool]:
    """Best-effort synapse realization when one or both devices are frozen.

    Returns ``(nominals, achieved_w, fixed)``.  With one device stuck the
    free one is solved from the weight equation and clamped to the
    programmable range; ``achieved_w`` is what the clamped pair actually
    realizes.  With both stuck the weight is whatever their ratio gives and
    ``fixed`` is True: no programming can change it.
    """
    if stuck_m1 is None and stuck_m2 is None:
        syn = resistances_for_weight(target_w, r_f, rng, reference=reference)
        return syn, weight_from_resistances(syn), False
    if stuck_m1 is not None and stuck_m2 is not None:
        syn = SynapseNominals(r_f=r_f, r_m1=stuck_m1, r_m2=stuck_m2)
        return syn, weight_from_resistances(syn), True
    if stuck_m2 is not None:
        # w = r_f/r_m1 - r_f/s  ->  r_m1 = r_f / (w + r_f/s)
        denom = target_w + r_f / stuck_m2
        r_m1 = r_f / denom if denom > 0 else rng.r_max
        r_m1 = min(max(r_m1, rng.r_min), rng.r_max)
        syn = SynapseNominals(r_f=r_f, r_m1=r_m1, r_m2=stuck_m2)
        return syn, weight_from_resistances(syn), False
    # stuck_m1 set: w = r_f/s - r_f/r_m2  ->  r_m2 = r_f / (r_f/s - w)
    denom = r_f / stuck_m1 - target_w
    r_m2 = r_f / denom if denom > 0 else rng.r_max
    r_m2 = min(max(r_m2, rng.r_min), rng.r_max)
    syn = SynapseNominals(r_f=r_f, r_m1=stuck_m1, r_m2=r_m2)
    return syn, weight_from_resistances(syn), False
