"""Single-memristor model: Ohmic read, pulse response, write-verify programming.

The pulse response is phenomenological: a SET pulse drops the device to the
low-resistance state, RESET pulses of increasing amplitude raise it
monotonically toward the high-resistance state, and every pulse outcome
carries a multiplicative lognormal spread.  Programming wraps this in an
active-feedback loop that reads the device after each pulse and re-SETs on
overshoot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from .errors import (
    AboveThresholdError,
    AmplitudeOutOfRangeError,
    ProgrammingFailedError,
    StuckDeviceError,
)

MAX_PROGRAM_AMPLITUDE = 3.0


@dataclass
class DeviceParams:
    """Electrical and programming parameters of one memristive device."""

    r_lrs_nominal: float = 10e3
    r_hrs_nominal: float = 60e3
    v_threshold: float = 1.5
    v_set: float = -3.0
    ramp_range: tuple[float, float] = (1.5, 3.0)
    ramp_step: float | None = None
    ramp_gamma: float = 1.0
    v_read: float = 0.5
    program_tolerance: float = 0.15
    response_noise_sigma: float = 0.05
    max_program_iterations: int = 50

    def __post_init__(self):
        if not (0 < self.r_lrs_nominal < self.r_hrs_nominal):
            raise ValueError("need 0 < r_lrs_nominal < r_hrs_nominal")
        a_min, a_max = self.ramp_range
        if a_min < self.v_threshold:
            raise ValueError("ramp lower bound must be >= v_threshold")
        if a_max > MAX_PROGRAM_AMPLITUDE:
            raise ValueError(f"ramp upper bound must be <= {MAX_PROGRAM_AMPLITUDE} V")
        if not 0 < self.program_tolerance < 1:
            raise ValueError("program_tolerance must be in (0, 1)")
        if self.response_noise_sigma < 0:
            raise ValueError("response_noise_sigma must be >= 0")
        if self.max_program_iterations < 1:
            raise ValueError("max_program_iterations must be >= 1")
        if self.ramp_step is None:
            self.ramp_step = (a_max - a_min) / 32
        if self.ramp_step <= 0:
            raise ValueError("ramp_step must be > 0")

    @property
    def r_floor(self) -> float:
        """Hard lower clamp on resistance (noise can undershoot the LRS target)."""
        return self.r_lrs_nominal * (1 - 3 * self.response_noise_sigma)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ramp_range"] = list(self.ramp_range)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceParams":
        d = dict(d)
        if "ramp_range" in d:
            d["ramp_range"] = tuple(d["ramp_range"])
        return cls(**d)


@dataclass
class MemristorCell:
    """One device: current resistance plus an optional stuck-at value."""

    resistance: float
    stuck: float | None = None

    def __post_init__(self):
        if self.stuck is not None:
            self.resistance = self.stuck


@dataclass
class ProgramLog:
    """Outcome of one write-verify run."""

    attempts: int
    pulses: int
    final_resistance: float
    success: bool
    target: float = field(default=float("nan"))

    def csv_row(self) -> tuple:
        return (self.target, self.final_resistance, self.attempts, self.pulses,
                int(self.success))


def read_current(cell: MemristorCell, v: float, params: DeviceParams) -> float:
    """Ohmic read; refuses voltages that could disturb the state."""
    if abs(v) >= params.v_threshold:
        raise AboveThresholdError(
            f"|{v}| V read would disturb state (threshold {params.v_threshold} V)"
        )
    return v / cell.resistance


def _settle(cell: MemristorCell, value: float, params: DeviceParams) -> MemristorCell:
    if cell.stuck is not None:
        cell.resistance = cell.stuck
        return cell
    cell.resistance = float(min(max(value, params.r_floor), params.r_hrs_nominal))
    return cell


def _noise(params: DeviceParams, rng: np.random.Generator) -> float:
    if params.response_noise_sigma == 0:
        return 1.0
    return float(np.exp(rng.normal(0.0, params.response_noise_sigma)))


def set_pulse(cell: MemristorCell, params: DeviceParams,
              rng: np.random.Generator) -> MemristorCell:
    """Drop the device to the low-resistance state (current-limited pulse)."""
    return _settle(cell, params.r_lrs_nominal * _noise(params, rng), params)


def ramp_response(amplitude: float, params: DeviceParams) -> float:
    """Deterministic resistance reached by a RESET pulse of given amplitude.

    Monotone power-law map from the ramp voltage span onto the resistance
    window; the exponent reshapes where the resolution concentrates.
    """
    a_min, a_max = params.ramp_range
    u = (amplitude - a_min) / (a_max - a_min)
    span = params.r_hrs_nominal - params.r_lrs_nominal
    return params.r_lrs_nominal + span * u ** params.ramp_gamma


def reset_pulse(cell: MemristorCell, amplitude: float, params: DeviceParams,
                rng: np.random.Generator) -> MemristorCell:
    """Raise the resistance according to the pulse amplitude."""
    a_min, a_max = params.ramp_range
    if not a_min <= amplitude <= a_max:
        raise AmplitudeOutOfRangeError(
            f"{amplitude} V outside ramp range [{a_min}, {a_max}] V"
        )
    return _settle(cell, ramp_response(amplitude, params) * _noise(params, rng), params)


def ramp_amplitudes(params: DeviceParams) -> np.ndarray:
    """The RESET amplitude ladder, low to high, endpoint included."""
    a_min, a_max = params.ramp_range
    n = int(np.floor((a_max - a_min) / params.ramp_step + 1e-9))
    amps = a_min + params.ramp_step * np.arange(n + 1)
    if amps[-1] < a_max - 1e-12:
        amps = np.append(amps, a_max)
    return np.minimum(amps, a_max)


def program_to(
    cell: MemristorCell,
    target: float,
    params: DeviceParams,
    rng: np.random.Generator,
    read_resistance: Callable[[MemristorCell], float] | None = None,
    tolerance: float | None = None,
) -> ProgramLog:
    """Active-feedback write-verify: SET, ramp up, re-SET on overshoot.

    ``read_resistance`` lets callers model an indirect read-back (e.g. the
    array's summing-amplifier path); the default reads the device exactly.
    ``tolerance`` overrides the params band, used when the read-back itself
    has a known error budget to absorb.
    """
    if not params.r_lrs_nominal <= target <= params.r_hrs_nominal:
        raise ValueError(
            f"target {target} outside [{params.r_lrs_nominal}, {params.r_hrs_nominal}]"
        )
    tol = params.program_tolerance if tolerance is None else tolerance
    if read_resistance is None:
        read_resistance = lambda c: params.v_read / read_current(c, params.v_read, params)

    def in_band(r):
        return abs(r - target) <= tol * target

    if cell.stuck is not None:
        measured = read_resistance(cell)
        if in_band(measured):
            return ProgramLog(attempts=0, pulses=0, final_resistance=cell.resistance,
                              success=True, target=target)
        raise StuckDeviceError(
            f"stuck at {cell.resistance:.4g} ohm, target {target:.4g} ohm "
            f"outside +/-{tol:.0%}"
        )

    amplitudes = ramp_amplitudes(params)
    pulses = 0
    for attempt in range(1, params.max_program_iterations + 1):
        set_pulse(cell, params, rng)
        measured = read_resistance(cell)
        if in_band(measured):
            return ProgramLog(attempts=attempt, pulses=pulses,
                              final_resistance=cell.resistance, success=True,
                              target=target)
        for amplitude in amplitudes:
            reset_pulse(cell, amplitude, params, rng)
            pulses += 1
            measured = read_resistance(cell)
            if in_band(measured):
                return ProgramLog(attempts=attempt, pulses=pulses,
                                  final_resistance=cell.resistance, success=True,
                                  target=target)
            if measured > target * (1 + tol):
                break  # overshot the band: back to LRS and try again
    raise ProgrammingFailedError(
        f"no state within +/-{tol:.0%} of {target:.4g} ohm after "
        f"{params.max_program_iterations} SET cycles"
    )
