"""Single-memristor model: Ohmic read, pulse response, write-verify programming.

The pulse response is phenomenological: a SET pulse drops the device to the
low-resistance state, RESET pulses of increasing amplitude raise it
monotonically toward the high-resistance state, and every pulse outcome
carries a multiplicative lognormal spread.  Programming wraps this in an
active-feedback loop that reads the device after each pulse and re-SETs on
overshoot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    AboveThresholdError,
    AmplitudeOutOfRangeError,
    ProgrammingFailedError,
)
from .stats import check_ranges, is_real

MAX_PROGRAM_AMPLITUDE = 3.0


@dataclass
class DeviceParams:
    """Electrical and programming parameters of one memristive device:
    plain data, whose rules :func:`check_device` states; the constructor
    only fills in the default ``ramp_step``, 1/32 of a (low, high) ramp."""

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
        pair = self.ramp_range
        if (self.ramp_step is None and type(pair) is tuple and len(pair) == 2
                and all(map(is_real, pair))):
            self.ramp_step = (pair[1] - pair[0]) / 32

    @property
    def r_floor(self) -> float:
        """Hard lower clamp on resistance (noise can undershoot the LRS target)."""
        return self.r_lrs_nominal * (1 - 3 * self.response_noise_sigma)


def check_device(params: DeviceParams) -> None:
    """Raise ValueError, naming the setting first, unless every field keeps
    its rule below (a NaN ``v_threshold`` or ``v_set`` would pass every
    bias check); each rule reads only fields checked before it."""
    r_lrs, v_t = params.r_lrs_nominal, params.v_threshold
    positive = ("finite and > 0", lambda v: 0 < v < np.inf)
    rules = {
        "r_lrs_nominal": positive,
        "r_hrs_nominal": (f"finite and > r_lrs_nominal ({r_lrs!r})",
                          lambda v: r_lrs < v < np.inf),
        "v_threshold": positive,
        "v_set": (f"finite and <= -v_threshold ({v_t!r})",
                  lambda v: -np.inf < v <= -v_t),
        "ramp_range": (f"a (low, high) tuple with v_threshold ({v_t!r}) <= "
                       f"low < high <= {MAX_PROGRAM_AMPLITUDE}",
                       lambda v: type(v) is tuple and len(v) == 2
                       and v_t <= v[0] < v[1] <= MAX_PROGRAM_AMPLITUDE),
        "ramp_step": positive, "ramp_gamma": positive,
        "v_read": (f"in (0, v_threshold = {v_t!r})", lambda v: 0 < v < v_t),
        "program_tolerance": ("in (0, 1)", lambda v: 0 < v < 1),
        "response_noise_sigma": ("finite and >= 0", lambda v: 0 <= v < np.inf),
        "max_program_iterations": ("an int >= 1",
                                   lambda v: type(v) is int and v >= 1),
    }
    check_ranges({name: getattr(params, name) for name in rules}, rules)


@dataclass
class MemristorCell:
    """One device: its current resistance."""

    resistance: float


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


def _clamped(value, params: DeviceParams):
    """Resistance a pulse leaves: its response clamped to the device window."""
    return np.minimum(np.maximum(value, params.r_floor), params.r_hrs_nominal)


def _spread(params: DeviceParams, rng: np.random.Generator, size=None):
    """Multiplicative lognormal factor of one pulse outcome (or ``size`` of
    them); noiseless devices draw nothing."""
    if params.response_noise_sigma == 0:
        return 1.0
    return np.exp(rng.normal(0.0, params.response_noise_sigma, size))


def _settle(cell: MemristorCell, value, params: DeviceParams) -> MemristorCell:
    cell.resistance = float(_clamped(value, params))
    return cell


def set_pulse(cell: MemristorCell, params: DeviceParams,
              rng: np.random.Generator) -> MemristorCell:
    """Drop the device to the low-resistance state (current-limited pulse)."""
    return _settle(cell, params.r_lrs_nominal * _spread(params, rng), params)


def ramp_response(amplitude, params: DeviceParams):
    """Deterministic resistance reached by a RESET pulse of given amplitude
    (elementwise over an array of amplitudes).

    Monotone power-law map from the ramp voltage span onto the resistance
    window; the exponent reshapes where the resolution concentrates.
    ``np.power`` gives a scalar and an array element the same bits.
    """
    a_min, a_max = params.ramp_range
    u = (amplitude - a_min) / (a_max - a_min)
    span = params.r_hrs_nominal - params.r_lrs_nominal
    return params.r_lrs_nominal + span * np.power(u, params.ramp_gamma)


def reset_pulse(cell: MemristorCell, amplitude: float, params: DeviceParams,
                rng: np.random.Generator) -> MemristorCell:
    """Raise the resistance according to the pulse amplitude."""
    a_min, a_max = params.ramp_range
    if not a_min <= amplitude <= a_max:
        raise AmplitudeOutOfRangeError(
            f"{amplitude} V outside ramp range [{a_min}, {a_max}] V"
        )
    return _settle(cell, ramp_response(amplitude, params) * _spread(params, rng),
                   params)


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
    read_resistance: Callable[[np.ndarray], np.ndarray] | None = None,
    tolerance: float | None = None,
) -> ProgramLog:
    """Active-feedback write-verify: SET, ramp up, re-SET on overshoot.

    ``read_resistance`` maps an array of device resistances to the array
    of values the verify read reports, elementwise; callers use it to
    model an indirect read-back (e.g. the array's summing-amplifier path),
    and the default is the exact Ohmic read at ``v_read``, refused when it
    could disturb the state.  ``tolerance`` overrides the params band, used
    when the read-back itself has a known error budget to absorb.

    A pulse's outcome does not depend on the state before it, so each
    attempt is one array pass: the SET pulse and every RESET rung are
    simulated and read back together, and the attempt ends at the first
    pulse read in band or, on the ramp, above it.  The generator is then
    wound back and advanced by exactly the draws of the pulses applied,
    so it ends where a pulse-by-pulse loop would leave it.  Without
    response noise every attempt repeats the first, so a first attempt
    that misses the band raises at once.
    """
    if not params.r_lrs_nominal <= target <= params.r_hrs_nominal:
        raise ValueError(
            f"target {target} outside [{params.r_lrs_nominal}, {params.r_hrs_nominal}]"
        )
    tol = params.program_tolerance if tolerance is None else tolerance
    if read_resistance is None:
        v = params.v_read
        if abs(v) >= params.v_threshold:
            raise AboveThresholdError(f"|{v}| V read would disturb state "
                                      f"(threshold {params.v_threshold} V)")

        def read_resistance(r):  # the exact Ohmic read: v over the current
            return v / (v / r)

    # pulse 0 is the SET, pulse i the RESET at the i-th ramp amplitude
    response = np.concatenate(([params.r_lrs_nominal],
                               ramp_response(ramp_amplitudes(params), params)))
    noiseless = params.response_noise_sigma == 0
    pulses = 0
    for attempt in range(1, params.max_program_iterations + 1):
        state = rng.bit_generator.state
        outcomes = _clamped(response * _spread(params, rng, response.size), params)
        measured = read_resistance(outcomes)
        hit = np.abs(measured - target) <= tol * target
        stop = hit | (measured > target * (1 + tol))
        stop[0] = hit[0]  # a SET read above the band still goes on to the ramp
        last = int(stop.argmax()) if stop.any() else response.size - 1
        rng.bit_generator.state = state
        _spread(params, rng, last + 1)
        cell.resistance = float(outcomes[last])
        pulses += last
        if hit[last]:
            return ProgramLog(attempts=attempt, pulses=pulses,
                              final_resistance=cell.resistance, success=True,
                              target=target)
        if noiseless:
            break
    raise ProgrammingFailedError(
        f"no state within +/-{tol:.0%} of {target:.4g} ohm after "
        f"{attempt} of {params.max_program_iterations} SET cycles"
        + (" (without response noise the rest would repeat it)"
           if attempt < params.max_program_iterations else "")
    )
