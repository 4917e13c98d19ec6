"""Passive 16x16 crossbar plus its amplifier chain.

An array is a resistance matrix plus a stuck matrix.  Each row feeds an
inverting summing amplifier (feedback resistor r_f); adjacent row pairs
(2j, 2j+1) drive a differential stage realizing one signed synapse per
column, followed by an activation amplifier that saturates at U_SAT.
Programming a cell uses bias-voltage maps, proven once per array, that
keep every half-selected device below the switching threshold, and reads
the device back through the summing amplifier with a quantizing ADC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import device as dev
from .device import DeviceParams, MemristorCell, ProgramLog, check_device
from .errors import (
    BiasViolationError,
    InputOverrangeError,
    OddRowCountError,
    ShapeMismatchError,
    StuckDeviceError,
)
from .reports import read_csv_columns, write_csv
from .stats import check_ranges, quantize_half_up

U_SAT = 1.0      # activation amplifier saturation, the network model's clip


@dataclass
class CrossbarConfig:
    """Array geometry and amplifier-chain nominals: plain data, whose
    rules :func:`check_crossbar` and ``netmodel.check_unity_chain`` state."""

    rows: int = 16
    cols: int = 16
    r_f: float = 100e3
    r_1: float = 100e3
    r_2: float = 100e3
    u_rail: float = 15.0     # summing/differential stage supply swing
    u_in_max: float = 1.0
    adc_step: float = 0.0025
    adc_range: float = 5.0

    @property
    def k_diff(self) -> float:
        return self.r_2 / self.r_1


class Crossbar:
    """Resistance matrix, stuck matrix (the frozen value of each stuck cell,
    NaN elsewhere) and the shared amplifier configuration."""

    def __init__(self, config: CrossbarConfig, device: DeviceParams,
                 resistance: np.ndarray | None = None,
                 stuck: np.ndarray | None = None):
        self.config = config
        self.device = device
        check_device(device)
        check_crossbar(config, device)
        shape = (config.rows, config.cols)
        self.resistance = (np.full(shape, device.r_hrs_nominal)
                           if resistance is None
                           else np.array(resistance, dtype=float))
        self.stuck = (np.full(shape, np.nan) if stuck is None
                      else np.array(stuck, dtype=float))
        if self.resistance.shape != shape or self.stuck.shape != shape:
            raise ValueError("array dimensions do not match config")
        frozen = ~np.isnan(self.stuck)
        self.resistance[frozen] = self.stuck[frozen]
        # A map's drop at a cell depends only on whether the cell shares the
        # target's row or column, so every target's non-target drops are a
        # permutation of those at (0, 0): one target proves the whole array,
        # and one stacked map proves every rung of the RESET ladder.
        for mode, amplitude in (("SET", None), ("READ", None),
                                ("RESET", dev.ramp_amplitudes(device))):
            check_bias(bias_assignment(self, (0, 0), mode, amplitude),
                       device.v_threshold)


def check_crossbar(config: CrossbarConfig, device: DeviceParams) -> None:
    """Raise ValueError, naming the setting first, unless the amplifier and
    ADC fields keep their rules below; a data-signal limit ``u_in_max``
    below the threshold of ``device``, which passed ``check_device``,
    lets no data voltage switch a cell."""
    v_t = device.v_threshold
    positive = ("finite and > 0", lambda v: 0 < v < math.inf)
    rules = {
        "r_f": positive, "r_1": positive, "r_2": positive,
        "u_rail": (f"finite and >= U_SAT ({U_SAT})",
                   lambda v: U_SAT <= v < math.inf),
        "u_in_max": (f"> 0 and below the device threshold {v_t!r}",
                     lambda v: 0 < v < v_t),
        "adc_step": positive, "adc_range": positive,
    }
    check_ranges({name: getattr(config, name) for name in rules}, rules)


@dataclass
class BiasAssignment:
    """Full row/column voltage map for one programming or read operation,
    or a stack of them (leading axis) for a ladder of RESET amplitudes."""

    row_voltages: np.ndarray
    col_voltages: np.ndarray
    target: tuple[int, int]
    mode: str                    # "SET" | "RESET" | "READ"

    def drops(self) -> np.ndarray:
        """Voltage across each cell, column line minus row line."""
        return self.col_voltages[..., None, :] - self.row_voltages[..., :, None]

    def max_nontarget_drop(self) -> float:
        """Largest drop on a cell other than the target, over every map."""
        d = np.abs(self.drops())
        r, c = self.target
        d[..., r, c] = 0.0
        return float(d.max())


def bias_assignment(xbar: Crossbar, target: tuple[int, int], mode: str,
                    amplitude: float | None = None) -> BiasAssignment:
    """Voltage map neutralizing sneak currents for the chosen operation.

    SET drives the target column with the SET pulse while all other rows
    get the same bias (zeroing drops in that column) and other columns sit
    at half amplitude.  RESET biases all non-selected lines to half the
    maximum pulse.  READ grounds everything except the driven column.
    An array of RESET amplitudes gives one stacked map per amplitude.
    """
    r, c = target
    cfg, dp = xbar.config, xbar.device
    if not (0 <= r < cfg.rows and 0 <= c < cfg.cols):
        raise ValueError(f"target {target} outside {cfg.rows}x{cfg.cols} grid")
    stack = np.shape(amplitude) if mode == "RESET" else ()
    rows = np.zeros(stack + (cfg.rows,))
    cols = np.zeros(stack + (cfg.cols,))
    if mode == "SET":
        cols[:] = -dp.v_threshold
        cols[c] = dp.v_set
        rows[:] = dp.v_set
        rows[r] = 0.0
    elif mode == "RESET":
        a = dev.MAX_PROGRAM_AMPLITUDE if amplitude is None else amplitude
        cols[...] = dp.v_threshold
        cols[..., c] = a
        rows[...] = dp.v_threshold
        rows[..., r] = 0.0
    elif mode == "READ":
        cols[c] = dp.v_read
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return BiasAssignment(row_voltages=rows, col_voltages=cols, target=target,
                          mode=mode)


def check_bias(assignment: BiasAssignment, v_threshold: float) -> None:
    worst = assignment.max_nontarget_drop()
    if worst > v_threshold + 1e-12:
        raise BiasViolationError(
            f"{assignment.mode} map exposes a half-selected cell to "
            f"{worst:.3g} V (limit {v_threshold} V)"
        )


def row_summed_voltage(xbar: Crossbar, inputs: np.ndarray) -> np.ndarray:
    """Summing-amplifier output of every row, clipped at the amplifier swing."""
    cfg = xbar.config
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (cfg.cols,):
        raise ValueError(f"expected {cfg.cols} inputs, got shape {inputs.shape}")
    if np.abs(inputs).max() > cfg.u_in_max * (1 + 1e-12):
        raise InputOverrangeError(f"input exceeds +/-{cfg.u_in_max} V data range")
    u = (inputs[None, :] / xbar.resistance).sum(axis=1)
    u *= -cfg.r_f
    return _clamp(u, cfg.u_rail)


def _clamp(u, limit: float):
    """Clip ``u`` to +/-``limit`` in place: the bits and NaN handling of
    ``np.clip``, without its per-call overhead."""
    np.maximum(u, -limit, out=u)
    return np.minimum(u, limit, out=u)


def layer_forward(xbar: Crossbar, inputs: np.ndarray,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """One crossbar layer: differential pairs and the activation clamp.

    ``bias`` (one value per row pair) is summed into the difference stage
    ahead of the saturating amplifier, mirroring a digitally sourced offset
    at the same node as the array contribution.
    """
    cfg = xbar.config
    if cfg.rows % 2 != 0:
        raise OddRowCountError("differential pairing needs an even row count")
    sums = row_summed_voltage(xbar, inputs)
    diff = sums[1::2] - sums[0::2]
    diff *= cfg.k_diff
    if bias is not None:
        bias = np.asarray(bias, dtype=float)
        if bias.shape != (cfg.rows // 2,):
            raise ShapeMismatchError(
                f"bias needs shape ({cfg.rows // 2},), got {bias.shape}")
        diff += bias
    # the difference stage clips at the rail, the activation at U_SAT <=
    # u_rail, so the activation clamp alone gives the same bits
    return _clamp(diff, U_SAT)


def synapse_pairs(matrix: np.ndarray, n_in: int, n_out: int):
    """The (n_in, n_out) views of the r_m1 and r_m2 entries of an array-shaped
    ``matrix``: synapse (i, j) sits in column i, its r_m1 in row 2j and its
    r_m2 in row 2j + 1.  Writing to a view writes to ``matrix``."""
    return matrix[0:2 * n_out:2, :n_in].T, matrix[1:2 * n_out:2, :n_in].T


def synapse_weights(xbar: Crossbar, n_in: int, n_out: int) -> np.ndarray:
    """The (n_in, n_out) weights the row pairs of ``xbar`` realize."""
    r_m1, r_m2 = synapse_pairs(xbar.resistance, n_in, n_out)
    return xbar.config.r_f / r_m1 - xbar.config.r_f / r_m2


def adc_quantize(u, step: float, full_scale: float):
    """Half-up quantization to the converter grid, clamped to its range
    (elementwise)."""
    return quantize_half_up(np.minimum(np.maximum(u, -full_scale), full_scale),
                            step)


def inferred_resistance(u_out, u_test: float, r_f: float):
    """Resistance from the summing-amplifier read-back voltage
    (elementwise; infinite where no positive voltage was read)."""
    u_out = np.asarray(u_out, dtype=float)
    with np.errstate(divide="ignore"):
        r = u_test * r_f / u_out
    return np.where(u_out <= 0, np.inf, r)[()]


def _array_read(xbar: Crossbar):
    """Read-back of an array of cell resistances: test pulse, amplifier,
    ADC, resistance formula."""
    cfg, dp = xbar.config, xbar.device

    def read(resistance: np.ndarray) -> np.ndarray:
        u_out = np.abs(row_summed_voltage_for_read(resistance, cfg, dp))
        u_q = adc_quantize(u_out, cfg.adc_step, cfg.adc_range)
        return inferred_resistance(u_q, dp.v_read, cfg.r_f)

    return read


def row_summed_voltage_for_read(resistance, cfg: CrossbarConfig,
                                dp: DeviceParams):
    """Summing-amplifier output when each given resistance is read on its
    own (elementwise), clipped at the amplifier swing."""
    # single driven column, all others grounded: only the target cell conducts
    u = -cfg.r_f * dp.v_read / resistance
    return np.minimum(np.maximum(u, -cfg.u_rail), cfg.u_rail)


def read_back_error_bound(target: float, cfg: CrossbarConfig,
                          dp: DeviceParams) -> float:
    """Worst-case resistance error the quantized read path can introduce."""
    r_top = target * (1 + dp.program_tolerance)
    return r_top ** 2 * (cfg.adc_step / 2) / (dp.v_read * cfg.r_f)


def program_cell(xbar: Crossbar, target: tuple[int, int], target_r: float,
                 rng: np.random.Generator) -> ProgramLog:
    """Write-verify one cell in the array context.

    The bias maps were proven when the array was built, and the verify
    step goes through the amplifier/ADC read path.  The tolerance band is
    tightened by the read-back error bound so the true resistance lands
    inside the requested band.  A frozen cell takes no pulse: it succeeds
    when its read puts it in band and raises StuckDeviceError otherwise.
    """
    cfg, dp = xbar.config, xbar.device
    r, c = target
    if not (0 <= r < cfg.rows and 0 <= c < cfg.cols):
        raise ValueError(f"target {target} outside {cfg.rows}x{cfg.cols} grid")
    margin = read_back_error_bound(target_r, cfg, dp) / target_r
    tol = max(dp.program_tolerance - margin, dp.program_tolerance / 2)
    read = _array_read(xbar)
    stuck = float(xbar.stuck[r, c])
    if not math.isnan(stuck):
        if abs(read(np.array([stuck]))[0] - target_r) <= tol * target_r:
            return ProgramLog(attempts=0, pulses=0, final_resistance=stuck,
                              success=True, target=target_r)
        raise StuckDeviceError(f"stuck at {stuck:.4g} ohm, target "
                               f"{target_r:.4g} ohm outside +/-{tol:.0%}")
    cell = MemristorCell(float(xbar.resistance[r, c]))
    log = dev.program_to(cell, target_r, dp, rng, read_resistance=read,
                         tolerance=tol)
    xbar.resistance[r, c] = cell.resistance
    return log


def two_layer_forward(xbar1: Crossbar, xbar2: Crossbar, b_hidden: np.ndarray,
                      b_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Full circuit inference: two arrays with digitally added biases.

    Biases enter each difference stage ahead of its saturating amplifier;
    a layer has one output per bias.  The hidden-layer output is re-emitted
    through the data DACs, so it is clamped to the data-voltage range
    before entering the second array.
    """
    cfg1, n_hidden, n_out = xbar1.config, len(b_hidden), len(b_out)
    bias1 = np.zeros(cfg1.rows // 2)
    bias1[:n_hidden] = np.asarray(b_hidden, dtype=float)
    hidden = _clamp(layer_forward(xbar1, x, bias1)[:n_hidden], cfg1.u_in_max)
    padded = np.zeros(xbar2.config.cols)
    padded[:n_hidden] = hidden
    bias2 = np.zeros(xbar2.config.rows // 2)
    bias2[:n_out] = np.asarray(b_out, dtype=float)
    return layer_forward(xbar2, padded, bias2)[:n_out]


def save_crossbar_csv(xbar: Crossbar, path) -> None:
    write_csv(path, ["row", "col", "resistance_ohm", "stuck_flag", "stuck_ohm"],
              ((r, c, ohm) + ((0, "") if np.isnan(stuck) else (1, stuck))
               for r, (ohms, stucks) in enumerate(zip(xbar.resistance.tolist(),
                                                      xbar.stuck.tolist()))
               for c, (ohm, stuck) in enumerate(zip(ohms, stucks))))


def load_crossbar_csv(path, config: CrossbarConfig, device: DeviceParams) -> Crossbar:
    """Read an array that ``save_crossbar_csv`` wrote; every cell must be
    listed exactly once."""
    shape = (config.rows, config.cols)
    resistance, stuck = np.full(shape, np.nan), np.full(shape, np.nan)
    seen = np.zeros(shape, dtype=bool)
    cols = read_csv_columns(path, {"row": int, "col": int,
                                   "resistance_ohm": float, "stuck_flag": int,
                                   "stuck_ohm": str})
    for r, c, ohm, flag, stuck_ohm in zip(*cols.values()):
        if not (0 <= r < config.rows and 0 <= c < config.cols):
            raise ShapeMismatchError(
                f"{path}: cell ({r}, {c}) outside the "
                f"{config.rows}x{config.cols} array")
        if seen[r, c]:
            raise ShapeMismatchError(f"{path}: cell ({r}, {c}) listed twice")
        seen[r, c] = True
        resistance[r, c] = ohm
        if flag:
            stuck[r, c] = float(stuck_ohm)
    if not seen.all():
        r, c = np.argwhere(~seen)[0]
        raise ShapeMismatchError(f"{path}: cell ({r}, {c}) missing")
    return Crossbar(config, device, resistance, stuck)
