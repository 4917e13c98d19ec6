"""Single-device behavior: reads, pulses, and the write-verify loop."""

import numpy as np
import pytest

from memxbar.crossbar import (Crossbar, CrossbarConfig, program_cell,
                              read_back_error_bound)
from memxbar.device import (DeviceParams, MemristorCell, ProgramLog,
                            program_to, ramp_amplitudes, ramp_response,
                            reset_pulse, set_pulse)
from memxbar.errors import (AboveThresholdError, AmplitudeOutOfRangeError,
                            ProgrammingFailedError, StuckDeviceError)


def quiet_params(**kw):
    kw.setdefault("response_noise_sigma", 0.0)
    return DeviceParams(**kw)


def test_set_pulse_reaches_lrs():
    params = quiet_params()
    cell = MemristorCell(resistance=55e3)
    set_pulse(cell, params, np.random.default_rng(0))
    assert cell.resistance == params.r_lrs_nominal


def test_reset_pulse_rejects_out_of_ramp_amplitude():
    params = quiet_params()
    cell = MemristorCell(resistance=10e3)
    rng = np.random.default_rng(0)
    with pytest.raises(AmplitudeOutOfRangeError):
        reset_pulse(cell, 1.0, params, rng)
    with pytest.raises(AmplitudeOutOfRangeError):
        reset_pulse(cell, 3.1, params, rng)


def test_ramp_response_is_monotone_and_spans_window():
    params = quiet_params()
    amps = ramp_amplitudes(params)
    values = [ramp_response(a, params) for a in amps]
    assert values[0] == params.r_lrs_nominal
    assert values[-1] == params.r_hrs_nominal
    assert all(b > a for a, b in zip(values, values[1:]))


def test_ramp_amplitudes_ladder():
    params = quiet_params(ramp_step=0.25)
    amps = ramp_amplitudes(params)
    assert amps[0] == params.ramp_range[0]
    assert amps[-1] == params.ramp_range[1]
    assert np.allclose(np.diff(amps), 0.25)


def test_program_lands_in_band():
    params = DeviceParams()
    rng = np.random.default_rng(7)
    for target in (12e3, 25e3, 48e3):
        cell = MemristorCell(resistance=params.r_hrs_nominal)
        log = program_to(cell, target, params, rng)
        assert log.success
        assert abs(cell.resistance - target) <= params.program_tolerance * target


def test_program_noiseless_takes_single_attempt():
    params = quiet_params()
    rng = np.random.default_rng(0)
    cell = MemristorCell(resistance=params.r_hrs_nominal)
    log = program_to(cell, 30e3, params, rng)
    assert log.attempts == 1


def test_program_rejects_out_of_window_target():
    params = DeviceParams()
    cell = MemristorCell(resistance=30e3)
    with pytest.raises(ValueError):
        program_to(cell, 5e3, params, np.random.default_rng(0))


def test_program_gives_up_eventually():
    # a huge response spread makes the band unreachable often enough
    params = DeviceParams(response_noise_sigma=0.8, max_program_iterations=2)
    cell = MemristorCell(resistance=params.r_hrs_nominal)
    with pytest.raises(ProgrammingFailedError):
        program_to(cell, 12e3, params, np.random.default_rng(3),
                   tolerance=0.001)


def test_program_is_seed_deterministic():
    params = DeviceParams()
    logs = []
    for _ in range(2):
        cell = MemristorCell(resistance=params.r_hrs_nominal)
        logs.append(program_to(cell, 33e3, params, np.random.default_rng(42)))
    assert logs[0].final_resistance == logs[1].final_resistance
    assert logs[0].pulses == logs[1].pulses


@pytest.mark.parametrize("v_read", [1.5, -2.0])
def test_program_refuses_a_disturbing_read_voltage(v_read):
    params = DeviceParams(v_read=v_read)
    with pytest.raises(AboveThresholdError):
        program_to(MemristorCell(resistance=30e3), 30e3, params,
                   np.random.default_rng(0))


def reference_program_to(cell, target, params, rng, read=None, tolerance=None):
    """The pulse-by-pulse write-verify loop: one scalar draw, clamp and
    verify read per pulse.  ``read`` maps a cell to what its verify read
    reports; the default is the exact Ohmic read."""
    tol = params.program_tolerance if tolerance is None else tolerance
    if read is None:
        read = lambda c: params.v_read / (params.v_read / c.resistance)

    def pulse(response):
        if params.response_noise_sigma:
            response *= float(np.exp(rng.normal(0.0, params.response_noise_sigma)))
        cell.resistance = float(min(max(response, params.r_floor),
                                    params.r_hrs_nominal))

    def in_band(r):
        return abs(r - target) <= tol * target

    pulses = 0
    for attempt in range(1, params.max_program_iterations + 1):
        pulse(params.r_lrs_nominal)
        if in_band(read(cell)):
            return ProgramLog(attempt, pulses, cell.resistance, True, target)
        for amplitude in ramp_amplitudes(params):
            pulse(ramp_response(amplitude, params))
            pulses += 1
            measured = read(cell)
            if in_band(measured):
                return ProgramLog(attempt, pulses, cell.resistance, True, target)
            if measured > target * (1 + tol):
                break
    raise ProgrammingFailedError("no state in band")


def _outcome(program, cell, *args, **kw):
    """What a write-verify call leaves: its log or error type, the cell's
    resistance and the generator's state."""
    rng = args[2]
    try:
        result = program(cell, *args, **kw)
    except ProgrammingFailedError as exc:
        result = type(exc)
    return result, cell.resistance, rng.bit_generator.state


@pytest.mark.parametrize("params", [
    DeviceParams(),
    quiet_params(),
    DeviceParams(response_noise_sigma=0.2),
    DeviceParams(ramp_gamma=1.7, ramp_step=0.03, r_hrs_nominal=90e3),
    DeviceParams(r_hrs_nominal=300e3, ramp_step=1.5 / 128),
], ids=["default", "noiseless", "wide-spread", "gamma-1.7", "129-rungs"])
def test_program_matches_the_pulse_by_pulse_loop(params):
    attempts = []
    for seed in range(4):
        for target in (10e3, 12e3, 25e3, 47e3, params.r_hrs_nominal):
            for tolerance in (None, 0.01):
                got = _outcome(program_to, MemristorCell(params.r_hrs_nominal),
                               target, params, np.random.default_rng(seed),
                               tolerance=tolerance)
                ref = _outcome(reference_program_to,
                               MemristorCell(params.r_hrs_nominal), target,
                               params, np.random.default_rng(seed),
                               tolerance=tolerance)
                assert got == ref, (seed, target, tolerance)
                if isinstance(got[0], ProgramLog):
                    attempts.append(got[0].attempts)
    if params.response_noise_sigma:
        assert max(attempts) > 1   # the tight band forces re-SETs
    else:
        assert got[2] == np.random.default_rng(seed).bit_generator.state


def test_noiseless_program_gives_up_after_one_attempt():
    # without response noise every SET-and-ramp attempt repeats the first
    params = quiet_params()
    reads = []

    def read(r):
        reads.append(r.size)
        return params.v_read / (params.v_read / r)

    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    cell = MemristorCell(params.r_hrs_nominal)
    with pytest.raises(ProgrammingFailedError, match="after 1 of 50 SET"):
        program_to(cell, 25e3, params, rng, read_resistance=read,
                   tolerance=0.01)
    assert len(reads) == 1
    assert rng.bit_generator.state == state
    ref = _outcome(reference_program_to, MemristorCell(params.r_hrs_nominal),
                   25e3, params, np.random.default_rng(0), tolerance=0.01)
    assert ref == (ProgrammingFailedError, cell.resistance, state)


def test_program_failure_matches_the_pulse_by_pulse_loop():
    params = DeviceParams(response_noise_sigma=0.8, max_program_iterations=2)
    for seed in range(5):
        got = _outcome(program_to, MemristorCell(60e3), 12e3, params,
                       np.random.default_rng(seed), tolerance=0.001)
        ref = _outcome(reference_program_to, MemristorCell(60e3), 12e3, params,
                       np.random.default_rng(seed), tolerance=0.001)
        assert got[0] is ProgrammingFailedError
        assert got == ref


def reference_array_read(cfg, dp):
    """The scalar read-back: test pulse, clipped amplifier, half-up ADC,
    resistance formula."""
    def read(cell):
        u = -cfg.r_f * dp.v_read / cell.resistance
        u = abs(float(min(max(u, -cfg.u_rail), cfg.u_rail)))
        u = min(max(u, -cfg.adc_range), cfg.adc_range)
        u_q = float(np.floor(u / cfg.adc_step + 0.5) * cfg.adc_step)
        return float("inf") if u_q <= 0 else dp.v_read * cfg.r_f / u_q
    return read


def reference_program_cell(xbar, target, target_r, rng):
    """A frozen cell takes no pulse: free when its read is in band, refused
    otherwise; any other cell runs the pulse-by-pulse loop."""
    cfg, dp = xbar.config, xbar.device
    r, c = target
    margin = read_back_error_bound(target_r, cfg, dp) / target_r
    tol = max(dp.program_tolerance - margin, dp.program_tolerance / 2)
    read = reference_array_read(cfg, dp)
    if not np.isnan(xbar.stuck[r, c]):
        cell = MemristorCell(float(xbar.stuck[r, c]))
        if abs(read(cell) - target_r) <= tol * target_r:
            return ProgramLog(0, 0, cell.resistance, True, target_r)
        raise StuckDeviceError("stuck out of band")
    cell = MemristorCell(float(xbar.resistance[r, c]))
    log = reference_program_to(cell, target_r, dp, rng, read=read,
                               tolerance=tol)
    xbar.resistance[r, c] = cell.resistance
    return log


@pytest.mark.parametrize("config", [CrossbarConfig(),
                                    CrossbarConfig(adc_step=0.05)],
                         ids=["default-adc", "coarse-adc"])
def test_program_cell_matches_the_pulse_by_pulse_loop(config):
    """One generator programs a run of cells, a stuck one among them."""
    stuck = np.full((16, 16), np.nan)
    stuck[2, 3], stuck[5, 1] = 31e3, 55e3
    cells = [((0, 0), 12e3), ((2, 3), 30e3), ((4, 7), 44e3), ((5, 1), 20e3),
             ((9, 9), 10.5e3), ((15, 15), 59e3), ((1, 2), 27e3)]
    xbars = [Crossbar(config, DeviceParams(), stuck=stuck) for _ in range(2)]
    rngs = [np.random.default_rng(11) for _ in range(2)]
    results = {}
    for target, target_r in cells:
        outcomes = []
        for program, xbar, rng in zip((program_cell, reference_program_cell),
                                      xbars, rngs):
            try:
                result = program(xbar, target, target_r, rng)
            except StuckDeviceError as exc:
                result = type(exc)
            outcomes.append((result, rng.bit_generator.state))
        assert outcomes[0] == outcomes[1], target
        results[target] = outcomes[0][0]
    assert results[2, 3].pulses == 0 and results[5, 1] is StuckDeviceError
    assert xbars[0].resistance.tobytes() == xbars[1].resistance.tobytes()
