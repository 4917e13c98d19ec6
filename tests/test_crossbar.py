"""Array-level circuit math: summing, differencing, biasing, cell access."""

import numpy as np
import pytest

from memxbar.crossbar import (Crossbar, CrossbarConfig, adc_quantize,
                              bias_assignment, check_bias, inferred_resistance,
                              layer_forward, load_crossbar_csv, program_cell,
                              row_summed_voltage, row_summed_voltage_for_read,
                              save_crossbar_csv, two_layer_forward)
from memxbar.device import DeviceParams
from memxbar.errors import (BiasViolationError, InputOverrangeError,
                            OddRowCountError, ShapeMismatchError)
from memxbar.mapping import ResistanceRange, compile_network
from memxbar.netmodel import MlpParams, forward

from helpers import ideal_crossbars


def small_xbar(matrix, **cfg_kw):
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    cfg = CrossbarConfig(rows=rows, cols=cols, **cfg_kw)
    return Crossbar.from_resistances(cfg, DeviceParams(), matrix)


def test_row_summed_voltage_matches_ohm_math():
    xbar = small_xbar([[100e3, 50e3], [200e3, 25e3]])
    u = row_summed_voltage(xbar, 0, np.array([0.4, -0.2]))
    assert u == pytest.approx(-100e3 * (0.4 / 100e3 - 0.2 / 50e3))


def test_row_sum_clips_at_rail():
    xbar = small_xbar(np.full((2, 16), 10e3))
    u = row_summed_voltage(xbar, 0, np.full(16, 1.0))
    assert u == -xbar.config.u_rail


def test_layer_forward_realizes_weight_dot_product():
    rrange = ResistanceRange(10e3, 300e3)
    w = np.array([[0.3, -0.5], [0.1, 0.2], [-0.4, 0.05]])   # (3 in, 2 out)
    net = compile_network(w, np.zeros((8, 4)), 100e3, rrange)
    m = np.empty((4, 3))
    for j in range(2):
        m[2 * j] = net.hidden.r_m1[:, j]
        m[2 * j + 1] = net.hidden.r_m2[:, j]
    xbar = small_xbar(m)
    x = np.array([0.5, -0.3, 0.8])
    out = layer_forward(xbar, x)
    assert np.allclose(out, np.clip(w.T @ x, -1, 1), atol=1e-12)


def test_layer_forward_bias_enters_before_saturation():
    # weight contribution 0.8, bias 0.5: must clip the sum, not add after
    rrange = ResistanceRange(10e3, 300e3)
    net = compile_network(np.array([[0.8]]), np.zeros((8, 4)), 100e3, rrange)
    xbar = small_xbar([[net.hidden.r_m1[0, 0]], [net.hidden.r_m2[0, 0]]])
    out = layer_forward(xbar, np.array([1.0]), bias=np.array([0.5]))
    assert out[0] == pytest.approx(1.0)


def test_layer_forward_bias_shape_checked():
    xbar = small_xbar(np.full((4, 2), 50e3))
    with pytest.raises(ShapeMismatchError):
        layer_forward(xbar, np.zeros(2), bias=np.zeros(3))


def test_layer_forward_needs_even_rows():
    xbar = small_xbar(np.full((3, 2), 50e3))
    with pytest.raises(OddRowCountError):
        layer_forward(xbar, np.zeros(2))


def test_inputs_are_range_checked():
    xbar = small_xbar(np.full((2, 2), 50e3))
    with pytest.raises(InputOverrangeError):
        layer_forward(xbar, np.array([0.0, 1.2]))
    with pytest.raises(ValueError):
        layer_forward(xbar, np.zeros(3))


def test_two_layer_forward_matches_model():
    rng = np.random.default_rng(18)
    w1 = rng.uniform(-1.5, 1.5, size=(16, 8))
    w2 = rng.uniform(-1.5, 1.5, size=(8, 4))
    b1 = rng.uniform(-0.3, 0.3, size=8)
    b2 = rng.uniform(-0.3, 0.3, size=4)
    params = MlpParams(w1, b1, w2, b2)
    config, device = CrossbarConfig(), DeviceParams(r_hrs_nominal=300e3)
    xb1, xb2 = ideal_crossbars(w1, w2, config, device,
                               ResistanceRange(10e3, 300e3))
    for _ in range(10):
        x = rng.uniform(0, 1, size=16)
        assert np.allclose(two_layer_forward(xb1, xb2, b1, b2, x),
                           forward(params, x), atol=1e-12)


def test_set_bias_map_shape():
    xbar = small_xbar(np.full((16, 16), 30e3))
    a = bias_assignment(xbar, (3, 7), "SET")
    drops = a.drops()
    assert drops[3, 7] == xbar.device.v_set
    assert a.max_nontarget_drop() <= xbar.device.v_threshold


def test_read_bias_map_only_drives_target_column():
    xbar = small_xbar(np.full((16, 16), 30e3))
    a = bias_assignment(xbar, (5, 2), "READ")
    assert a.drops()[5, 2] == xbar.device.v_read
    assert a.max_nontarget_drop() <= xbar.device.v_read


def test_reset_bias_map_uses_amplitude():
    xbar = small_xbar(np.full((16, 16), 30e3))
    a = bias_assignment(xbar, (0, 0), "RESET", amplitude=2.2)
    assert a.drops()[0, 0] == pytest.approx(2.2)
    assert a.max_nontarget_drop() <= xbar.device.v_threshold


def test_check_bias_flags_tight_threshold():
    xbar = small_xbar(np.full((16, 16), 30e3))
    a = bias_assignment(xbar, (0, 0), "SET")
    with pytest.raises(BiasViolationError):
        check_bias(a, 0.5)


def test_bias_assignment_validates_target():
    xbar = small_xbar(np.full((4, 4), 30e3))
    with pytest.raises(ValueError):
        bias_assignment(xbar, (4, 0), "SET")


def test_adc_quantize_half_up_and_clamp():
    assert adc_quantize(0.00124, 0.0025, 5.0) == 0.0
    assert adc_quantize(0.00126, 0.0025, 5.0) == pytest.approx(0.0025)
    assert adc_quantize(7.0, 0.0025, 5.0) == pytest.approx(5.0)


def test_read_back_inverts_summing_path():
    cfg, dp = CrossbarConfig(), DeviceParams()
    for r in (11e3, 27e3, 55e3):
        u = abs(row_summed_voltage_for_read(r, cfg, dp))
        assert inferred_resistance(u, dp.v_read, cfg.r_f) == pytest.approx(r)


def test_program_cell_lands_within_band():
    xbar = small_xbar(np.full((16, 16), 60e3))
    log = program_cell(xbar, (4, 9), 22e3, np.random.default_rng(2))
    assert log.success
    tol = xbar.device.program_tolerance
    assert abs(xbar.grid[4][9].resistance - 22e3) <= tol * 22e3


def test_crossbar_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    m = rng.uniform(10e3, 60e3, size=(16, 16))
    xbar = small_xbar(m)
    path = tmp_path / "array.csv"
    save_crossbar_csv(xbar, path)
    back = load_crossbar_csv(path, xbar.config, xbar.device)
    assert np.array_equal(back.resistance_matrix(), xbar.resistance_matrix())
