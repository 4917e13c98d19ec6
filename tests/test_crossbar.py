"""Array-level circuit math: summing, differencing, biasing, cell access."""

import numpy as np
import pytest

from memxbar.crossbar import (Crossbar, CrossbarConfig, adc_quantize,
                              bias_assignment, check_bias, inferred_resistance,
                              layer_forward, load_crossbar_csv, program_cell,
                              row_summed_voltage, row_summed_voltage_for_read,
                              save_crossbar_csv, synapse_pairs,
                              synapse_weights, two_layer_forward)
from memxbar.device import DeviceParams, ramp_amplitudes
from memxbar.errors import (BiasViolationError, InputOverrangeError,
                            OddRowCountError, ShapeMismatchError,
                            StuckDeviceError)
from memxbar.mapping import ResistanceRange, compile_network
from memxbar.netmodel import MlpParams, forward

from helpers import ideal_crossbars


def small_xbar(matrix, **cfg_kw):
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    cfg = CrossbarConfig(rows=rows, cols=cols, **cfg_kw)
    return Crossbar(cfg, DeviceParams(), matrix)


def test_row_summed_voltage_matches_ohm_math():
    xbar = small_xbar([[100e3, 50e3], [200e3, 25e3]])
    u = row_summed_voltage(xbar, np.array([0.4, -0.2]))[0]
    assert u == pytest.approx(-100e3 * (0.4 / 100e3 - 0.2 / 50e3))


def test_row_sum_clips_at_rail():
    xbar = small_xbar(np.full((2, 16), 10e3))
    u = row_summed_voltage(xbar, np.full(16, 1.0))[0]
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


def clip_reference_layer(xbar, inputs, bias=None):
    """``layer_forward`` as np.clip calls."""
    cfg = xbar.config
    sums = np.clip(-cfg.r_f * (inputs[None, :] / xbar.resistance).sum(axis=1),
                   -cfg.u_rail, cfg.u_rail)
    diff = cfg.k_diff * (sums[1::2] - sums[0::2])
    if bias is not None:
        diff = diff + bias
    diff = np.clip(diff, -cfg.u_rail, cfg.u_rail)
    return np.clip(diff, -1.0, 1.0)


def clip_reference_two_layer(xb1, xb2, b1, b2, x):
    """``two_layer_forward`` of a 16-8-4 network as np.clip calls."""
    hidden = clip_reference_layer(xb1, x, b1)
    padded = np.zeros(16)
    padded[:8] = np.clip(hidden, -xb1.config.u_in_max, xb1.config.u_in_max)
    return clip_reference_layer(xb2, padded, np.pad(b2, (0, 4)))[:4]


@pytest.mark.parametrize("cfg_kw", [
    {},
    {"u_rail": 1.5, "r_2": 150e3},   # the row-sum rail binds
], ids=["default", "low-rail"])
def test_forward_is_bit_equal_to_the_clip_formulas(cfg_kw):
    rng = np.random.default_rng(31)
    config = CrossbarConfig(**cfg_kw)
    xb1, xb2 = (Crossbar(config, DeviceParams(),
                         rng.uniform(10e3, 60e3, size=(16, 16)))
                for _ in range(2))
    x = rng.uniform(-1, 1, size=(60, 16))
    x[:10] = np.sign(x[:10])                 # at the data limit
    x[10, 3] = np.nan
    biases = [(rng.uniform(-3, 3, 8), rng.uniform(-3, 3, 4))   # saturating
              for _ in range(3)] + [(np.zeros(8), np.zeros(4))]
    rail_bound = 0
    for b1, b2 in biases:
        for pattern in x:
            got = layer_forward(xb1, pattern)
            assert got.tobytes() == clip_reference_layer(xb1, pattern).tobytes()
            got = two_layer_forward(xb1, xb2, b1, b2, pattern)
            ref = clip_reference_two_layer(xb1, xb2, b1, b2, pattern)
            assert got.tobytes() == ref.tobytes(), pattern
            sums = -config.r_f * (pattern[None, :] / xb1.resistance).sum(axis=1)
            rail_bound += bool((np.abs(sums) > config.u_rail).any())
    assert rail_bound   # some patterns drive a row sum past the rail
    over = x[20].copy()
    over[5] = config.u_in_max * (1 + 1e-9)
    with pytest.raises(InputOverrangeError):
        two_layer_forward(xb1, xb2, *biases[0], over)


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
    assert abs(xbar.resistance[4, 9] - 22e3) <= tol * 22e3


def test_program_cell_rejects_target_outside_array():
    xbar = small_xbar(np.full((16, 16), 60e3))
    for target in ((-1, 0), (0, -1), (16, 0), (0, 16)):
        with pytest.raises(ValueError):
            program_cell(xbar, target, 22e3, np.random.default_rng(2))


def test_stuck_cell_holds_its_value():
    stuck = np.full((16, 16), np.nan)
    stuck[4, 9] = 40e3
    xbar = Crossbar(CrossbarConfig(), DeviceParams(), stuck=stuck)
    assert xbar.resistance[4, 9] == 40e3
    log = program_cell(xbar, (4, 9), 38e3, np.random.default_rng(2))
    assert log.success and (log.attempts, log.pulses) == (0, 0)
    assert xbar.resistance[4, 9] == 40e3


def test_stuck_cell_out_of_band_raises():
    """A frozen cell whose read misses the band is refused, untouched and
    without a draw."""
    stuck = np.full((16, 16), np.nan)
    stuck[4, 9] = 55e3
    xbar = Crossbar(CrossbarConfig(), DeviceParams(), stuck=stuck)
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    with pytest.raises(StuckDeviceError, match="stuck at 5.5e\\+04 ohm"):
        program_cell(xbar, (4, 9), 12e3, rng)
    assert xbar.resistance[4, 9] == 55e3
    assert rng.bit_generator.state == state


def test_bias_maps_are_proven_when_the_array_is_built():
    # SET puts |v_set| - v_threshold = 2.5 V on half-selected cells
    with pytest.raises(BiasViolationError):
        Crossbar(CrossbarConfig(), DeviceParams(v_set=-4.0))


def test_only_the_reset_rungs_above_twice_the_threshold_violate():
    # half-selected cells in the target column see amplitude - v_threshold
    bad = DeviceParams(v_threshold=1.2, v_set=-2.4, ramp_range=(1.2, 3.0))
    with pytest.raises(BiasViolationError,
                       match=r"^RESET map exposes a half-selected cell to 1.8 V"):
        Crossbar(CrossbarConfig(), bad)
    xbar = Crossbar(CrossbarConfig(),
                    DeviceParams(v_threshold=1.2, v_set=-2.4,
                                 ramp_range=(1.2, 2.4)))
    for mode in ("SET", "READ"):
        check_bias(bias_assignment(xbar, (0, 0), mode), bad.v_threshold)
    ladder = ramp_amplitudes(bad)
    stacked = bias_assignment(xbar, (0, 0), "RESET", amplitude=ladder)
    assert stacked.drops().shape == (len(ladder), 16, 16)
    for a, drops in zip(ladder, stacked.drops()):
        single = bias_assignment(xbar, (0, 0), "RESET", amplitude=float(a))
        assert np.array_equal(single.drops(), drops)
        violates = single.max_nontarget_drop() > bad.v_threshold + 1e-12
        assert violates == (a > 2.4 + 1e-12), a


def test_one_target_proves_every_bias_map():
    """Every target's non-target drops are a permutation of those at (0, 0)."""
    xbar = Crossbar(CrossbarConfig(), DeviceParams())
    maps = [("SET", None), ("READ", None)] + [
        ("RESET", float(a)) for a in ramp_amplitudes(xbar.device)]

    def nontarget_drops(target, mode, amplitude):
        drops = bias_assignment(xbar, target, mode, amplitude).drops()
        keep = np.ones(drops.shape, dtype=bool)
        keep[target] = False
        return np.sort(drops[keep])

    for mode, amplitude in maps:
        first = nontarget_drops((0, 0), mode, amplitude)
        for target in np.ndindex(16, 16):
            assert np.array_equal(nontarget_drops(target, mode, amplitude),
                                  first), (mode, amplitude, target)


def test_synapse_weights_read_the_row_pairs():
    rng = np.random.default_rng(4)
    m = rng.uniform(10e3, 300e3, size=(16, 16))
    xbar = small_xbar(m)
    w = synapse_weights(xbar, 5, 3)
    assert w.shape == (5, 3)
    for i in range(5):
        for j in range(3):
            assert w[i, j] == 100e3 / m[2 * j, i] - 100e3 / m[2 * j + 1, i]


def test_synapse_pairs_are_views_of_the_row_pairs():
    m = np.arange(16.0 * 16).reshape(16, 16)
    r_m1, r_m2 = synapse_pairs(m, 5, 3)
    assert r_m1.shape == r_m2.shape == (5, 3)
    for i in range(5):
        for j in range(3):
            assert (r_m1[i, j], r_m2[i, j]) == (m[2 * j, i], m[2 * j + 1, i])
    r_m1[...], r_m2[...] = -1.0, -2.0
    assert (m == -1.0).sum() == (m == -2.0).sum() == 15
    assert m[4, 4] == -1.0 and m[5, 4] == -2.0 and m[6, 0] == 6 * 16


def test_crossbar_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    m = rng.uniform(10e3, 60e3, size=(16, 16))
    stuck = np.full((16, 16), np.nan)
    stuck[3, 5] = 45e3
    xbar = Crossbar(CrossbarConfig(), DeviceParams(), m, stuck)
    path = tmp_path / "array.csv"
    save_crossbar_csv(xbar, path)
    back = load_crossbar_csv(path, xbar.config, xbar.device)
    assert np.array_equal(back.resistance, xbar.resistance)
    assert np.array_equal(back.stuck, xbar.stuck, equal_nan=True)


@pytest.mark.parametrize("edit, cell", [
    (lambda lines: lines[:-1], r"\(15, 15\) missing"),
    (lambda lines: lines + [lines[1]], r"\(0, 0\) listed twice"),
    (lambda lines: [lines[0], lines[1].replace("0,0,", "-1,0,", 1)]
     + lines[2:], r"\(-1, 0\) outside"),
    (lambda lines: lines + ["16,0,30000.0,0,"], r"\(16, 0\) outside"),
])
def test_load_rejects_corrupt_array_file(tmp_path, edit, cell):
    xbar = small_xbar(np.full((16, 16), 30e3))
    path = tmp_path / "array.csv"
    save_crossbar_csv(xbar, path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ShapeMismatchError, match="array.csv: cell " + cell):
        load_crossbar_csv(path, xbar.config, xbar.device)
