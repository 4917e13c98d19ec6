"""Weight/resistance conversions, quantization, and network compilation."""

import numpy as np
import pytest

from memxbar.errors import WeightOutOfRangeError
from memxbar.mapping import (ResistanceRange, compensate_stuck,
                             compile_network, compile_weight_matrix,
                             discrete_weight_table, quantize_weights,
                             resistances_for_weight,
                             symmetric_weight_states, w_max,
                             weight_from_resistances)

RANGE = ResistanceRange(10e3, 300e3)
R_F = 100e3


def test_w_max_formula():
    assert w_max(R_F, RANGE) == pytest.approx(
        R_F * (RANGE.r_max - RANGE.r_min) / (RANGE.r_max * RANGE.r_min))


def test_round_trip_inside_range():
    rng = np.random.default_rng(5)
    cap = w_max(R_F, RANGE)
    for w in rng.uniform(-cap, cap, size=50):
        syn = resistances_for_weight(float(w), R_F, RANGE)
        assert RANGE.r_min <= syn.r_m1 <= RANGE.r_max
        assert RANGE.r_min <= syn.r_m2 <= RANGE.r_max
        assert weight_from_resistances(syn) == pytest.approx(w, rel=1e-12)


def test_weight_cap_enforced():
    cap = w_max(R_F, RANGE)
    with pytest.raises(WeightOutOfRangeError):
        resistances_for_weight(cap * 1.01, R_F, RANGE)
    with pytest.raises(WeightOutOfRangeError):
        compile_weight_matrix(np.array([[cap * 1.01]]), R_F, RANGE)


def test_negative_weight_swaps_branches():
    syn_pos = resistances_for_weight(2.0, R_F, RANGE)
    syn_neg = resistances_for_weight(-2.0, R_F, RANGE)
    assert syn_pos.r_m2 == RANGE.r_max
    assert syn_neg.r_m1 == RANGE.r_max
    assert syn_neg.r_m2 == syn_pos.r_m1


def test_zero_weight_parks_both_at_reference():
    syn = resistances_for_weight(0.0, R_F, RANGE)
    assert syn.r_m1 == syn.r_m2 == RANGE.r_max
    assert weight_from_resistances(syn) == 0.0


def test_quantize_picks_nearest():
    states = [-1.0, 0.0, 1.0, 2.0]
    q = quantize_weights(np.array([0.4, 0.6, 5.0, -3.0]), states)
    assert np.array_equal(q, [0.0, 1.0, 2.0, -1.0])


def test_quantize_midpoint_prefers_smaller_magnitude():
    assert np.array_equal(quantize_weights(np.array([0.5]), [0.0, 1.0]), [0.0])
    assert np.array_equal(quantize_weights(np.array([-0.5]), [-1.0, 0.0]),
                          [0.0])


def test_quantize_weights_matches_brute_force():
    states = np.array(symmetric_weight_states(7, R_F, RANGE))
    rng = np.random.default_rng(9)
    w = rng.uniform(-9, 9, size=(16, 8))
    nearest = states[np.abs(w[..., None] - states).argmin(axis=-1)]
    assert np.array_equal(quantize_weights(w, states), nearest)


def test_symmetric_states_mirror():
    states = symmetric_weight_states(5, R_F, RANGE)
    arr = np.array(states)
    assert 0.0 in arr
    assert np.allclose(np.sort(-arr), arr)
    assert arr.max() == pytest.approx(w_max(R_F, RANGE))


def test_discrete_table_is_ascending():
    table = discrete_weight_table(R_F, 60e3, ResistanceRange(10e3, 60e3), 5e3)
    assert list(table) == sorted(table)
    assert min(table) == 0.0


def test_compile_network_reproduces_weights():
    rng = np.random.default_rng(3)
    w1 = rng.uniform(-2, 2, size=(16, 8))
    w2 = rng.uniform(-2, 2, size=(8, 4))
    net = compile_network(w1, w2, R_F, RANGE)
    assert np.allclose(net.hidden.weights(), w1, atol=1e-12)
    assert np.allclose(net.out.weights(), w2, atol=1e-12)


def test_compensate_one_stuck_branch():
    target = 1.5
    syn, achieved, fixed = compensate_stuck(None, 120e3, target, R_F, RANGE)
    assert not fixed
    assert syn.r_m2 == 120e3
    assert achieved == pytest.approx(target, rel=1e-9)


def test_compensate_both_stuck_is_fixed():
    syn, achieved, fixed = compensate_stuck(20e3, 40e3, 0.3, R_F, RANGE)
    assert fixed
    assert achieved == pytest.approx(R_F / 20e3 - R_F / 40e3)


def test_compensate_unreachable_weight_clamps():
    # freeing branch cannot go below r_min, so the weight saturates
    syn, achieved, fixed = compensate_stuck(None, RANGE.r_min, 5.0, R_F, RANGE)
    assert not fixed
    assert achieved < 5.0
    assert RANGE.r_min <= syn.r_m1 <= RANGE.r_max
