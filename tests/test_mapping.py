"""Weight/resistance conversions, quantization, and network compilation."""

import numpy as np
import pytest

from memxbar.errors import WeightOutOfRangeError
from memxbar.mapping import (CompiledLayer, ResistanceRange,
                             compensate_stuck, compile_network,
                             compile_weight_matrix, discrete_weight_table,
                             quantize_weights, resistances_for_weight,
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


def test_quantize_to_one_state_maps_every_weight_to_it():
    w = np.array([[-5.0, 0.0, 0.25], [np.nan, np.inf, -np.inf]])
    q = quantize_weights(w, [0.75])
    assert q.shape == w.shape
    assert np.array_equal(q, np.full(w.shape, 0.75))


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


def _compensated(target, r_m1, r_m2, stuck_m1=np.nan, stuck_m2=np.nan):
    """The synapse ``compensate_stuck`` gives for a one-pair layer
    (r_m1, r_m2) whose weight is exactly ``target``."""
    layer = CompiledLayer([[r_m1]], [[r_m2]], R_F)
    assert layer.weights()[0, 0] == target
    return compensate_stuck(layer, np.array([[stuck_m1]]),
                            np.array([[stuck_m2]]), RANGE).synapse(0, 0)


def test_compensate_one_stuck_branch():
    target = 1.5
    syn = _compensated(target, 50e3, 200e3, stuck_m2=120e3)
    assert syn.r_m2 == 120e3
    assert weight_from_resistances(syn) == pytest.approx(target, rel=1e-9)


def test_compensate_stuck_r_m1_solves_r_m2():
    """w = r_f/s - r_f/r_m2 gives r_m2 = r_f / (r_f/s - w); a weight the
    stuck branch cannot reach parks r_m2 at r_max."""
    syn = _compensated(-1.5, 200e3, 50e3, stuck_m1=120e3)
    assert syn.r_m1 == 120e3
    assert syn.r_m2 == R_F / (R_F / 120e3 + 1.5)
    assert weight_from_resistances(syn) == pytest.approx(-1.5, rel=1e-9)
    syn = _compensated(2.0, 40e3, 200e3, stuck_m1=120e3)
    assert (syn.r_m1, syn.r_m2) == (120e3, RANGE.r_max)
    assert weight_from_resistances(syn) < 2.0


def test_compensate_both_stuck_is_fixed():
    syn = _compensated(0.5, 100e3, 200e3, stuck_m1=20e3, stuck_m2=40e3)
    assert (syn.r_f, syn.r_m1, syn.r_m2) == (R_F, 20e3, 40e3)
    assert weight_from_resistances(syn) == pytest.approx(R_F / 20e3 - R_F / 40e3)


def test_compensate_unreachable_weight_clamps():
    # freeing branch cannot go below r_min, so the weight saturates
    syn = _compensated(5.0, 10e3, 20e3, stuck_m2=RANGE.r_min)
    assert weight_from_resistances(syn) < 5.0
    assert RANGE.r_min <= syn.r_m1 <= RANGE.r_max


def reference_compensate(stuck_m1, stuck_m2, target_w, r_f, rng):
    """The per-synapse rule (None for a free branch): both frozen keep
    their values; otherwise the free branch is r_f / (±w + r_f/stuck),
    r_max where that denominator is <= 0, clamped to the range."""
    if stuck_m1 is not None and stuck_m2 is not None:
        return stuck_m1, stuck_m2
    stuck, sign = (stuck_m2, 1.0) if stuck_m2 is not None else (stuck_m1, -1.0)
    denom = sign * target_w + r_f / stuck
    free = r_f / denom if denom > 0 else rng.r_max
    free = min(max(free, rng.r_min), rng.r_max)
    return (free, stuck) if sign > 0 else (stuck, free)


# (r_m1, r_m2, stuck_m1, stuck_m2): a zero and a negative denominator and a
# clamp at r_min, solving each branch
EDGE_PAIRS = [
    (100e3, 50e3, np.nan, 100e3),     # w = -1, r_f/stuck = 1: denominator 0
    (50e3, 100e3, 100e3, np.nan),
    (300e3, 10e3, np.nan, 300e3),     # w ~ -9.7: denominator < 0
    (10e3, 300e3, 300e3, np.nan),
    (10e3, 300e3, np.nan, 20e3),      # r_f / (9.7 + 5) < r_min
    (300e3, 10e3, 20e3, np.nan),
]


@pytest.mark.parametrize("seed", range(4))
def test_compensate_stuck_matches_the_scalar_formula(seed):
    """Bit-equal to the per-synapse rule on random layers where each pair
    is free, frozen on r_m1, on r_m2 or on both, at values inside and
    outside the range."""
    gen = np.random.default_rng(seed)
    shape = (16, 8)
    r_m1, r_m2 = np.exp(gen.uniform(np.log(RANGE.r_min), np.log(RANGE.r_max),
                                    (2,) + shape))
    stuck_m1, stuck_m2 = np.exp(gen.uniform(np.log(5e3), np.log(600e3),
                                            (2,) + shape))
    kind = gen.integers(0, 4, shape)   # 0 free, 1 r_m1, 2 r_m2, 3 both
    stuck_m1[kind % 2 == 0] = np.nan
    stuck_m2[kind < 2] = np.nan
    for k, edge in enumerate(EDGE_PAIRS):
        r_m1[k, 0], r_m2[k, 0], stuck_m1[k, 0], stuck_m2[k, 0] = edge
    layer = CompiledLayer(r_m1, r_m2, R_F)
    got = compensate_stuck(layer, stuck_m1, stuck_m2, RANGE)
    expected = np.stack([r_m1, r_m2])
    w = layer.weights()
    for i, j in np.ndindex(shape):
        s1, s2 = (None if np.isnan(s) else float(s)
                  for s in (stuck_m1[i, j], stuck_m2[i, j]))
        if s1 is not None or s2 is not None:
            expected[:, i, j] = reference_compensate(s1, s2, float(w[i, j]),
                                                     R_F, RANGE)
    assert got.r_f == R_F
    assert got.r_m1.tobytes() == expected[0].tobytes()
    assert got.r_m2.tobytes() == expected[1].tobytes()
    assert {1, 2, 3} <= set(kind[:, 1:].ravel())
    for solved, sign, stuck, free in ((got.r_m1, 1, stuck_m2, stuck_m1),
                                      (got.r_m2, -1, stuck_m1, stuck_m2)):
        alone = np.isnan(free) & ~np.isnan(stuck)
        denominator = sign * w[alone] + R_F / stuck[alone]
        assert (denominator < 0).any() and (denominator == 0).any()
        assert (solved[alone] == RANGE.r_min).any()
