"""Informational model: forward pass, metrics, gradients, training."""

import numpy as np
import pytest

from memxbar.errors import ShapeMismatchError
from memxbar.mapping import ResistanceRange, symmetric_weight_states
from memxbar.netmodel import (Activation, MlpParams, TrainConfig, classify,
                              evaluate, forward, forward_stack, gradients,
                              init_params, mse, p_err, train_discrete)


def zero_params(**kw):
    return MlpParams(np.zeros((16, 8)), np.zeros(8), np.zeros((8, 4)),
                     np.zeros(4), **kw)


def test_activation_saturates():
    act = Activation()
    z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert np.array_equal(act.apply(z), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.array_equal(act.derivative(z), [0.0, 1.0, 1.0, 1.0, 0.0])


def test_leaked_derivative_is_leak_times_slope_when_saturated():
    act = Activation(slope=2.0)
    z = np.array([-3.0, -0.25, 0.0, 0.25, 3.0])
    assert np.array_equal(act.derivative(z, leak=0.05),
                          [0.05 * 2.0, 2.0, 2.0, 2.0, 0.05 * 2.0])


def test_params_shape_checked():
    with pytest.raises(ShapeMismatchError):
        MlpParams(np.zeros((8, 16)), np.zeros(8), np.zeros((8, 4)),
                  np.zeros(4))


def test_forward_single_and_batch_agree():
    rng = np.random.default_rng(1)
    params = init_params(rng)
    x = rng.uniform(0, 1, size=(5, 16))
    batch = forward(params, x)
    assert batch.shape == (5, 4)
    for h in range(5):
        # batched and single matmuls may differ in the last bit
        assert np.allclose(forward(params, x[h]), batch[h], atol=1e-14)


def test_forward_stack_equals_loop_of_forward():
    rng = np.random.default_rng(6)
    params = init_params(rng)
    x = rng.uniform(0, 1, size=(7, 16))
    w1 = params.w_hidden + rng.normal(0, 0.1, size=(5, 16, 8))
    w2 = params.w_out + rng.normal(0, 0.1, size=(5, 8, 4))
    stacked = forward_stack(params.activation, x, w1, params.b_hidden, w2,
                            params.b_out)
    assert stacked.shape == (5, 7, 4)
    for t in range(5):
        one = MlpParams(w1[t], params.b_hidden, w2[t], params.b_out)
        assert np.array_equal(stacked[t], forward(one, x))


def test_classify_reject_rule():
    assert classify(np.array([-0.2, -0.1, -0.9, -0.4])) == "Sr"
    assert classify(np.array([-0.2, 0.3, 0.1, -0.4])) == "S2"
    labels = classify(np.array([[0.5, 0.1, 0.0, 0.0],
                                [-1.0, -1.0, -1.0, -1.0]]))
    assert labels == ["S1", "Sr"]


def test_p_err_counts_mismatches():
    assert p_err(["S1", "S2", "Sr"], ["S1", "S3", "Sr"]) == pytest.approx(
        100.0 / 3)
    assert p_err(["S1"], ["S1"]) == 0.0


def test_mse_sums_components_means_patterns():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    pred = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert mse(y, pred) == pytest.approx(1.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    params = init_params(rng)
    params.w_hidden *= 0.2
    params.w_out *= 0.2
    x = rng.uniform(0, 0.4, size=(6, 16))
    y = rng.uniform(-0.5, 0.5, size=(6, 4))
    grads = gradients(params, x, y)
    eps = 1e-6
    for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
        arr = getattr(params, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + eps
            up = mse(y, forward(params, x))
            arr[idx] = keep - eps
            down = mse(y, forward(params, x))
            arr[idx] = keep
            num = (up - down) / (2 * eps)
            assert grads[name][idx] == pytest.approx(num, abs=1e-6)


def test_leak_changes_nothing_where_no_unit_saturates():
    rng = np.random.default_rng(4)
    params = init_params(rng)
    params.w_hidden *= 0.2
    params.w_out *= 0.2
    x = rng.uniform(0, 0.4, size=(6, 16))
    y = rng.uniform(-0.5, 0.5, size=(6, 4))
    exact = gradients(params, x, y)
    leaky = gradients(params, x, y, leak=0.05)
    for name in exact:
        assert np.array_equal(exact[name], leaky[name])


def test_training_fits_a_separable_toy_problem():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, size=(40, 16))
    teacher = init_params(np.random.default_rng(99))
    y = forward(teacher, x) * 0.8
    result = train_discrete(init_params(rng), x, y,
                            TrainConfig(mse_target=1e-3, max_epochs=4000))
    assert result.converged
    assert result.final_mse <= 1e-3
    assert result.curve[0] > result.curve[-1]


def test_training_respects_weight_limit():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, size=(20, 16))
    y = np.tile([1.0, -1.0, -1.0, -1.0], (20, 1))
    cfg = TrainConfig(max_epochs=300, weight_limit=0.4, mse_target=0.0)
    result = train_discrete(init_params(rng), x, y, cfg)
    assert np.abs(result.params.w_hidden).max() <= 0.4
    assert np.abs(result.params.w_out).max() <= 0.4


def test_training_projects_onto_state_ladder():
    states = np.array(symmetric_weight_states(
        7, 100e3, ResistanceRange(10e3, 300e3)))
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, size=(30, 16))
    y = np.tile([1.0, -1.0, -1.0, -1.0], (30, 1))
    cfg = TrainConfig(max_epochs=200, discrete_states=states, mse_target=0.0)
    result = train_discrete(init_params(rng), x, y, cfg)
    for w in (result.params.w_hidden, result.params.w_out):
        assert np.isin(w, states).all()


def test_noisy_training_needs_rng():
    cfg = TrainConfig(weight_noise=0.05, max_epochs=10)
    x = np.zeros((4, 16))
    y = np.zeros((4, 4))
    with pytest.raises(ValueError):
        train_discrete(init_params(np.random.default_rng(0)), x, y, cfg)


def test_noisy_training_is_seed_deterministic():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=(25, 16))
    y = np.tile([1.0, -1.0, -1.0, -1.0], (25, 1))
    cfg = TrainConfig(weight_noise=0.05, noise_offset=1 / 3, max_epochs=60,
                      mse_target=0.0)
    runs = []
    for _ in range(2):
        start = init_params(np.random.default_rng(7))
        runs.append(train_discrete(start, x, y, cfg,
                                   np.random.default_rng(11)))
    assert np.array_equal(runs[0].params.w_hidden, runs[1].params.w_hidden)
    assert np.array_equal(runs[0].curve, runs[1].curve)


def test_evaluate_scores_labels():
    params = zero_params()
    x = np.zeros((3, 16))
    # all-zero net rejects everything
    assert evaluate(params, x, ["Sr", "Sr", "Sr"]) == 0.0
    assert evaluate(params, x, ["S1", "Sr", "Sr"]) == pytest.approx(100 / 3)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(step=0.0)
    with pytest.raises(ValueError):
        TrainConfig(leak=1.0)
    with pytest.raises(ValueError):
        TrainConfig(weight_noise=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(panel=0)
