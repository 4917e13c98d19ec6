"""Product-level targets, one test per line item.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per target; add ``-s`` to see the measured figures next to their limits.
"""

import json
import time

import numpy as np
import pytest

from memxbar.crossbar import (Crossbar, CrossbarConfig, bias_assignment,
                              two_layer_forward)
from memxbar.device import DeviceParams, MemristorCell, program_to
from memxbar.mapping import (ResistanceRange, compile_network,
                             discrete_weight_table, resistances_for_weight,
                             w_max, weight_from_resistances)
from memxbar.netmodel import MlpParams, forward, gradients, init_params, mse
from memxbar.pipeline import RunConfig, run_pipeline
from memxbar.reports import read_sweep_csv
from memxbar.tolerance import tolerance_set, weight_error_bounds

from helpers import ideal_crossbars

X_P = 5.0


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_criterion_01_training_error_rate(default_run, tmp_path):
    """Test-set error below 2% at the default seed, below 3% on four more."""
    rates = {default_run.cfg.seed: default_run.summary["nominal_p_err"]}
    assert default_run.timings["train"] < 120.0
    for seed in (1, 2, 3, 4):
        cfg = RunConfig(seed=seed, out_dir=tmp_path / f"seed{seed}")
        run_pipeline(cfg, "dataset")
        t0 = time.perf_counter()
        run_pipeline(cfg, "train")
        assert time.perf_counter() - t0 < 120.0
        rates[seed] = read_json(cfg.out_dir / "train" /
                                "train.json")["test_p_err"]
    print(f"\n  per-seed test P_err %: {rates}")
    assert rates[default_run.cfg.seed] < 2.0
    assert all(v < 3.0 for v in rates.values())


def test_criterion_02_tolerance_analysis_headline(default_run):
    """Worst of 10000 trials at +/-20% memristor, +/-1% resistor: <= 5%."""
    report = read_json(default_run.run_dir / "analyze" / "report.json")
    assert report["trials"] == 10000
    assert default_run.cfg.tolerances == {"r_m": 0.2, "r_f": 0.01,
                                          "limit_sigmas": 3.0}
    print(f"\n  max trial P_err {report['max_p_err']:.3f}% (limit {X_P}%), "
          f"{default_run.timings['analyze']:.1f} s")
    assert report["max_p_err"] <= X_P
    assert report["passed"] is True
    assert default_run.timings["analyze"] < 600.0


def test_criterion_03_subset_error_rates(default_run):
    """Stimulus-site patterns and extraneous patterns each stay <= 5%."""
    subset = default_run.summary["mc_subset_max"]
    print(f"\n  S1-S4 worst {subset['sites']:.3f}%, "
          f"Sr worst {subset['extraneous']:.3f}% (limit {X_P}%)")
    assert subset["sites"] <= X_P
    assert subset["extraneous"] <= X_P


def test_criterion_04_weight_cap_table():
    """Largest realizable weight for five feedback/window combinations."""
    cases = [
        ((10e3, 300e3), 9.67),
        ((10e3, 100e3), 9.00),
        ((10e3, 200e3), 9.50),
        ((20e3, 300e3), 4.67),
        ((5e3, 300e3), 19.67),
    ]
    got = []
    for (r_min, r_max), expected in cases:
        value = w_max(100e3, ResistanceRange(r_min, r_max))
        got.append(round(value, 2))
        assert round(value, 2) == expected
    print(f"\n  caps {got}")


def test_criterion_05_discrete_weight_table():
    """The 5 kOhm ladder against a 60 kOhm reference: counts and inverses."""
    table = np.array(discrete_weight_table(
        100e3, 60e3, ResistanceRange(10e3, 60e3), 5e3))
    assert len(table) == 11
    buckets = (int(((table >= 0) & (table < 1)).sum()),
               int(((table >= 1) & (table < 2)).sum()),
               int(((table >= 2) & (table < 9)).sum()))
    print(f"\n  weights {np.round(table, 3).tolist()}, buckets {buckets}")
    assert buckets == (5, 2, 4)
    for w, expected in ((7.0, 11.5e3), (8.0, 10.3e3)):
        syn = resistances_for_weight(w, 100e3, ResistanceRange(10e3, 60e3))
        assert abs(syn.r_m1 - expected) <= 0.1e3


def test_criterion_06_state_count_sweep(default_run):
    """Quantized nets pass the error budget from some n* in [5, 9] upward."""
    sweep = read_sweep_csv(default_run.run_dir / "sweep" / "sweep.csv")
    counts = sorted(sweep)
    n_star = None
    for n in counts:
        if all(sweep[m] <= X_P for m in counts if m >= n):
            n_star = n
            break
    print(f"\n  sweep {sweep}, n* = {n_star}, "
          f"{default_run.timings['sweep']:.1f} s")
    assert n_star is not None
    assert 5 <= n_star <= 9
    assert default_run.timings["sweep"] < 300.0


def test_criterion_07_write_verify_programming():
    """Eight targets across the window, twenty repeats: all inside +/-15%."""
    params = DeviceParams()
    targets = np.linspace(10e3, 60e3, 8)
    worst = 0.0
    for t_idx, target in enumerate(targets):
        for repeat in range(20):
            rng = np.random.default_rng((707, t_idx, repeat))
            cell = MemristorCell(resistance=params.r_hrs_nominal)
            log = program_to(cell, float(target), params, rng)
            assert log.success
            miss = abs(log.final_resistance - target) / target
            worst = max(worst, miss)
    assert worst <= 0.15
    quiet = DeviceParams(response_noise_sigma=0.0)
    attempts = []
    for target in targets:
        cell = MemristorCell(resistance=quiet.r_hrs_nominal)
        log = program_to(cell, float(target), quiet, np.random.default_rng(0))
        attempts.append(log.attempts)
    print(f"\n  worst miss {100 * worst:.2f}% of 160 writes; "
          f"noiseless attempts {attempts}")
    assert attempts == [1] * 8


def test_criterion_08_bias_scheme_safety():
    """No half-selected cell ever sees more than the switching threshold."""
    xbar = Crossbar(CrossbarConfig(), DeviceParams())
    worst = 0.0
    set_drops = set()
    for r in range(16):
        for c in range(16):
            for mode, amp in (("SET", None), ("RESET", 3.0), ("READ", None)):
                a = bias_assignment(xbar, (r, c), mode, amplitude=amp)
                worst = max(worst, a.max_nontarget_drop())
                if mode == "SET":
                    d = np.abs(a.drops())
                    d[r, c] = 0.0
                    set_drops |= set(np.unique(d).tolist())
    print(f"\n  worst non-target drop {worst} V, SET drops {set_drops}")
    assert worst <= 1.5
    assert set_drops == {0.0, 1.5}


def test_criterion_09_circuit_model_oracles():
    """Circuit forward, weight round trip, and bound estimates vs oracles."""
    config, device = CrossbarConfig(), DeviceParams(r_hrs_nominal=300e3)
    rrange = ResistanceRange(10e3, 300e3)
    rng = np.random.default_rng(11)
    worst_fwd = 0.0
    for _ in range(100):
        w1 = rng.uniform(-2, 2, size=(16, 8))
        w2 = rng.uniform(-2, 2, size=(8, 4))
        b1 = rng.uniform(-0.5, 0.5, size=8)
        b2 = rng.uniform(-0.5, 0.5, size=4)
        x = rng.uniform(0, 1, size=16)
        xb1, xb2 = ideal_crossbars(w1, w2, config, device, rrange)
        circuit = two_layer_forward(xb1, xb2, b1, b2, x)
        model = forward(MlpParams(w1, b1, w2, b2), x)
        worst_fwd = max(worst_fwd, float(np.abs(circuit - model).max()))
    assert worst_fwd < 1e-9

    rng = np.random.default_rng(13)
    cap = w_max(100e3, rrange)
    worst_rt = 0.0
    for w in rng.uniform(-cap, cap, size=1000):
        syn = resistances_for_weight(float(w), 100e3, rrange)
        back = weight_from_resistances(syn)
        worst_rt = max(worst_rt, abs(back - w) / abs(w))
    assert worst_rt < 1e-12

    specs = tolerance_set()
    worst_gap = 0.0
    for w in (0.1, 0.5, 1.0, 3.0, 8.0, -2.0):
        syn = resistances_for_weight(w, 100e3, rrange)
        est = weight_error_bounds(syn, specs, 200000,
                                  np.random.default_rng(77))
        oracle = weight_error_bounds(syn, specs, 1000000,
                                     np.random.default_rng(78))
        worst_gap = max(worst_gap, abs(est.low - oracle.low),
                        abs(est.high - oracle.high))
    print(f"\n  forward gap {worst_fwd:.2e}, round trip {worst_rt:.2e}, "
          f"bound gap {worst_gap:.3f} pp")
    assert worst_gap <= 1.0


def test_criterion_10_gradient_check():
    """Analytic gradients vs central differences at non-saturated points."""
    rng = np.random.default_rng(21)
    eps = 1e-6
    worst = 0.0
    for _ in range(20):
        params = init_params(rng)
        params.w_hidden *= 0.2
        params.w_out *= 0.2
        x = rng.uniform(0, 0.3, size=(3, 16))
        y = rng.uniform(-0.5, 0.5, size=(3, 4))
        z1 = x @ params.w_hidden + params.b_hidden
        z2 = params.activation.apply(z1) @ params.w_out + params.b_out
        assert np.abs(z1).max() < 1.0 and np.abs(z2).max() < 1.0
        grads = gradients(params, x, y)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            arr = getattr(params, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _unused in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + eps
                up = mse(y, forward(params, x))
                arr[idx] = keep - eps
                down = mse(y, forward(params, x))
                arr[idx] = keep
                num = (up - down) / (2 * eps)
                a = grads[name][idx]
                rel = abs(a - num) / max(abs(a), abs(num), 1e-10)
                worst = max(worst, rel)
    print(f"\n  worst relative gradient gap {worst:.2e}")
    assert worst < 1e-4
