"""Sampling and confidence-bound helpers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memxbar
from memxbar.stats import (check_ranges, clopper_pearson_upper,
                           truncated_normal)


def test_clopper_pearson_zero_failures_is_closed_form():
    assert clopper_pearson_upper(0, 10000) == pytest.approx(
        1 - 0.05 ** (1 / 10000), rel=1e-9)
    assert clopper_pearson_upper(0, 10000) == pytest.approx(2.995e-4,
                                                            abs=1e-7)


def test_clopper_pearson_all_failures_is_one():
    assert clopper_pearson_upper(10, 10) == 1.0


def test_clopper_pearson_rises_with_failures():
    bounds = [clopper_pearson_upper(k, 50) for k in range(51)]
    assert np.all(np.diff(bounds) > 0)
    # the 95 % bound of the Beta(k+1, n-k) quantile for 1 of 10
    assert clopper_pearson_upper(1, 10) == pytest.approx(0.39416, abs=1e-5)


def test_clopper_pearson_rejects_impossible_counts():
    for k, n in ((-1, 10), (11, 10), (0, 0)):
        with pytest.raises(ValueError):
            clopper_pearson_upper(k, n)


def test_a_value_a_rule_cannot_compare_is_refused():
    """A rule that raises TypeError on a value (a tuple or a string
    compared with a number) refuses it with the ValueError that names the
    setting; a bool, alone or in a tuple, is no number."""
    rules = {"x": ("finite and > 0", lambda v: 0 < v < math.inf)}
    with pytest.raises(ValueError,
                       match=r"^x must be finite and > 0, got \(1, 2\)$"):
        check_ranges({"x": (1, 2)}, rules)
    with pytest.raises(ValueError, match="^x must be finite and > 0, got '1'"):
        check_ranges({"x": "1"}, rules)
    for value in (True, (1, False)):
        with pytest.raises(ValueError, match="^x must be"):
            check_ranges({"x": value}, {"x": ("anything", lambda v: True)})
    check_ranges({"x": 1}, rules)


def reference_truncated_normal(rng, mean, sigma, limit_sigmas, size):
    """Whole-array ``rng.normal`` draws, the rejected ones redrawn; also
    the number of redraw rounds."""
    mean = np.broadcast_to(np.asarray(mean, dtype=float), size).copy()
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), size).copy()
    out = rng.normal(mean, sigma)
    bound = limit_sigmas * sigma
    bad = np.abs(out - mean) > bound
    rounds = 0
    while np.any(bad):
        out[bad] = rng.normal(mean[bad], sigma[bad])
        bad = np.abs(out - mean) > bound
        rounds += 1
    return out, rounds


SHAPE = (3, 4, 5)
ARRAY_MEAN = np.linspace(-2.0, 3.0, 5)
ARRAY_SIGMA = np.linspace(0.1, 2.0, 60).reshape(SHAPE)
ARRAY_LIMIT = np.array([0.4, 1.0, 2.0, 3.0, 0.2])


@pytest.mark.parametrize("mean", [0.0, 7.5, ARRAY_MEAN])
@pytest.mark.parametrize("sigma", [1.0, 0.3, ARRAY_SIGMA])
@pytest.mark.parametrize("limit", [3.0, 0.25, ARRAY_LIMIT])
def test_truncated_normal_equals_whole_array_normal_draws(mean, sigma, limit):
    for seed in range(5):
        got = truncated_normal(np.random.default_rng(seed), mean, sigma,
                               limit, SHAPE)
        ref, _ = reference_truncated_normal(np.random.default_rng(seed),
                                            mean, sigma, limit, SHAPE)
        assert got.shape == SHAPE
        assert np.array_equal(got, ref)
        assert np.all(np.abs(got - mean) <= limit * np.asarray(sigma))


def test_truncated_normal_fills_out_in_place():
    out = np.full(SHAPE, np.nan)
    got = truncated_normal(np.random.default_rng(3), ARRAY_MEAN, 0.3,
                           ARRAY_LIMIT, SHAPE, out=out)
    ref = truncated_normal(np.random.default_rng(3), ARRAY_MEAN, 0.3,
                           ARRAY_LIMIT, SHAPE)
    assert got is out
    assert np.array_equal(out, ref)


def test_truncated_normal_low_limit_takes_several_rounds():
    # at 0.25 sigma about four draws in five are redrawn, round after round
    rng = np.random.default_rng(8)
    got = truncated_normal(rng, 1.0, 2.0, 0.25, 50)
    tail = np.random.default_rng(8)
    ref, rounds = reference_truncated_normal(tail, 1.0, 2.0, 0.25, 50)
    assert rounds >= 5
    assert np.array_equal(got, ref)
    # both leave the generator at the same place
    assert rng.standard_normal() == tail.standard_normal()


def test_importing_memxbar_does_not_load_numpy_random():
    # numpy loads numpy.random on first use; loading it at import time
    # raised the benchmark workloads' peak resident memory
    code = "import sys, memxbar; print('numpy.random' in sys.modules)"
    src = str(Path(memxbar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
