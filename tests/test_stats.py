"""Sampling and confidence-bound helpers."""

import numpy as np
import pytest

from memxbar.stats import clopper_pearson_upper


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
