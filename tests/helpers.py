"""Constants and builders shared by the test modules.

They live here rather than in ``conftest.py`` because the benchmark's tests
have a ``conftest.py`` of their own, so ``from conftest import ...`` is
ambiguous when both directories are collected in one session.
"""

import ctypes
import json
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from memxbar.cli import openblas_function
from memxbar.crossbar import Crossbar, synapse_pairs
from memxbar.mapping import compile_network
from memxbar.netmodel import LABELS, forward_stack

DEFAULT_SEED = 20260826


def ideal_crossbars(w_hidden, w_out, config, device, rrange):
    """Two arrays holding exact synapse nominals for the given weights."""
    net = compile_network(w_hidden, w_out, config.r_f, rrange)
    xbars = []
    for _, layer in net.layers():
        n_in, n_out = layer.r_m1.shape
        m = np.full((config.rows, config.cols), device.r_hrs_nominal)
        r_m1, r_m2 = synapse_pairs(m, n_in, n_out)
        r_m1[...], r_m2[...] = layer.r_m1, layer.r_m2
        xbars.append(Crossbar(config, device, m))
    return xbars


def default_profile_dict():
    """The packaged ``data/default_profile.json``, parsed: a profile dict
    that a test may edit."""
    path = resources.files("memxbar").joinpath("data/default_profile.json")
    return json.loads(path.read_text())


@contextmanager
def blas_threads(count):
    """Run the block with the bundled OpenBLAS at ``count`` threads, then
    restore the thread count; skip the test without a bundled OpenBLAS."""
    get = openblas_function("get_num_threads")
    set_ = openblas_function("set_num_threads")
    if get is None or set_ is None:
        pytest.skip("no bundled OpenBLAS")
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(count)
    try:
        yield
    finally:
        set_(before)


def reference_counts(net, w1, w2, x, codes):
    """Misclassified patterns per trial and class, (trials, 5), by argmax
    over ``forward_stack`` with reject where the maximum output is not
    positive (a NaN maximum included)."""
    out = forward_stack(x, w1, net.b_hidden, w2, net.b_out)
    pred = np.where(out.max(axis=2) > 0, out.argmax(axis=2), len(LABELS) - 1)
    wrong = pred != codes[None, :]
    return np.stack([wrong[:, codes == k].sum(axis=1)
                     for k in range(len(LABELS))], axis=1)
