"""Constants and builders shared by the test modules.

They live here rather than in ``conftest.py`` because the benchmark's tests
have a ``conftest.py`` of their own, so ``from conftest import ...`` is
ambiguous when both directories are collected in one session.
"""

import numpy as np

from memxbar.crossbar import Crossbar
from memxbar.mapping import compile_network

DEFAULT_SEED = 20260826


def ideal_crossbars(w_hidden, w_out, config, device, rrange):
    """Two arrays holding exact synapse nominals for the given weights."""
    net = compile_network(w_hidden, w_out, config.r_f, rrange)
    xbars = []
    for _, layer in net.layers():
        n_in, n_out = layer.r_m1.shape
        m = np.full((config.rows, config.cols), device.r_hrs_nominal)
        for j in range(n_out):
            m[2 * j, :n_in] = layer.r_m1[:, j]
            m[2 * j + 1, :n_in] = layer.r_m2[:, j]
        xbars.append(Crossbar.from_resistances(config, device, m))
    return xbars
