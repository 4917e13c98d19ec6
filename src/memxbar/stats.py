"""Small sampling helpers shared by the dataset, pipeline and tolerance code.

:func:`substream` and :func:`subseed` are the only places where a key of
nonnegative ints (master seed, stream id, counters) becomes a stream.
"""

from __future__ import annotations

import numpy as np


def substream(*key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def subseed(*key: int) -> int:
    """64-bit integer seed for the stream identified by ``key``."""
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def truncated_normal(rng: np.random.Generator, mean, sigma, limit_sigmas: float,
                     size) -> np.ndarray:
    """Normal draws redrawn until within +/- limit_sigmas standard deviations."""
    mean = np.broadcast_to(np.asarray(mean, dtype=float), size).copy()
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), size).copy()
    out = rng.normal(mean, sigma)
    bound = limit_sigmas * sigma
    bad = np.abs(out - mean) > bound
    while np.any(bad):
        out[bad] = rng.normal(mean[bad], sigma[bad])
        bad = np.abs(out - mean) > bound
    return out


def quantize_half_up(values: np.ndarray, step: float) -> np.ndarray:
    """Snap to the nearest grid multiple, ties rounding up."""
    values = np.asarray(values, dtype=float)
    return np.floor(values / step + 0.5) * step
