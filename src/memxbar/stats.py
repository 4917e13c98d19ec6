"""Small sampling helpers shared by the dataset, pipeline and tolerance code.

:func:`substream` and :func:`subseed` are the only places where a key of
nonnegative ints (master seed, stream id, counters) becomes a stream,
through numpy's ``SeedSequence``; a negative entry raises ValueError.
"""

from __future__ import annotations

import math

import numpy as np

CP_ALPHA = 0.05         # clopper_pearson_upper gives a one-sided 95 % bound


def substream(*key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def subseed(*key: int) -> int:
    """64-bit integer seed for the stream identified by ``key``."""
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def is_real(value) -> bool:
    """An int or a float, numpy floats included; a bool is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_ranges(values: dict, ranges: dict) -> None:
    """Raise ValueError, naming the setting first, unless
    ``ranges[name] = (rule, accepts)`` accepts each entry of ``values``, in
    order.  A bool, alone or in a tuple, is no number, and a value that
    makes ``accepts`` raise TypeError (a string, null or a tuple compared
    with a number, say) is refused too."""
    for name, value in values.items():
        rule, accepts = ranges[name]
        parts = value if type(value) is tuple else (value,)
        try:
            if all(type(v) is not bool for v in parts) and accepts(value):
                continue
        except TypeError:
            pass
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _at(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values`` broadcast to ``mask`` and taken where it is set; a
    scalar stands for every entry as it is."""
    return values if values.ndim == 0 else np.broadcast_to(values,
                                                           mask.shape)[mask]


def _outside(values: np.ndarray, mean: np.ndarray, bound) -> np.ndarray:
    """Where ``|values - mean| > bound``, with one temporary array."""
    dev = values - mean
    return np.abs(dev, out=dev) > bound


def truncated_normal(rng: np.random.Generator, mean, sigma, limit_sigmas: float,
                     size, out: np.ndarray | None = None) -> np.ndarray:
    """Normal draws redrawn until within +/- limit_sigmas standard deviations.

    ``mean``, ``sigma`` and ``limit_sigmas`` broadcast to ``size``.  numpy
    forms ``rng.normal(mean, sigma)`` as ``mean + sigma * g`` from one
    standard normal ``g`` per entry, in order, so the draws equal
    ``rng.normal`` bit for bit, with only the rejected entries redrawn.
    After the first pass only the entries just redrawn are tested again.
    Given ``out``, a float array of shape ``size``, the draws fill it.
    """
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    out = rng.standard_normal(size, out=out)
    out *= sigma
    out += mean
    bound = limit_sigmas * sigma
    bad = _outside(out, mean, bound)
    where = np.flatnonzero(bad)          # in the order of ``out[bad]``
    mean, sigma, bound = (_at(v, bad) for v in (mean, sigma, bound))
    flat = out.reshape(-1)               # a view: ``out`` is contiguous
    while where.size:
        redraw = rng.standard_normal(where.size)
        redraw *= sigma
        redraw += mean
        flat[where] = redraw
        bad = _outside(redraw, mean, bound)
        where = where[bad]
        mean, sigma, bound = (_at(v, bad) for v in (mean, sigma, bound))
    return out


def clopper_pearson_upper(k: int, n: int) -> float:
    """One-sided 95 % Clopper-Pearson upper bound on a binomial probability.

    The p at which ``k`` or fewer events in ``n`` trials have probability
    ``CP_ALPHA``, found by bisection on the binomial CDF.  For ``k = 0`` it
    is ``1 - CP_ALPHA ** (1 / n)``.
    """
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n and n >= 1, got k={k}, n={n}")
    if k == n:
        return 1.0
    i = np.arange(k + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(j + 1)
                           - math.lgamma(n - j + 1) for j in range(k + 1)])

    def cdf(p: float) -> float:
        terms = log_choose + i * math.log(p) + (n - i) * math.log1p(-p)
        top = terms.max()
        return math.exp(top) * float(np.exp(terms - top).sum())

    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if cdf(mid) > CP_ALPHA:
            lo = mid
        else:
            hi = mid


def quantize_half_up(values: np.ndarray, step: float) -> np.ndarray:
    """Snap to the nearest grid multiple, ties rounding up."""
    values = np.asarray(values, dtype=float)
    return np.floor(values / step + 0.5) * step
