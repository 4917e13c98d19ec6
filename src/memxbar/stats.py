"""Small sampling helpers shared by the dataset, pipeline and tolerance code.

:func:`substream`, :func:`substreams` and :func:`subseed` are the only
places where a key of nonnegative ints (master seed, stream id, counters)
becomes a stream.  :func:`substreams` gives the streams of many
consecutive counters at once: it replays numpy's ``SeedSequence`` hash
for all of them in one vectorized pass, so each stream is the one
:func:`substream` gives for the same key, bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

CP_ALPHA = 0.05         # clopper_pearson_upper gives a one-sided 95 % bound

# numpy's SeedSequence algorithm (numpy/random/bit_generator.pyx): a pool
# of 4 uint32 words filled and mixed by ``hashmix``/``mix``, then hashed
# out by ``generate_state``.  numpy keeps it fixed for reproducibility;
# tests/test_stats.py checks substreams against SeedSequence itself.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_WORD = 2 ** 32


def substream(*key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _key_words(key) -> list[int]:
    """The uint32 words SeedSequence assembles from a key of ints: each
    int little-endian in as many words as it needs, 0 as one word."""
    words = []
    for n in map(operator.index, key):
        if n < 0:
            raise ValueError(f"key entries must be >= 0, got {n}")
        words.append(n % _WORD)
        while n >= _WORD:
            n //= _WORD
            words.append(n % _WORD)
    return words


class _Hashmix:
    """SeedSequence's ``hashmix``, which advances its multiplier per call."""

    def __init__(self):
        self.const = _INIT_A

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * _MULT_A % _WORD
        value *= np.uint32(self.const)
        return value ^ (value >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _seed_states(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of many keys at
    once, as a (keys, 4) array; ``entropy`` holds the keys' uint32 words,
    word by word, one entry per key."""
    hashmix = _Hashmix()
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    state = np.empty((len(zero), 2 * _POOL_SIZE), dtype="<u4")
    const = _INIT_B
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B % _WORD
        value *= np.uint32(const)
        state[:, i_dst] = value ^ (value >> np.uint32(_XSHIFT))
    return state.view("<u8").astype(np.uint64)


@functools.cache
def _preset_seed() -> type:
    """numpy ``ISeedSequence`` holding the 4 uint64 words PCG64 seeds
    itself from.  Made on first use, so that importing memxbar does not
    load numpy.random, which would raise every workload's peak memory."""

    class PresetSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
                raise ValueError("a preset seed holds only PCG64's 4 uint64 "
                                 "words")
            return self.state

    return PresetSeed


def substreams(*prefix: int, start: int,
               count: int) -> list[np.random.Generator]:
    """``[substream(*prefix, start + k) for k in range(count)]``, bit for
    bit, with the seeds of all ``count`` streams hashed in one pass.

    Each counter is one uint32 word of the key, so the counters
    ``start .. start + count - 1`` must lie in [0, 2**32); otherwise
    ValueError.  Each generator's ``bit_generator.seed_seq`` is a preset
    seed, not a ``SeedSequence``, so it cannot ``spawn``.
    """
    start, count = operator.index(start), operator.index(count)
    if start < 0 or count < 0 or start + count > _WORD:
        raise ValueError("counters must lie in [0, 2**32), got "
                         f"start={start}, count={count}")
    if not count:
        return []
    counters = np.arange(start, start + count, dtype=np.int64).astype(np.uint32)
    entropy = [np.full(count, word, dtype=np.uint32)
               for word in _key_words(prefix)] + [counters]
    preset = _preset_seed()
    return [np.random.Generator(np.random.PCG64(preset(state)))
            for state in _seed_states(entropy)]


def subseed(*key: int) -> int:
    """64-bit integer seed for the stream identified by ``key``."""
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def is_real(value) -> bool:
    """An int or a float, numpy floats included; a bool is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_ranges(values: dict, ranges: dict) -> None:
    """Raise ValueError, naming the setting first, unless each entry of
    ``values`` is a number that ``ranges[name] = (rule, accepts)`` accepts."""
    for name, value in values.items():
        rule, accepts = ranges[name]
        if not (is_real(value) and accepts(value)):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def _at(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values`` broadcast to ``mask`` and taken where it is set; a
    scalar stands for every entry as it is."""
    return values if values.ndim == 0 else np.broadcast_to(values,
                                                           mask.shape)[mask]


def truncated_normal(rng: np.random.Generator, mean, sigma, limit_sigmas: float,
                     size) -> np.ndarray:
    """Normal draws redrawn until within +/- limit_sigmas standard deviations.

    ``mean``, ``sigma`` and ``limit_sigmas`` broadcast to ``size``.  numpy
    forms ``rng.normal(mean, sigma)`` as ``mean + sigma * g`` from one
    standard normal ``g`` per entry, in order, so the draws equal
    ``rng.normal`` bit for bit, with only the rejected entries redrawn.
    """
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    out = rng.standard_normal(size)
    out *= sigma
    out += mean
    bound = limit_sigmas * sigma
    bad = np.abs(out - mean) > bound
    while bad.any():
        redraw = rng.standard_normal(np.count_nonzero(bad))
        redraw *= _at(sigma, bad)
        redraw += _at(mean, bad)
        out[bad] = redraw
        bad = np.abs(out - mean) > bound
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
