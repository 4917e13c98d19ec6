"""Informational model of the two-layer perceptron.

A 16-8-4 network whose one transfer, ``clip(z, -1, 1)``, is the amplifier
chain's at unity gain (:func:`check_unity_chain`).  Training runs full-batch
adaptive-moment gradient descent; after every epoch the weights can be
clamped to the realizable span, so the result stays within what the
arrays can express.  :func:`forward_stack` is the forward pass of
:func:`forward`.  Every other pass runs through one kernel,
:func:`forward_stack_into`, in buffers its caller owns: each training
epoch, where one pass gives the loss and the gradients, and the
hardening panel, in buffers one ``train_discrete`` call allocates once;
the Monte Carlo trials; the quantized nets of the state sweep; and the
single net that :func:`evaluate` scores.  It adds each bias as the last
term of its layer's product, which rounds as adding it after the product
does, and writes the outputs segment-major, (4, T, m) per segment of m
patterns.  Every error rate comes from one classifier,
:class:`ScoreBatch`, whose segments are the classes.  It runs the kernel
in float32, all else in float64, and decides each pattern by one
sign-exact margin; a realization with a margin inside its float32
rounding bound is scored again in float64, so the counts are float64's.
The tests hold these passes to :func:`forward_stack`, :func:`mse` and
the row-major gradient formulas: bit for bit at the pipeline's pattern
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import EmptyBatchError, NonFiniteLossError, ShapeMismatchError
from .stats import check_ranges, truncated_normal

N_INPUT = 16
N_HIDDEN = 8
N_OUTPUT = 4

# Each layer, in order, and the shape of its weights.  Its parameters are
# ``w_<layer>`` and ``b_<layer>``, one bias per output; ``_PARAMS`` holds
# every parameter's shape, in the order of the flat training vector.
LAYERS = {"hidden": (N_INPUT, N_HIDDEN), "out": (N_HIDDEN, N_OUTPUT)}
_PARAMS = {f"{kind}_{layer}": shape[1:] if kind == "b" else shape
           for layer, shape in LAYERS.items() for kind in "wb"}

LABELS = ("S1", "S2", "S3", "S4", "Sr")
OUTPUT_LABELS = LABELS[:N_OUTPUT]
REJECT_LABEL = LABELS[-1]

# Each error budget, in report order, and the classes whose patterns it pools.
BUDGETS = {"overall": LABELS, "sites": OUTPUT_LABELS,
           "extraneous": (REJECT_LABEL,)}

_SCORE_BYTES = 2 << 20           # hidden layer of one block of scored stacks

# The float32 scorer's proof (ScoreBatch._tolerances): unit roundoffs, the
# allowance each layer adds for underflow, the size past which a float32
# value could overflow, and the gamma factors of each layer's dot products.
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
_UNDERFLOW = 2.0 ** -120
_OVERFLOW = 2.0 ** 100


def _gamma(n: int, u: float) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``."""
    return n * u / (1 - n * u)


_HIDDEN_GAMMA = _gamma(N_INPUT + 3, _U32) + _gamma(N_INPUT + 1, _U64)
_OUTPUT_GAMMA = _gamma(N_HIDDEN + 2, _U32) + _gamma(N_HIDDEN + 1, _U64)

# The one training recipe: Adam's step, moment decays and guard, and the
# derivative saturated units pass to the gradients (see TrainConfig).
ADAM_STEP, ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.02, 0.9, 0.999, 1e-8
TRAIN_LEAK = 0.05


class Activation:
    """The transfer of the unity amplifier chain: clip(z, -1, 1)."""

    def apply(self, z: np.ndarray) -> np.ndarray:
        return np.clip(z, -1.0, 1.0)


# params files from before the transfer was fixed carry this entry, no other
_UNITY_ENTRY = {"slope": 1.0, "lower": -1.0, "upper": 1.0}


@dataclass
class MlpParams:
    """Weights and biases of the 16-8-4 network, one field per ``_PARAMS``
    entry, in its order."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    activation: ClassVar[Activation] = Activation()

    def __post_init__(self):
        for name in _PARAMS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        for name, shape in _PARAMS.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ShapeMismatchError(f"{name}: expected {shape}, got {got}")

    def copy(self) -> "MlpParams":
        return MlpParams(**{name: getattr(self, name).copy()
                            for name in _PARAMS})

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _PARAMS}

    @classmethod
    def from_dict(cls, d: dict) -> "MlpParams":
        """The params of a parsed ``params.json``; ValueError unless its
        ``activation`` entry, if any, is the unity transfer's."""
        act = d.get("activation", _UNITY_ENTRY)
        if act != _UNITY_ENTRY:
            raise ValueError(f"activation must be {_UNITY_ENTRY}, the "
                             f"transfer of the network model, got {act!r}")
        return cls(**{name: np.array(d[name]) for name in _PARAMS})


def check_unity_chain(chain) -> None:
    """Raise ValueError, naming the setting first, unless the crossbar
    config ``chain`` is the circuit this model computes, whose transfer is
    ``clip(z, -1, 1)``; its activation saturates at ``crossbar.U_SAT``,
    1, and its rails may sit anywhere at or above that."""
    rules = {
        "rows": ("an even int >= 16 for the 8 hidden row pairs",
                 lambda v: type(v) is int and v >= 2 * N_HIDDEN
                 and v % 2 == 0),
        "cols": ("an int >= 16 for the 16 inputs",
                 lambda v: type(v) is int and v >= N_INPUT),
        "r_2": (f"r_1 ({chain.r_1!r}) for a difference gain of 1",
                lambda v: v == chain.r_1),
        "u_in_max": (">= 1 to pass every input and hidden output",
                     lambda v: v >= 1),
    }
    check_ranges({name: getattr(chain, name) for name in rules}, rules)


def init_params(rng: np.random.Generator) -> MlpParams:
    """Uniform weights in [-0.5, 0.5], biases at zero."""
    return MlpParams(**{name: np.zeros(shape) if len(shape) == 1
                        else rng.uniform(-0.5, 0.5, size=shape)
                        for name, shape in _PARAMS.items()})


def forward_stack(x: np.ndarray, w_hidden: np.ndarray, b_hidden: np.ndarray,
                  w_out: np.ndarray, b_out: np.ndarray) -> np.ndarray:
    """Output ``f(f(x @ w_hidden + b_hidden) @ w_out + b_out)``.

    ``x`` is a batch (H, 16).  The weights are one realization, (16, 8)
    and (8, 4), or a stack of T realizations, (T, 16, 8) and (T, 8, 4),
    which gives a (T, H, 4) output.  Only the output is returned, so the
    hidden activation is freed as soon as the output layer has used it.
    """
    f = MlpParams.activation
    return f.apply(f.apply(x @ w_hidden + b_hidden) @ w_out + b_out)


def unit_by_pattern(x: np.ndarray) -> np.ndarray:
    """The batch ``x``, (H, 16), unit by pattern with a trailing row of
    ones, (17, H): the input layout of :func:`forward_stack_into`."""
    xT = np.empty((N_INPUT + 1, len(x)))
    xT[:N_INPUT] = x.T
    xT[N_INPUT] = 1.0
    return xT


def stack_buffers(trials: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Work buffers of :func:`forward_stack_into` for up to ``trials``
    realizations of ``h`` patterns: the hidden layer, (trials, 9, h), whose
    last row in each block holds ones, and the output, flat, of
    4 * trials * h elements."""
    hidden = np.empty((trials, N_HIDDEN + 1, h))
    hidden[:, N_HIDDEN] = 1.0
    return hidden, np.empty(N_OUTPUT * trials * h)


def _with_bias(w: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """The stack ``w``, (T, n_in, n_out), as (T, n_out, n_in + 1) in
    ``dtype``: each realization transposed, with ``b`` as its last column."""
    n, n_in, n_out = w.shape
    wb = np.empty((n, n_out, n_in + 1), dtype)
    wb[:, :, :n_in] = w.transpose(0, 2, 1)
    wb[:, :, n_in] = b
    return wb


def forward_stack_into(xT: np.ndarray,
                       w_hidden: np.ndarray, b_hidden: np.ndarray,
                       w_out: np.ndarray, b_out: np.ndarray,
                       hidden: np.ndarray, out: np.ndarray,
                       segments: list) -> list[np.ndarray]:
    """:func:`forward_stack` of T realizations in caller-owned buffers,
    up to the output clip, which each caller applies as far as it needs.

    ``xT`` is the batch as :func:`unit_by_pattern` lays it out, (17, H),
    and the weights are stacks (T, 16, 8) and (T, 8, 4).  ``hidden`` and
    ``out`` are work buffers from :func:`stack_buffers` for at least T
    realizations; ``segments`` are slices that tile the H patterns in
    order.  The pass runs in the buffers' precision: ``xT`` shares it,
    and the weights and biases are rounded to it as they are laid out, so
    no product casts.  The scorer passes float32 buffers, everything else
    float64.  The result is each segment's output, (4, T, m) for its m
    patterns, a contiguous view of ``out`` after the one before, so an
    output of a segment's patterns in every realization is one row.  Each
    bias is the last term of its layer's product: (T, 8, 17) @ (17, H)
    against the ones row of ``xT``, and per segment (T, 4, 9) @ (T, 9, m)
    against the ones row of each hidden block.  Added last, it rounds as
    ``product + bias`` does; clipped, the float64 outputs equal those of
    :func:`forward_stack` bit for bit at 2 000 and 6 000 patterns, and
    with one realization and one OpenBLAS thread differ by up to 2e-15 at
    the H <= 65 with H mod 8 in 1-4.  The hidden clip acts in place.
    """
    n = len(w_hidden)
    hidden = hidden[:n]
    a1 = hidden[:, :N_HIDDEN]
    np.matmul(_with_bias(w_hidden, b_hidden, hidden.dtype), xT, out=a1)
    np.clip(a1, -1.0, 1.0, out=a1)
    w2b = _with_bias(w_out, b_out, hidden.dtype)
    blocks = []
    for cols in segments:
        block = out[N_OUTPUT * n * cols.start:N_OUTPUT * n * cols.stop]
        block = block.reshape(N_OUTPUT, n, cols.stop - cols.start)
        np.matmul(w2b, hidden[:, :, cols], out=block.transpose(1, 0, 2))
        blocks.append(block)
    return blocks


def label_codes(labels) -> np.ndarray:
    """Index of each label in ``LABELS``."""
    index = {lb: k for k, lb in enumerate(LABELS)}
    return np.array([index[lb] for lb in labels], dtype=np.intp)


class ScoreBatch:
    """Labelled patterns and their scoring buffers: the one classifier of
    every network the toolkit scores.

    A stack of T weight realizations is scored in blocks of at most
    ``trials`` realizations whose float32 hidden layer, about
    ``_SCORE_BYTES`` (32 realizations of 2 000 patterns), stays in a
    core's cache: each block runs through :func:`forward_stack_into` into
    buffers allocated once, here, so scoring allocates no array of T * H
    elements.

    The prediction is the first maximal output, or the reject class where
    that maximum is not positive.  The patterns are sorted by class once,
    so each class is one segment, and its rule runs on the segment's
    contiguous output rows of T * m values as one sign-exact margin per
    pattern (:func:`_margin`), positive exactly where the pattern is
    classified right, and a trial's right patterns are one
    ``np.add.reduce`` of that sign along its row.  No rule can tell an
    output below -1 from -1, nor the Sr rule one above 1 from 1, so only
    the S1..S4 outputs are clipped, and only at 1, where two outputs above
    it tie.  A NaN output rejects.

    The counts are those of float64, the precision of :func:`forward_stack`,
    bit for bit.  Each block is scored in float32, and a realization's
    float32 decisions are kept where every margin exceeds its tolerance
    (:meth:`_tolerances`), which bounds how far each float32 margin can lie
    from the float64 one.  The realizations with a margin at or inside it,
    NaN included, are scored again in float64, at most ``wide`` at a time.
    A realization's float64 product does not depend on which others share
    its stack, so they count as a float64 pass of every block would.  The
    float32 buffers are views of the float64 ones, so each block sets its
    ones rows, and once the outputs are in, its spent hidden layer holds
    the rule's rivals and margins; ``_rechecked`` counts the realizations
    scored again.  Every rate is ``100.0 * wrong / patterns``, rounded
    once: the product is exact.
    """

    def __init__(self, net: MlpParams, x: np.ndarray, codes: np.ndarray,
                 trials: int):
        x = np.asarray(x, dtype=float)
        if x.shape != (len(codes), N_INPUT):
            raise ShapeMismatchError(f"need ({len(codes)}, {N_INPUT}) patterns "
                                     f"for {len(codes)} labels, got {x.shape}")
        if not len(codes):
            raise EmptyBatchError("the batch to score holds no patterns")
        self.net = net
        self.patterns = len(codes)
        self.x_max = float(np.abs(x).max())
        self.sizes = sizes = np.bincount(codes, minlength=len(LABELS)).tolist()
        stops = np.cumsum(sizes).tolist()
        self.classes = [c for c, size in enumerate(sizes) if size]
        self.columns = [slice(stops[c] - sizes[c], stops[c])
                        for c in self.classes]
        self.sites = stops[N_OUTPUT - 1]         # patterns of S1..S4
        h = len(x)
        fit = _SCORE_BYTES // (N_HIDDEN * h * np.float32().itemsize)
        b = self.block = max(1, min(trials, fit))
        self.wide = -(-b // 2)                   # float64 realizations
        hidden, out = stack_buffers(self.wide, h)
        xT = unit_by_pattern(x[np.argsort(codes, kind="stable")])
        narrow = hidden.reshape(-1).view(np.float32)
        self.views = {
            np.float64: (xT, hidden, out),
            np.float32: (xT.astype(np.float32),
                         narrow.reshape(-1, N_HIDDEN + 1, h),
                         out.view(np.float32)),
        }
        self.mask = np.empty(b * max(sizes), dtype=bool)   # classified right
        self._rechecked = 0

    def errors(self, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Misclassified patterns per realization and class, (T, 5)."""
        counts = np.zeros((len(w1), len(LABELS)))
        tolerance = self._tolerances(w1, w2)
        for start in range(0, len(w1), self.block):
            rows = slice(start, start + self.block)
            closest = self._score_block(w1[rows], w2[rows], counts[rows],
                                        np.float32)
            unsure = start + np.flatnonzero(~(closest > tolerance[rows]))
            for first in range(0, len(unsure), self.wide):
                again = unsure[first:first + self.wide]
                redo = counts[again]             # a copy
                self._score_block(w1[again], w2[again], redo, np.float64)
                counts[again] = redo
                self._rechecked += len(again)
        return counts

    def error_rates(self, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Share of misclassified patterns per realization, in percent."""
        return _percent(self.errors(w1, w2).sum(axis=1), self.patterns)

    def rates(self, counts: np.ndarray):
        """Error rates in percent, by ``BUDGETS`` entry and by class present,
        of the per-class error counts ``counts``, (T, 5), of realizations
        of this batch; a budget of no patterns is 0."""
        def pooled(labels: tuple) -> np.ndarray:
            classes = [LABELS.index(lb) for lb in labels]
            size = sum(self.sizes[c] for c in classes)
            if not size:
                return np.zeros(len(counts))
            return _percent(counts[:, classes].sum(axis=1), size)

        return ({name: pooled(labels) for name, labels in BUDGETS.items()},
                {LABELS[c]: _percent(counts[:, c], self.sizes[c])
                 for c in self.classes})

    def _tolerances(self, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Per realization, the margin beyond which a float32 decision is
        the float64 one: twice a bound on ``|o32 - o64|``, or inf.

        A sum of n products, in any order and with or without fused
        multiply-adds, lies within ``gamma_n = n u / (1 - n u)`` times the
        sum of the products' magnitudes of its exact value (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3; u
        is 2^-24 in float32, 2^-53 in float64).  A hidden unit's 17 terms,
        with the float32 rounding of its weights and inputs, so lie within
        ``gamma32(19) + gamma64(17)`` times ``max|x| sum|w| + |b|`` of each
        other, plus ``2^-120 (1 + max|x|)(1 + sum|w| + |b|)`` for
        underflow; the clip is 1-Lipschitz.  An output's 9 terms, whose
        hidden values lie in [-1, 1], add ``gamma32(10) + gamma64(9)``
        times ``sum|w| + |b|``, its weights' magnitudes times the hidden
        bounds, and 2^-120.  A margin compares two outputs, or one with 0,
        so twice the largest output bound, grown by 8 u32 for the margin's
        own float32 rounding, the subnormal it may add and the bound's
        float64 rounding, decides it.  Where a float32 value could
        overflow -- an input, a hidden weight row sum or the bound at
        2^100 or more, or not finite -- the tolerance is inf; so is that
        of every realization whose float32 outputs can hold NaN.
        """
        net, x_max = self.net, self.x_max
        rows = np.ones(N_INPUT) @ np.abs(w1)              # (T, 8)
        b1 = np.abs(net.b_hidden)
        hidden = (_HIDDEN_GAMMA * (x_max * rows + b1)
                  + _UNDERFLOW * (1 + x_max) * (1 + rows + b1))
        outputs = ((hidden + _OUTPUT_GAMMA)[:, None] @ np.abs(w2))[:, 0]
        bound = (outputs + _OUTPUT_GAMMA * np.abs(net.b_out)
                 + _UNDERFLOW).max(axis=1)
        safe = ((bound < _OVERFLOW) & (rows.max(axis=1) < _OVERFLOW)
                & (x_max < _OVERFLOW))
        return np.where(safe, 2 * (1 + 8 * _U32) * bound, np.inf)

    def _score_block(self, w1: np.ndarray, w2: np.ndarray,
                     counts: np.ndarray, dtype) -> np.ndarray:
        """Per-class error counts of the realizations ``w1`` and ``w2``,
        scored in ``dtype``, into ``counts``; returns each realization's
        smallest ``|margin|``."""
        n, net = len(w1), self.net
        xT, hidden, out = self.views[dtype]
        hidden[:n, N_HIDDEN] = 1.0
        blocks = forward_stack_into(xT, w1, net.b_hidden, w2, net.b_out,
                                    hidden, out, self.columns)
        sites = out[:N_OUTPUT * n * self.sites]     # Sr's come last
        np.minimum(sites, 1.0, out=sites)
        spent = hidden.reshape(-1)
        closest = np.full(n, np.inf, dtype)
        for c, o in zip(self.classes, blocks):
            size = o.shape[2]
            best, e, right = (part[:n * size].reshape(n, size) for part in
                              (spent, spent[n * size:], self.mask))
            _margin(o, c, best, e)
            np.greater(e, 0.0, out=right)
            counts[:, c] = size - np.add.reduce(right, axis=1, dtype=np.intp)
            np.minimum(closest, np.minimum.reduce(np.abs(e, out=e), axis=1),
                       out=closest)
        return closest


def _percent(wrong: np.ndarray, patterns) -> np.ndarray:
    """``wrong`` of ``patterns`` patterns, in percent, rounded once."""
    return 100.0 * wrong / patterns


def _maximum(o: np.ndarray, rows: slice, best: np.ndarray,
             floor: float | None = None):
    """Elementwise maximum of the rows ``o[rows]`` and of ``floor`` if
    given: computed into ``best``, or the one operand if there is one."""
    part = o[rows]
    if len(part) == 0:
        return floor
    top = part[0] if len(part) == 1 else np.maximum.reduce(part, out=best)
    return top if floor is None else np.maximum(top, floor, out=best)


def _margin(o: np.ndarray, c: int, best: np.ndarray,
            e: np.ndarray) -> np.ndarray:
    """Into ``e``: the decision margin of each output of ``o``, (4, T, m),
    of patterns of class ``c``, (T, m), positive exactly where the first
    maximal output, or Sr where no output is positive, is ``c``.

    For c < 4 it is ``min(o_c - max(0, o_k<c), (o_c - max(o_k>c)) + t)``,
    for Sr ``t - max(o_k)``, where t is the smallest subnormal.  A
    floating difference has the sign of the exact one, with gradual
    underflow (Goldberg, ACM Computing Surveys 23(1), 1991), so each
    ``>`` is the sign of a difference.  Every float is a multiple of t,
    so adding t lifts a zero difference, and only a zero one, above 0,
    as ``nextafter(d, +inf)`` would at a tenth of its cost: it turns the
    ``>=`` against a later rival, and the Sr maximum's ``<= 0``, into a
    sign.  ``np.maximum`` propagates NaN and a NaN output rejects, so it
    gives a site pattern a NaN margin and an Sr pattern, through
    ``np.fmin``, a margin of +inf.
    """
    t = np.finfo(e.dtype).smallest_subnormal
    if c == N_OUTPUT:
        np.subtract(t, _maximum(o, slice(None), best), out=e)
        return np.fmin(e, np.inf, out=e)
    np.subtract(o[c], _maximum(o, slice(c), best, 0.0), out=e)
    if c < N_OUTPUT - 1:
        later = np.subtract(o[c], _maximum(o, slice(c + 1, None), best),
                            out=best)
        later += t
        np.minimum(e, later, out=e)
    return e


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Network output for one pattern (16,) or a batch (H, 16)."""
    x = np.asarray(x, dtype=float)
    xb = x[None, :] if x.ndim == 1 else x
    if xb.shape[1] != N_INPUT:
        raise ShapeMismatchError(f"expected {N_INPUT} inputs, got {xb.shape[1]}")
    out = forward_stack(xb, params.w_hidden, params.b_hidden, params.w_out,
                        params.b_out)
    return out[0] if x.ndim == 1 else out


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean over patterns of the component-summed squared error."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ShapeMismatchError(f"{y_true.shape} vs {y_pred.shape}")
    if y_true.ndim == 1:
        return float(np.sum((y_true - y_pred) ** 2))
    return float(np.mean(np.sum((y_true - y_pred) ** 2, axis=1)))


class _TrainBatch:
    """Training patterns and the work buffers of one ``train_discrete`` call.

    Every pass takes its outputs from :func:`forward_stack_into`, clipped
    in place, in one pair of :func:`stack_buffers` that the epoch pass
    and the panel score share, and one squared-error reduction gives
    every loss.  An epoch allocates no array of H elements.  The buffers
    are unit-by-pattern, (units, H), so the elementwise loops and the
    sums over patterns run along contiguous rows.

    At 40 and 6 000 patterns (not 41 or 44), the results equal the
    row-major formulas bit for bit: the loss ``mse(y, forward(params, x))``,
    the weight gradients the plain row-major expressions, and the panel
    score the same score over :func:`forward_stack`.  OpenBLAS rounds a product differently when
    its operands are laid out differently: ``x.T @ d1.T`` and
    ``(d2_rows.T @ a1.T).T`` round like the row-major ``x.T @ d1`` and
    ``a1.T @ d2``, while ``xT @ d1.T`` and ``a1 @ d2.T`` do not.  The
    bias gradients are numpy's pairwise sums along the contiguous rows of
    the deltas: no BLAS, so no thread count changes them.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, panel: int = 0):
        self.x = x
        self.xT = unit_by_pattern(x)
        self.yT = np.ascontiguousarray(y.T)
        h = x.shape[0]
        self.d = tuple(np.empty((n, h)) for _, n in LAYERS.values())
        self.d2_rows = np.empty((h, N_OUTPUT))
        self.hidden, self.out = stack_buffers(max(panel, 1), h)

    def _outputs(self, params: MlpParams, w_hidden: np.ndarray,
                 w_out: np.ndarray) -> np.ndarray:
        """Clipped outputs, (4, T, H), of the stacks with the biases of
        ``params``; the hidden activations stay in ``hidden``."""
        out, = forward_stack_into(self.xT, w_hidden, params.b_hidden, w_out,
                                  params.b_out, self.hidden, self.out,
                                  [slice(0, len(self.x))])
        return np.clip(out, -1.0, 1.0, out=out)

    def _losses(self, out: np.ndarray) -> np.ndarray:
        """Mean over patterns of the component-summed squared error of each
        realization's clipped outputs ``out``, (4, T, H), which it
        overwrites with the squared errors."""
        out -= self.yT[:, None]
        out *= out
        total = out[0]
        for k in range(1, N_OUTPUT):
            total += out[k]
        return total.mean(axis=1)

    def loss(self, params: MlpParams) -> float:
        """Exact-model loss, equal to ``mse(y, forward(params, x))``."""
        return float(self._losses(self._outputs(
            params, params.w_hidden[None], params.w_out[None]))[0])

    def loss_and_gradients(self, params: MlpParams,
                           leak: float) -> tuple[float, dict]:
        """Exact-model loss and the MSE gradients at the same weights.

        A unit whose clipped activation is not in (-1, 1), NaN included,
        passes ``leak`` to the gradients (at ``z = +-1`` too, as PyTorch's
        ``Hardtanh`` does); the loss never depends on ``leak``.
        """
        if not 0 <= leak <= 1:
            raise ValueError(f"leak must lie in [0, 1], got {leak}")
        out = self._outputs(params, params.w_hidden[None], params.w_out[None])
        a1, a2 = self.hidden[0, :N_HIDDEN], out[:, 0]
        d1, d2 = self.d
        g2 = _derivative(a2, leak, d1[:N_OUTPUT])   # until d1 is formed
        np.subtract(a2, self.yT, out=d2)
        d2 *= 2.0
        d2 /= self.x.shape[0]
        d2 *= g2
        np.copyto(self.d2_rows, d2.T)
        w_out = (self.d2_rows.T @ a1.T).T.copy()  # a1 turns into factors
        np.matmul(params.w_out, d2, out=d1)
        d1 *= _derivative(a1, leak, a1)
        grads = {
            "w_hidden": self.x.T @ d1.T,
            "w_out": w_out,
            "b_hidden": d1.sum(axis=1),
            "b_out": d2.sum(axis=1),
        }
        return float(self._losses(out)[0]), grads

    def panel_score(self, params: MlpParams, panel: dict,
                    cfg: TrainConfig) -> float:
        """Worst exact-model loss over the frozen perturbation panel."""
        w1 = params.w_hidden + panel["w_hidden"] * _noise_sigma(
            params.w_hidden, cfg)
        w2 = params.w_out + panel["w_out"] * _noise_sigma(params.w_out, cfg)
        return float(self._losses(self._outputs(params, w1, w2)).max())


def _derivative(a: np.ndarray, leak: float, out: np.ndarray) -> np.ndarray:
    """Into ``out``, which may be ``a``: 1 where ``|a| < 1`` and ``leak``,
    in [0, 1], elsewhere, as the maximum of that mask and ``leak``."""
    np.abs(a, out=out)
    np.less(out, 1.0, out=out)
    return np.maximum(out, leak, out=out)


def gradients(params: MlpParams, x: np.ndarray, y: np.ndarray,
              leak: float = 0.0):
    """Analytic MSE gradients.

    Saturated units pass ``leak``; ``leak=0`` is the exact gradient and a
    positive leak, at most 1, is the training surrogate (training passes
    ``TRAIN_LEAK``; see :class:`TrainConfig`).
    """
    batch = _TrainBatch(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return batch.loss_and_gradients(params, leak)[1]


# Accepted values of each TrainConfig field; NaN fails every comparison.
# The `train` section of a run config may set only the stopping settings;
# the pipeline derives the noise and realizability settings per phase.
_STOPPING = ("max_epochs", "mse_target")
_CONFIG_RANGES = {
    "max_epochs": ("an int >= 0", lambda v: type(v) is int and v >= 0),
    "mse_target": ("finite and >= 0", lambda v: 0 <= v < math.inf),
    "weight_noise": ("finite and >= 0", lambda v: 0 <= v < math.inf),
    "noise_offset": ("finite and >= 0", lambda v: 0 <= v < math.inf),
    "weight_limit": ("None or finite and > 0", lambda v: 0 < v < math.inf),
}


def check_train_settings(settings: dict) -> None:
    """Raise ValueError, naming the setting first, unless each entry of
    ``settings`` is a stopping setting of :class:`TrainConfig` in range."""
    for name in settings:
        if name not in _STOPPING:
            raise ValueError(f"{name} is not a training setting")
    check_ranges(settings, _CONFIG_RANGES)


@dataclass
class TrainConfig:
    """Stopping settings, weight noise and the realizable weight span.

    The optimizer is fixed (the ``ADAM_`` constants).  ``TRAIN_LEAK`` is
    the training-time derivative assigned to the saturated region of the
    activation.  With a strictly zero subgradient a unit whose
    pre-activation leaves the linear region on the wrong side stops
    receiving any pull and can never recover; a small leak keeps such
    units trainable.  The loss, and so the curve, never depends on it.

    ``weight_noise`` turns on hardening against component errors: each
    epoch the gradient is taken at weights jittered with standard
    deviation ``weight_noise * sqrt((|w| + offset)^2 + offset^2)``, the
    error a weight built from two perturbed resistive branches actually
    sees (``noise_offset`` is the fixed-branch contribution in weight
    units).  The returned network is then the epoch with the lowest
    worst-case loss over a frozen panel of 8 perturbations rather than the
    lowest clean loss, which favors wide minima over sharp ones.  In such
    a run the curve records, for each epoch, the loss at the jittered
    weights the gradient was taken at.

    The constructor refuses, with ValueError, a stopping setting out of
    the range :func:`check_train_settings` gives it, a noise setting that
    is not finite and >= 0 and a ``weight_limit`` that is neither None nor
    finite and > 0.
    """

    mse_target: float = 1e-4
    max_epochs: int = 10000
    weight_limit: float | None = None
    weight_noise: float = 0.0          # relative sigma of the jitter
    noise_offset: float = 0.0          # fixed-branch term, weight units

    def __post_init__(self):
        settings = {name: getattr(self, name) for name in _CONFIG_RANGES}
        if self.weight_limit is None:
            del settings["weight_limit"]
        check_ranges(settings, _CONFIG_RANGES)


@dataclass
class TrainResult:
    params: MlpParams
    # index 0 is the starting loss; then one point per epoch: the exact
    # loss of the projected network, or in a noisy run the loss at that
    # epoch's jittered weights
    curve: np.ndarray
    converged: bool
    epochs: int
    final_mse: float                   # exact-model loss of ``params``


def _project(params: MlpParams, cfg: TrainConfig) -> None:
    """Clamp the weights in place, so views stay views."""
    if cfg.weight_limit is not None:
        np.clip(params.w_hidden, -cfg.weight_limit, cfg.weight_limit,
                out=params.w_hidden)
        np.clip(params.w_out, -cfg.weight_limit, cfg.weight_limit,
                out=params.w_out)


_PARAM_ENDS = tuple(np.cumsum([math.prod(s) for s in _PARAMS.values()]))
_PANEL = 8                       # perturbations in the hardening panel
_PANEL_STRIDE = 10               # epochs between two panel scores


def _unflatten(flat: np.ndarray) -> MlpParams:
    """Params whose four arrays are views into ``flat``."""
    parts = np.split(flat, _PARAM_ENDS[:-1])
    return MlpParams(**{name: p.reshape(shape)
                        for p, (name, shape) in zip(parts, _PARAMS.items())})


class _Adam:
    """Adaptive-moment step over the flat parameter vector, in place.

    Each operation is the elementwise one of the per-array update
    ``m = beta1 * m + (1 - beta1) * g``,
    ``v = beta2 * v + (1 - beta2) * g * g`` and
    ``w -= step * m_hat / (sqrt(v_hat) + eps)``, with the ``ADAM_``
    constants, in the same order, so the result is the same bit for bit.
    """

    def __init__(self):
        n = _PARAM_ENDS[-1]
        self.m, self.v = np.zeros(n), np.zeros(n)
        self.g, self.t, self.d = np.empty(n), np.empty(n), np.empty(n)

    def step(self, flat: np.ndarray, grads: dict, epoch: int) -> None:
        m, v, g, t, d = self.m, self.v, self.g, self.t, self.d
        np.concatenate([grads[k].ravel() for k in _PARAMS], out=g)
        m *= ADAM_BETA1
        np.multiply(g, 1 - ADAM_BETA1, out=t)
        m += t                                   # m
        v *= ADAM_BETA2
        np.multiply(g, 1 - ADAM_BETA2, out=t)
        t *= g
        v += t                                   # v
        np.divide(m, 1 - ADAM_BETA1 ** epoch, out=t)
        t *= ADAM_STEP                           # step * m_hat
        np.divide(v, 1 - ADAM_BETA2 ** epoch, out=d)
        np.sqrt(d, out=d)
        d += ADAM_EPS                            # sqrt(v_hat) + eps
        t /= d
        flat -= t


def _noise_sigma(w: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    c = cfg.noise_offset
    return cfg.weight_noise * np.sqrt((np.abs(w) + c) ** 2 + c ** 2)


def _finite(loss: float) -> float:
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss became {loss}")
    return loss


def _measure(batch: _TrainBatch, at: MlpParams) -> tuple[float, dict]:
    """Loss of ``at`` and the gradients there, from one pass."""
    loss, grads = batch.loss_and_gradients(at, TRAIN_LEAK)
    return _finite(loss), grads


def train_discrete(params: MlpParams, x: np.ndarray, y: np.ndarray,
                   cfg: TrainConfig,
                   rng: np.random.Generator | None = None) -> TrainResult:
    """Full-batch adaptive-moment descent with projection every epoch.

    After each update the weights are clamped to the realizable span, so
    the trajectory never leaves what the arrays can express.

    Without weight noise the returned params are the best-loss epoch, the
    loop stops once the loss target is met, and the curve records the
    exact-model loss of each epoch's projected network.  With
    ``cfg.weight_noise`` set (which requires ``rng``) the loop always
    runs ``max_epochs``, gradients are taken at jittered weights, and the
    returned params are the epoch with the best frozen-panel worst-case
    loss.  Each noisy epoch then makes one pass: the curve records the
    loss at that epoch's jittered weights, and the exact-model loss is
    computed only for a network that becomes the new best, so
    ``final_mse`` is still the exact loss of the returned params.  Point 0
    of the curve is the exact loss of the projected start in both cases.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    noisy = cfg.weight_noise > 0
    if noisy and rng is None:
        raise ValueError("weight_noise > 0 requires an rng")
    batch = _TrainBatch(x, y, _PANEL if noisy else 0)
    flat = np.concatenate([getattr(params, k).ravel() for k in _PARAMS])
    work = _unflatten(flat)
    _project(work, cfg)
    if noisy:
        loss = _finite(batch.loss(work))
        panel = {k: truncated_normal(rng, 0.0, 1.0, 3.0,
                                     (_PANEL,) + getattr(work, k).shape)
                 for k in ("w_hidden", "w_out")}
        best_score = batch.panel_score(work, panel, cfg)
    else:
        loss, grads = _measure(batch, work)
        best_score = loss
    curve = [loss]
    best, best_loss = flat.copy(), loss
    adam = _Adam()
    epoch = 0
    while epoch < cfg.max_epochs and (noisy or loss > cfg.mse_target):
        epoch += 1
        if noisy:
            jittered = {}
            for k in ("w_hidden", "w_out"):
                w = getattr(work, k)
                jitter = truncated_normal(rng, 0.0, 1.0, 3.0, w.shape)
                jittered[k] = w + _noise_sigma(w, cfg) * jitter
            at = replace(work, **jittered)
            loss, grads = _measure(batch, at)
            curve.append(loss)
        adam.step(flat, grads, epoch)
        _project(work, cfg)
        if not noisy:
            loss, grads = _measure(batch, work)
            curve.append(loss)
            if loss < best_score:
                best_score, best_loss = loss, loss
                np.copyto(best, flat)
        elif epoch % _PANEL_STRIDE == 0 or epoch == cfg.max_epochs:
            score = batch.panel_score(work, panel, cfg)
            if score < best_score:
                best_score, best_loss = score, _finite(batch.loss(work))
                np.copyto(best, flat)
    return TrainResult(params=_unflatten(best),
                       curve=np.array(curve),
                       converged=best_loss <= cfg.mse_target, epochs=epoch,
                       final_mse=float(best_loss))


def evaluate(params: MlpParams, x: np.ndarray, labels) -> float:
    """Error rate of the network on labelled patterns, in percent."""
    scorer = ScoreBatch(params, x, label_codes(labels), 1)
    return float(scorer.error_rates(params.w_hidden[None],
                                    params.w_out[None])[0])
