"""Monte Carlo stress analysis of a compiled network.

Physical parameters (memristor resistances per cell, feedback resistor per
summing amplifier) are perturbed with truncated normal errors, weights are
rebuilt from the perturbed values, and the error rate on a held-out set is
evaluated per trial.  Analysis checks the worst trial against a permitted
error level; synthesis searches for the widest error limits that still
pass.

Each trial draws its randomness once, in standard units: one value ``z``
per perturbed part (344 for the 16-8-4 network), truncated at the part's
``limit_sigmas``, and the part's value is ``nominal * (1 + spec.sigma *
z)``.  The draws are keyed by fixed blocks of ``_DRAW_BLOCK`` trials:
:func:`trial_draws` fills each block's rows with one ``truncated_normal``
call on the block's own counter-derived substream.  So each trial's ``z``
is a fixed function of the seed and the trial, reports are reproducible
bit for bit, independent of chunk size, and ``z`` does not depend on any
error limit.
Synthesis draws ``z`` once and every probe reuses it (common random
numbers), so probes at different limits score the same trials and the
bisection compares limits, not noise.  One scorer serves the whole
search; a probe builds and scores its trials in order, one scorer block
at a time, and stops at its first trial that misses the budget, so it
covers trials 0 to k whatever the chunk size.  Specs that perturb
nothing give every trial the nominal weights, so such a probe, the zero
point every search starts from, scores one realization for all trials.

Trials are scored serially, chunk by chunk, by the network's one
classifier, :class:`~memxbar.netmodel.ScoreBatch`, in buffers that each
analysis or search allocates once: blocks of trials small enough to stay
in a core's cache run through the stacked forward kernel that training
shares, in float32, and each class's errors are counted on its own
contiguous segment of the outputs; the few trials whose decisions
float32 cannot certify are scored again in float64, so every count is
float64's.  An analysis takes each synapse's weight-error
band from the weight stacks of the trials it scores, so the band and
the verdict share one draw and one error model, in which each row of a
pair has its own feedback resistor.  Per synapse it keeps only the few
smallest and largest errors that the percentile reads, so band memory
does not grow with the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import NoPassingPointError
from .mapping import (CompiledNet, ResistanceRange, SynapseNominals,
                      quantize_weights, symmetric_weight_states)
from .netmodel import LABELS, MlpParams, ScoreBatch, label_codes
from .reports import write_trials_csv
from .stats import (clopper_pearson_upper, is_real, substream,
                    truncated_normal)

PERCENTILE_PAIR = (0.05, 99.95)   # weight-band and report percentiles

# Components a synthesis plan point can set an error limit for.
COMPONENTS = ("r_m1", "r_m2", "r_f")

# Defaults of ``tolerance_set``: the error limits of the memristors and the
# feedback resistors (fractions) and the truncation of their distributions,
# in sigmas.
TOLERANCE_DEFAULTS = {"r_m": 0.2, "r_f": 0.01, "limit_sigmas": 3.0}
MIN_BAND_TRIALS = 1000           # trials for a stable weight-band percentile
BISECTION_RESOLUTION = 0.01      # synthesis bisects to this delta step

_STREAM_TRIAL = 0
_DRAW_BLOCK = 250                # trials keyed by one draw substream
_CHUNK = 250                     # trials drawn and scored at a time
_PAIRINGS = 16                   # row pairings per draw in weight_error_bounds


@dataclass(frozen=True)
class ToleranceSpec:
    """Relative error limit for one component class.

    The constructor refuses, with ValueError, a ``delta`` that is not a
    number in [0, 1) and a ``limit_sigmas`` that is not a finite number
    > 0; a bool is not a number.
    """

    component: str               # "r_f" | "r_m1" | "r_m2"
    delta: float                 # fraction; distribution truncated at +/- delta
    limit_sigmas: float = TOLERANCE_DEFAULTS["limit_sigmas"]   # delta in sigmas

    def __post_init__(self):
        if not _is_limit(self.delta):
            raise ValueError(f"{self.component} limit must be a number in "
                             f"[0, 1), got {self.delta!r}")
        if not _is_positive(self.limit_sigmas):
            raise ValueError("limit_sigmas must be finite and > 0, "
                             f"got {self.limit_sigmas!r}")

    @property
    def sigma(self) -> float:
        return self.delta / self.limit_sigmas


def _is_limit(value) -> bool:
    """An error limit: a number in [0, 1); NaN fails the comparison."""
    return is_real(value) and 0 <= value < 1


def _is_positive(value) -> bool:
    """A finite number > 0."""
    return is_real(value) and 0 < value < math.inf


def tolerance_set(r_m: float = TOLERANCE_DEFAULTS["r_m"],
                  r_f: float = TOLERANCE_DEFAULTS["r_f"],
                  limit_sigmas: float = TOLERANCE_DEFAULTS["limit_sigmas"]
                  ) -> dict:
    """The usual spec bundle: common memristor limit, feedback-resistor
    limit.  A bad limit is refused naming its setting, ``r_m`` or ``r_f``."""
    memristor = ToleranceSpec("r_m", r_m, limit_sigmas)
    return {
        "r_m1": replace(memristor, component="r_m1"),
        "r_m2": replace(memristor, component="r_m2"),
        "r_f": ToleranceSpec("r_f", r_f, limit_sigmas),
    }


def sample_perturbed(nominal, spec: ToleranceSpec, rng: np.random.Generator):
    """nominal * (1 + e), one e per entry truncated normal inside +/- delta."""
    nominal = np.asarray(nominal, dtype=float)
    e = truncated_normal(rng, 0.0, spec.sigma, spec.limit_sigmas, nominal.size)
    return nominal * (1.0 + e.reshape(nominal.shape))


@dataclass
class WeightErrorBounds:
    """Percentile band of the weight error under perturbation."""

    low: float
    high: float
    relative: bool               # False when the nominal weight is zero


def _weight_error(w: np.ndarray, w0) -> np.ndarray:
    """Error of perturbed weights ``w`` from their nominal ``w0``, in
    percent of ``|w0|``, or in absolute weight units where ``w0`` is 0."""
    relative = w0 != 0
    err = w - w0
    err *= np.where(relative, 100.0, 1.0)
    err /= np.where(relative, np.abs(w0), 1.0)
    return err


def _band_ranks(n: int):
    """Virtual sorted positions of the ``PERCENTILE_PAIR`` edges among
    ``n`` values, as ``np.percentile``'s linear method computes them, and
    the count k of smallest and of largest values its interpolation reads."""
    pos = (n - 1) * np.true_divide(PERCENTILE_PAIR, 100)
    return pos, min(n, max(int(pos[0]) + 2, n - int(pos[1])))


def _keep_tails(values: np.ndarray, n: int) -> np.ndarray:
    """``values`` sorted along the first axis, keeping only the k smallest
    and k largest that the band of ``n`` values reads (``_band_ranks``)."""
    k = _band_ranks(n)[1]
    values = np.sort(values, axis=0)
    return values if len(values) <= 2 * k else np.concatenate(
        (values[:k], values[-k:]))


def _tail_percentiles(tails: np.ndarray, n: int) -> np.ndarray:
    """``np.percentile(values, PERCENTILE_PAIR, axis=0)``, bit for bit, with
    the edges on the last axis, of ``n`` values whose tails ``_keep_tails``
    kept."""
    pos, k = _band_ranks(n)

    def ranked(rank: int) -> np.ndarray:
        return tails[rank if rank < k else rank - n + len(tails)]

    edges = []
    for p in pos:
        i = int(p)
        a, b, t = ranked(i), ranked(min(i + 1, n - 1)), p - i
        d = b - a
        edges.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return np.stack(edges, axis=-1)


def weight_error_bounds(syn: SynapseNominals, specs: dict, trials: int,
                        rng: np.random.Generator) -> WeightErrorBounds:
    """Monte Carlo percentile band of one synapse's weight error.

    Its memristors and the feedback resistors of its two rows get
    ``trials`` independent draws each, as in the analysis.  The rows'
    terms ``r_f / r_m`` are independent, so the band pools ``_PAIRINGS``
    cyclic pairings of them, which cuts the spread of the band edges of
    small weights by half or more.  Relative error in percent of the
    nominal weight magnitude, absolute where the nominal weight is zero.
    """
    if trials < MIN_BAND_TRIALS:
        raise ValueError(f"trials must be >= {MIN_BAND_TRIALS} for a stable "
                         "percentile")
    r_m1, r_m2, r_f_inv, r_f_non = (
        sample_perturbed(np.full(trials, value), specs[comp], rng)
        for comp, value in (("r_m1", syn.r_m1), ("r_m2", syn.r_m2),
                            ("r_f", syn.r_f), ("r_f", syn.r_f)))
    w0 = syn.r_f / syn.r_m1 - syn.r_f / syn.r_m2
    g1, g2 = r_f_inv / r_m1, r_f_non / r_m2
    pairs = _PAIRINGS * trials
    tails = np.empty(0)
    for shift in range(_PAIRINGS):
        err = _weight_error(g1 - np.roll(g2, shift), w0)
        tails = _keep_tails(np.concatenate((tails, err)), pairs)
    low, high = _tail_percentiles(tails, pairs)
    return WeightErrorBounds(float(low), float(high), relative=bool(w0 != 0))


@dataclass
class MonteCarloReport:
    """Distribution of the error rate over perturbation trials.

    ``rates`` maps each budget of ``netmodel.BUDGETS`` to every trial's
    error rate on the classes it pools.  ``weight_bounds`` holds the
    ``PERCENTILE_PAIR`` band of every synapse's weight error over the
    same trials, in percent of the nominal weight magnitude, or absolute
    where the nominal weight is zero.
    """

    trials: int
    x_p: float
    master_seed: int
    rates: dict                             # budget -> per trial, percent
    percentiles: dict                       # "p0.05" / "p50" / "p99.95"
    per_class_max: dict                     # label -> worst trial, percent
    weight_bounds: dict                     # layer -> (in, out, 2) bands
    passed: bool

    @property
    def p_err(self) -> np.ndarray:
        """Per trial, the error rate over all test patterns, percent."""
        return self.rates["overall"]

    @property
    def max_p_err(self) -> float:
        return float(self.p_err.max())

    @property
    def failures(self) -> int:
        """Trials whose error rate exceeds the budget."""
        return int((self.p_err > self.x_p).sum())

    @property
    def subset_max(self) -> dict:
        """The worst trial of each budget but the overall one."""
        return {name: float(rates.max()) for name, rates in self.rates.items()
                if name != "overall"}

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "x_p": self.x_p,
            "master_seed": self.master_seed,
            "percentiles": self.percentiles,
            "per_class_max": self.per_class_max,
            "subset_max": self.subset_max,
            "max_p_err": self.max_p_err,
            "mean_p_err": float(self.p_err.mean()),
            "weight_bounds": {k: v.tolist() for k, v in self.weight_bounds.items()},
            "passed": self.passed,
            "failures": self.failures,
            "p_fail_upper95": clopper_pearson_upper(self.failures, self.trials),
        }

    def save_trials_csv(self, path) -> None:
        write_trials_csv(path, self.rates)


class _Columns(NamedTuple):
    """Nominal value, sigma and truncation limit of every perturbed part."""

    nominal: np.ndarray
    sigma: np.ndarray
    limit: np.ndarray            # in standard deviations


def _columns(compiled: CompiledNet, specs: dict) -> _Columns:
    """Per-part values, one column per perturbed part.

    Column order per layer: the r_m1 cells and the r_m2 cells (row-major),
    then one feedback resistor per summing amplifier, i.e. per row, for
    the inverting and for the non-inverting rows of the pairs.
    """
    blocks = []
    for _, layer in compiled.layers():
        n_out = layer.r_m1.shape[1]
        blocks += [("r_m1", layer.r_m1.ravel()), ("r_m2", layer.r_m2.ravel()),
                   ("r_f", np.full(n_out, layer.r_f)),
                   ("r_f", np.full(n_out, layer.r_f))]
    parts = [specs[comp] for comp, _ in blocks]
    sizes = [values.size for _, values in blocks]
    return _Columns(np.concatenate([values for _, values in blocks]),
                    np.repeat([spec.sigma for spec in parts], sizes),
                    np.repeat([spec.limit_sigmas for spec in parts], sizes))


def trial_draws(limit: np.ndarray, seed: int, start: int,
                count: int) -> np.ndarray:
    """Standard draws ``z`` of trials [start, start+count), one row each.

    Column ``j`` is truncated at ``limit[j]`` standard deviations, the
    ``_columns`` limit of its part.  Trials are keyed by blocks of
    ``_DRAW_BLOCK``: block ``b`` holds trials ``b * _DRAW_BLOCK`` onward
    and is one ``truncated_normal(substream(seed, _STREAM_TRIAL, b), 0.0,
    1.0, limit, (_DRAW_BLOCK, limit.size))`` call, so each row depends
    only on ``seed`` and its trial, not on ``start``, ``count`` or any
    ``delta``.  A negative ``start`` or ``count`` raises ValueError.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be >= 0, got "
                         f"start={start}, count={count}")
    blocks = range(start // _DRAW_BLOCK, -(-(start + count) // _DRAW_BLOCK))
    z = np.empty((len(blocks), _DRAW_BLOCK, limit.size))
    for b, block in zip(blocks, z):
        truncated_normal(substream(int(seed), _STREAM_TRIAL, b), 0.0, 1.0,
                         limit, block.shape, out=block)
    rows = z.reshape(-1, limit.size)[start % _DRAW_BLOCK:]
    return rows[:count]


def _perturbed_weights(compiled: CompiledNet, cols: _Columns, z: np.ndarray):
    """Hidden and output weight stacks of the trials whose draws are ``z``."""
    r = cols.nominal * (1.0 + cols.sigma * z)
    stacks, col = [], 0
    for _, layer in compiled.layers():
        n_in, n_out = layer.r_m1.shape
        cells = n_in * n_out
        r_m1, r_m2, r_f_inv, r_f_non = np.split(
            r[:, col:col + 2 * (cells + n_out)],
            [cells, 2 * cells, 2 * cells + n_out], axis=1)
        col += 2 * (cells + n_out)
        shape = (len(z), n_in, n_out)
        stacks.append(r_f_inv[:, None, :] / r_m1.reshape(shape)
                      - r_f_non[:, None, :] / r_m2.reshape(shape))
    return stacks


def _score_trials(batch: ScoreBatch, compiled: CompiledNet, cols: _Columns,
                  trials: int, master: int):
    """Per-class error counts, (trials, 5), of consecutive trials scored
    by ``batch``, and the weight-error bands of their weight stacks,
    layer -> (in, out, 2).

    Each chunk's stacks are built at once, because its bands read them.
    """
    counts = np.empty((trials, len(LABELS)))
    tails = {name: np.empty((0,) + layer.r_m1.shape)
             for name, layer in compiled.layers()}
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        stacks = _perturbed_weights(
            compiled, cols, trial_draws(cols.limit, master, start, count))
        counts[start:start + count] = batch.errors(*stacks)
        for (name, layer), w in zip(compiled.layers(), stacks):
            err = _weight_error(w, layer.weights())
            tails[name] = _keep_tails(np.concatenate((tails[name], err)),
                                      trials)
    return counts, {name: _tail_percentiles(band_tails, trials)
                    for name, band_tails in tails.items()}


def analyze_tolerances(net: MlpParams, compiled: CompiledNet, specs: dict,
                       x_test: np.ndarray, labels_test, x_p: float,
                       trials: int, seed: int) -> MonteCarloReport:
    """Monte Carlo pass/fail of the compiled network against an error budget.

    Every trial perturbs all memristor and feedback resistances, rebuilds
    the weight matrices, and scores the test set.  The report carries the
    full trial distribution, per-class worst cases, and per-synapse weight
    error bands over the same trials; ``passed`` compares the worst trial
    against ``x_p``.
    Trials are drawn per block of ``_DRAW_BLOCK`` and scored serially in
    chunks of ``_CHUNK``; the report does not depend on the chunk size.
    """
    master = int(seed)
    batch = ScoreBatch(net, x_test, label_codes(labels_test),
                       min(_CHUNK, trials))
    counts, bounds = _score_trials(batch, compiled, _columns(compiled, specs),
                                   trials, master)
    rates, per_class = batch.rates(counts)
    low, high = PERCENTILE_PAIR
    lo, mid, hi = np.percentile(rates["overall"], (low, 50.0, high))
    return MonteCarloReport(
        trials=trials, x_p=x_p, master_seed=master, rates=rates,
        percentiles={f"p{low:g}": float(lo), "p50": float(mid),
                     f"p{high:g}": float(hi)},
        per_class_max={label: float(p.max()) for label, p in per_class.items()},
        weight_bounds=bounds,
        passed=bool(rates["overall"].max() <= x_p),
    )


@dataclass
class ExperimentPlan:
    """Ascending schedule of error-limit vectors to probe.

    The constructor refuses, with ValueError, a plan that synthesis could
    not run to the end: ``points`` that is not a nonempty list; a point
    that does not map the components of the first point, some of
    ``COMPONENTS``, to limits in [0, 1); points that decrease in any
    component; ``trials`` that is not an int >= 1; and a ``limit_sigmas``
    that is not a finite number > 0.
    """

    points: list = field(default_factory=list)   # dicts component -> delta
    trials: int = 1000
    limit_sigmas: float = TOLERANCE_DEFAULTS["limit_sigmas"]   # of every probe

    def __post_init__(self):
        points = self.points
        if not isinstance(points, list) or not points:
            raise ValueError(f"points must be a nonempty list, got {points!r}")
        for k, point in enumerate(points):
            if (not isinstance(point, dict) or not point
                    or set(point) - set(COMPONENTS) or set(point) != set(points[0])
                    or not all(_is_limit(v) for v in point.values())):
                raise ValueError(
                    f"point {k} must map the components of the first point, "
                    f"some of {list(COMPONENTS)}, to limits in [0, 1): {point!r}")
            if k and any(point[c] < points[k - 1][c] for c in point):
                raise ValueError("points must be componentwise nondecreasing: "
                                 f"{points[k - 1]!r} then {point!r}")
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError(f"trials must be an int >= 1, got {self.trials!r}")
        if not _is_positive(self.limit_sigmas):
            raise ValueError(f"limit_sigmas must be finite and > 0, "
                             f"got {self.limit_sigmas!r}")

    def specs(self, deltas: dict) -> dict:
        """Specs of one probe: ``deltas`` per component, 0 where missing."""
        return {comp: ToleranceSpec(comp, float(deltas.get(comp, 0.0)),
                                    self.limit_sigmas)
                for comp in COMPONENTS}


@dataclass
class SynthesisResult:
    """Widest passing error limits and the probes that found them."""

    delta_star: dict
    probes: list        # in order: deltas, trials scored, max_p_err, passed


def _probe(batch: ScoreBatch, compiled: CompiledNet, cols: _Columns,
           z: np.ndarray, x_p: float) -> np.ndarray:
    """Error rates, in percent, of the trials whose draws are ``z``, in
    order up to the first that exceeds ``x_p``.

    The trials' weight stacks are built and scored one ``batch`` block at
    a time, so the rates do not depend on the chunk size.  Specs that
    perturb nothing give every trial the nominal weights (``nominal * (1 +
    0 * z)`` is exact), so one realization is scored and stands for all.
    """
    scored = len(z) if cols.sigma.any() else 1
    p_err = np.empty(scored)
    for start in range(0, scored, batch.block):
        stop = min(start + batch.block, scored)
        p_err[start:stop] = batch.error_rates(
            *_perturbed_weights(compiled, cols, z[start:stop]))
        failing = np.flatnonzero(p_err[start:stop] > x_p)
        if failing.size:
            return p_err[:start + failing[0] + 1]
    return p_err if scored == len(z) else np.repeat(p_err, len(z))


def synthesize_tolerances(net: MlpParams, compiled: CompiledNet,
                          x_test: np.ndarray, labels_test, x_p: float,
                          plan: ExperimentPlan, seed: int) -> SynthesisResult:
    """Widest error limits on the plan's ray that keep the worst trial passing.

    Walks the schedule until the first failure, then bisects between the
    last passing and first failing vectors down to ``BISECTION_RESOLUTION``.
    Every probe scores the same ``plan.trials`` trials, drawn once from
    ``seed``, in one scorer, and stops at its first failing trial.
    Raises when even unperturbed operation misses the error budget.
    """
    z = trial_draws(_columns(compiled, plan.specs({})).limit, int(seed), 0,
                    plan.trials)
    batch = ScoreBatch(net, x_test, label_codes(labels_test),
                       min(_CHUNK, plan.trials))
    probes = []

    def passes(deltas: dict) -> bool:
        p_err = _probe(batch, compiled,
                       _columns(compiled, plan.specs(deltas)), z, x_p)
        worst = float(p_err.max())
        passed = worst <= x_p
        probes.append({"deltas": dict(deltas), "trials": len(p_err),
                       "max_p_err": worst, "passed": passed})
        return passed

    zero = {k: 0.0 for k in plan.points[0]}
    if not passes(zero):
        raise NoPassingPointError(
            f"unperturbed network already exceeds x_p = {x_p}%"
        )
    best = zero
    failing = None
    for point in plan.points:
        if passes(point):
            best = point
        else:
            failing = point
            break
    if failing is None:
        return SynthesisResult(dict(best), probes)
    a = {k: float(best[k]) for k in best}
    b = {k: float(failing[k]) for k in failing}
    while max(b[k] - a[k] for k in a) > BISECTION_RESOLUTION:
        mid = {k: 0.5 * (a[k] + b[k]) for k in a}
        if passes(mid):
            a = mid
        else:
            b = mid
    return SynthesisResult(a, probes)


def check_state_counts(counts) -> None:
    """Raise ValueError unless ``counts`` is a nonempty list or tuple of
    state counts, each an int >= 2."""
    if (not isinstance(counts, (tuple, list)) or not counts
            or any(type(n) is not int or n < 2 for n in counts)):
        raise ValueError(f"state counts must be ints >= 2, got {counts!r}")


def discrete_state_sweep(net: MlpParams, x_test: np.ndarray, labels_test,
                         counts, rrange: ResistanceRange, r_f: float) -> dict:
    """Test error after quantizing weights onto n-state ladders.

    For each requested state count, resistance levels are spread evenly
    over the range, converted to the symmetric weight set, and the
    continuous weights are snapped to it.  Biases stay continuous (they
    are digital in the target system).  The quantized nets are scored as
    one stack.  Raises ValueError, before any scoring, unless ``counts``
    passes :func:`check_state_counts`.
    """
    check_state_counts(counts)
    ladders = [symmetric_weight_states(n, r_f, rrange) for n in counts]
    w1 = np.stack([quantize_weights(net.w_hidden, s) for s in ladders])
    w2 = np.stack([quantize_weights(net.w_out, s) for s in ladders])
    rates = ScoreBatch(net, x_test, label_codes(labels_test),
                       len(counts)).error_rates(w1, w2)
    return dict(zip(counts, rates.tolist()))
