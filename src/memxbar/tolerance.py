"""Monte Carlo stress analysis of a compiled network.

Physical parameters (memristor resistances per cell, feedback resistor per
summing amplifier) are perturbed with truncated normal errors, weights are
rebuilt from the perturbed values, and the error rate on a held-out set is
evaluated per trial.  Analysis checks the worst trial against a permitted
error level; synthesis searches for the widest error limits that still
pass.  Every trial draws from its own counter-derived substream, so
reports are reproducible bit for bit and independent of evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NoPassingPointError
from .mapping import (CompiledNet, ResistanceRange, SynapseNominals,
                      quantize_weights, symmetric_weight_states)
from .netmodel import LABELS, MlpParams, evaluate, forward_stack
from .reports import write_trials_csv
from .stats import subseed, substream, truncated_normal

PERCENTILE_PAIR = (0.05, 99.95)

_STREAM_TRIAL = 0
_STREAM_BOUNDS = 1
_STREAM_SYNTH = 2


@dataclass(frozen=True)
class ToleranceSpec:
    """Relative error limit for one component class."""

    component: str               # "r_f" | "r_m1" | "r_m2"
    delta: float                 # fraction; distribution truncated at +/- delta
    limit_sigmas: float = 3.0    # delta expressed in standard deviations

    def __post_init__(self):
        if not 0 <= self.delta < 1:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.limit_sigmas <= 0:
            raise ValueError("limit_sigmas must be > 0")

    @property
    def sigma(self) -> float:
        return self.delta / self.limit_sigmas


def tolerance_set(r_m: float = 0.2, r_f: float = 0.01,
                  limit_sigmas: float = 3.0) -> dict:
    """The usual spec bundle: common memristor limit, feedback-resistor limit."""
    return {
        "r_m1": ToleranceSpec("r_m1", r_m, limit_sigmas),
        "r_m2": ToleranceSpec("r_m2", r_m, limit_sigmas),
        "r_f": ToleranceSpec("r_f", r_f, limit_sigmas),
    }


def sample_perturbed(nominal, spec: ToleranceSpec, rng: np.random.Generator):
    """nominal * (1 + e) with e truncated normal inside +/- delta."""
    nominal = np.asarray(nominal, dtype=float)
    if spec.delta == 0:
        return nominal.copy() if nominal.ndim else float(nominal)
    e = truncated_normal(rng, 0.0, spec.sigma, spec.limit_sigmas, nominal.shape)
    out = nominal * (1.0 + e)
    return out if nominal.ndim else float(out)


@dataclass
class WeightErrorBounds:
    """Percentile band of the weight error under perturbation."""

    low: float
    high: float
    relative: bool               # False when the nominal weight is zero

    def as_tuple(self) -> tuple[float, float]:
        return (self.low, self.high)


def weight_error_bounds(syn: SynapseNominals, specs: dict, trials: int,
                        rng: np.random.Generator,
                        percentiles: tuple[float, float] = PERCENTILE_PAIR
                        ) -> WeightErrorBounds:
    """Monte Carlo percentile band of one synapse's weight error.

    Relative error in percent of the nominal weight magnitude; a zero
    nominal weight switches the band to absolute weight units.
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000 for a stable percentile")
    r_f = sample_perturbed(np.full(trials, syn.r_f), specs["r_f"], rng)
    r_m1 = sample_perturbed(np.full(trials, syn.r_m1), specs["r_m1"], rng)
    r_m2 = sample_perturbed(np.full(trials, syn.r_m2), specs["r_m2"], rng)
    w = r_f / r_m1 - r_f / r_m2
    w0 = syn.r_f / syn.r_m1 - syn.r_f / syn.r_m2
    if w0 == 0:
        lo, hi = np.percentile(w - w0, percentiles)
        return WeightErrorBounds(float(lo), float(hi), relative=False)
    err = 100.0 * (w - w0) / abs(w0)
    lo, hi = np.percentile(err, percentiles)
    return WeightErrorBounds(float(lo), float(hi), relative=True)


@dataclass
class MonteCarloReport:
    """Distribution of the error rate over perturbation trials.

    Besides the overall rate, every trial is also scored on the two halves
    of the test set separately: patterns that follow a target stimulus
    (S1..S4) and extraneous patterns (Sr).
    """

    trials: int
    x_p: float
    master_seed: int
    p_err: np.ndarray                       # per trial, percent
    p_err_sites: np.ndarray                 # S1..S4 subset, per trial
    p_err_extraneous: np.ndarray            # Sr subset, per trial
    percentiles: dict                       # "p0.05" / "p50" / "p99.95"
    per_class_max: dict                     # label -> worst trial, percent
    weight_bounds: dict                     # layer -> (in, out, 2) percent bands
    passed: bool

    @property
    def max_p_err(self) -> float:
        return float(self.p_err.max())

    @property
    def subset_max(self) -> dict:
        return {"sites": float(self.p_err_sites.max()),
                "extraneous": float(self.p_err_extraneous.max())}

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
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def save_trials_csv(self, path) -> None:
        write_trials_csv(path, self.p_err, self.p_err_sites,
                         self.p_err_extraneous)


def _label_codes(labels) -> np.ndarray:
    index = {lb: k for k, lb in enumerate(LABELS)}
    return np.array([index[lb] for lb in labels], dtype=np.intp)


def _trial_draws(compiled: CompiledNet, specs: dict, master: int, start: int,
                 count: int):
    """Stacked perturbed resistances for trials [start, start+count)."""
    shapes = {name: layer.r_m1.shape for name, layer in compiled.layers()}
    draws = {name: {"r_m1": np.empty((count,) + shp),
                    "r_m2": np.empty((count,) + shp),
                    "r_f_inv": np.empty((count, shp[1])),
                    "r_f_non": np.empty((count, shp[1]))}
             for name, shp in shapes.items()}
    for k in range(count):
        rng = substream(master, _STREAM_TRIAL, start + k)
        for name, layer in compiled.layers():
            d = draws[name]
            d["r_m1"][k] = sample_perturbed(layer.r_m1, specs["r_m1"], rng)
            d["r_m2"][k] = sample_perturbed(layer.r_m2, specs["r_m2"], rng)
            # one feedback resistor per summing amplifier, i.e. per row;
            # the inverting and non-inverting rows of a pair draw separately
            n_out = layer.r_m1.shape[1]
            d["r_f_inv"][k] = sample_perturbed(np.full(n_out, layer.r_f),
                                               specs["r_f"], rng)
            d["r_f_non"][k] = sample_perturbed(np.full(n_out, layer.r_f),
                                               specs["r_f"], rng)
    return draws


def _perturbed_weights(draws: dict, name: str) -> np.ndarray:
    d = draws[name]
    return (d["r_f_inv"][:, None, :] / d["r_m1"]
            - d["r_f_non"][:, None, :] / d["r_m2"])


def _batch_p_err(net: MlpParams, w1: np.ndarray, w2: np.ndarray,
                 x: np.ndarray, codes: np.ndarray):
    """Error rates for a stack of weight realizations.

    Returns overall, per-class, sites-subset (S1..S4 pooled) and
    extraneous-subset rates per trial, all in percent.
    """
    out = forward_stack(net.activation, x, w1, net.b_hidden, w2, net.b_out)
    best = out.argmax(axis=2)
    pred = np.where(out.max(axis=2) > 0, best, len(LABELS) - 1)
    wrong = pred != codes[None, :]
    overall = wrong.mean(axis=1) * 100.0
    per_class = {}
    for k, label in enumerate(LABELS):
        mask = codes == k
        if mask.any():
            per_class[label] = wrong[:, mask].mean(axis=1) * 100.0
    site_mask = codes < len(LABELS) - 1
    sites = (wrong[:, site_mask].mean(axis=1) * 100.0 if site_mask.any()
             else np.zeros(wrong.shape[0]))
    extraneous = (wrong[:, ~site_mask].mean(axis=1) * 100.0
                  if (~site_mask).any() else np.zeros(wrong.shape[0]))
    return overall, per_class, sites, extraneous


def analyze_tolerances(net: MlpParams, compiled: CompiledNet, specs: dict,
                       x_test: np.ndarray, labels_test, x_p: float,
                       trials: int, seed: int,
                       bounds_trials: int = 20000,
                       percentiles: tuple[float, float] = PERCENTILE_PAIR,
                       chunk: int = 250, threads: int = 1) -> MonteCarloReport:
    """Monte Carlo pass/fail of the compiled network against an error budget.

    Every trial redraws all memristor and feedback resistances, rebuilds
    the weight matrices, and scores the test set.  The report carries the
    full trial distribution, per-class worst cases, and per-synapse weight
    error bands; ``passed`` compares the worst trial against ``x_p``.
    Trials use counter-derived substreams, so the report is identical for
    any ``threads`` setting (0 picks the CPU count).
    """
    master = int(seed)
    codes = _label_codes(labels_test)
    x_test = np.asarray(x_test, dtype=float)
    p_err_all = np.empty(trials)
    p_sites = np.empty(trials)
    p_extraneous = np.empty(trials)
    class_trials = {label: np.empty(trials) for label in LABELS}
    seen_classes = set()

    def run_chunk(start: int) -> None:
        count = min(chunk, trials - start)
        draws = _trial_draws(compiled, specs, master, start, count)
        w1 = _perturbed_weights(draws, "hidden")
        w2 = _perturbed_weights(draws, "out")
        overall, per_class, sites, extraneous = _batch_p_err(
            net, w1, w2, x_test, codes)
        p_err_all[start:start + count] = overall
        p_sites[start:start + count] = sites
        p_extraneous[start:start + count] = extraneous
        for label, values in per_class.items():
            class_trials[label][start:start + count] = values
            seen_classes.add(label)

    starts = range(0, trials, chunk)
    if threads == 1:
        for start in starts:
            run_chunk(start)
    else:
        import concurrent.futures
        import os
        workers = threads if threads > 0 else (os.cpu_count() or 1)
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            list(pool.map(run_chunk, starts))
    lo, mid, hi = np.percentile(p_err_all, (percentiles[0], 50.0, percentiles[1]))
    bounds = {}
    for name, layer in compiled.layers():
        n_in, n_out = layer.r_m1.shape
        band = np.empty((n_in, n_out, 2))
        for i in range(n_in):
            for j in range(n_out):
                rng = substream(master, _STREAM_BOUNDS,
                                0 if name == "hidden" else 1, i, j)
                b = weight_error_bounds(layer.synapse(i, j), specs,
                                        bounds_trials, rng, percentiles)
                band[i, j] = b.as_tuple()
        bounds[name] = band
    return MonteCarloReport(
        trials=trials, x_p=x_p, master_seed=master, p_err=p_err_all,
        p_err_sites=p_sites, p_err_extraneous=p_extraneous,
        percentiles={f"p{percentiles[0]:g}": float(lo), "p50": float(mid),
                     f"p{percentiles[1]:g}": float(hi)},
        per_class_max={label: float(class_trials[label].max())
                       for label in LABELS if label in seen_classes},
        weight_bounds=bounds,
        passed=bool(p_err_all.max() <= x_p),
    )


@dataclass
class ExperimentPlan:
    """Ascending schedule of error-limit vectors to probe."""

    points: list = field(default_factory=list)   # dicts component -> delta
    trials: int = 1000
    resolution: float = 0.01                     # finest delta step to resolve

    def __post_init__(self):
        if not self.points:
            raise ValueError("plan needs at least one point")
        keys = set(self.points[0])
        for a, b in zip(self.points, self.points[1:]):
            if set(b) != keys:
                raise ValueError("all points must perturb the same components")
            if any(b[k] < a[k] for k in keys):
                raise ValueError("points must be componentwise nondecreasing")


def _specs_from_deltas(deltas: dict, limit_sigmas: float = 3.0) -> dict:
    out = {}
    for comp in ("r_m1", "r_m2", "r_f"):
        out[comp] = ToleranceSpec(comp, float(deltas.get(comp, 0.0)), limit_sigmas)
    return out


def synthesize_tolerances(net: MlpParams, compiled: CompiledNet,
                          x_test: np.ndarray, labels_test, x_p: float,
                          plan: ExperimentPlan, seed: int) -> dict:
    """Widest error limits on the plan's ray that keep the worst trial passing.

    Walks the schedule until the first failure, then bisects between the
    last passing and first failing vectors down to the plan resolution.
    Raises when even unperturbed operation misses the error budget.
    """
    master = int(seed)
    evaluations = [0]

    def passes(deltas: dict) -> bool:
        evaluations[0] += 1
        eval_seed = subseed(master, _STREAM_SYNTH, evaluations[0])
        report = analyze_tolerances(
            net, compiled, _specs_from_deltas(deltas), x_test, labels_test,
            x_p, plan.trials, eval_seed, bounds_trials=1000)
        return report.passed

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
        return dict(best)
    a = {k: float(best[k]) for k in best}
    b = {k: float(failing[k]) for k in failing}
    while max(b[k] - a[k] for k in a) > plan.resolution:
        mid = {k: 0.5 * (a[k] + b[k]) for k in a}
        if passes(mid):
            a = mid
        else:
            b = mid
    return a


def discrete_state_sweep(net: MlpParams, x_test: np.ndarray, labels_test,
                         counts, rrange: ResistanceRange, r_f: float) -> dict:
    """Test error after quantizing weights onto n-state ladders.

    For each requested state count, resistance levels are spread evenly
    over the range, converted to the symmetric weight set, and the
    continuous weights are snapped to it.  Biases stay continuous (they
    are digital in the target system).
    """
    results = {}
    for n in counts:
        if n < 2:
            raise ValueError("state counts must be >= 2")
        states = symmetric_weight_states(int(n), r_f, rrange)
        q = net.copy()
        q.w_hidden = quantize_weights(q.w_hidden, states)
        q.w_out = quantize_weights(q.w_out, states)
        results[int(n)] = evaluate(q, x_test, labels_test)
    return results
