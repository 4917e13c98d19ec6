"""Informational model of the two-layer perceptron.

A 16-8-4 network with a saturating linear activation, matching the
transfer function of the analog chain.  Training runs full-batch
adaptive-moment gradient descent; after every epoch the weights can be
clamped and projected onto a discrete state set, so the result stays
realizable on the arrays.  :func:`forward_stack` is the one forward pass:
training, the hardening panel and the Monte Carlo trials all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFiniteLossError, ShapeMismatchError
from .mapping import quantize_weights
from .stats import truncated_normal

N_INPUT = 16
N_HIDDEN = 8
N_OUTPUT = 4

LABELS = ("S1", "S2", "S3", "S4", "Sr")
OUTPUT_LABELS = LABELS[:N_OUTPUT]
REJECT_LABEL = LABELS[-1]


@dataclass(frozen=True)
class Activation:
    """Saturating linear transfer: clip(slope * z, lower, upper)."""

    slope: float = 1.0
    lower: float = -1.0
    upper: float = 1.0

    def __post_init__(self):
        if self.slope <= 0 or self.lower >= self.upper:
            raise ValueError("need positive slope and lower < upper")

    def apply(self, z: np.ndarray) -> np.ndarray:
        return np.clip(self.slope * z, self.lower, self.upper)

    def derivative(self, z: np.ndarray, leak: float = 0.0) -> np.ndarray:
        """Slope inside the linear region, ``leak * slope`` where saturated."""
        v = self.slope * np.asarray(z, dtype=float)
        return np.where((v >= self.lower) & (v <= self.upper), self.slope,
                        leak * self.slope)


@dataclass
class MlpParams:
    """Weights and biases of the 16-8-4 network."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    activation: Activation = field(default_factory=Activation)

    def __post_init__(self):
        self.w_hidden = np.asarray(self.w_hidden, dtype=float)
        self.b_hidden = np.asarray(self.b_hidden, dtype=float)
        self.w_out = np.asarray(self.w_out, dtype=float)
        self.b_out = np.asarray(self.b_out, dtype=float)
        expected = {
            "w_hidden": (N_INPUT, N_HIDDEN), "b_hidden": (N_HIDDEN,),
            "w_out": (N_HIDDEN, N_OUTPUT), "b_out": (N_OUTPUT,),
        }
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ShapeMismatchError(f"{name}: expected {shape}, got {got}")

    def copy(self) -> "MlpParams":
        return MlpParams(self.w_hidden.copy(), self.b_hidden.copy(),
                         self.w_out.copy(), self.b_out.copy(), self.activation)

    def to_dict(self) -> dict:
        return {
            "w_hidden": self.w_hidden.tolist(),
            "b_hidden": self.b_hidden.tolist(),
            "w_out": self.w_out.tolist(),
            "b_out": self.b_out.tolist(),
            "activation": {"slope": self.activation.slope,
                           "lower": self.activation.lower,
                           "upper": self.activation.upper},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpParams":
        act = Activation(**d.get("activation", {}))
        return cls(np.array(d["w_hidden"]), np.array(d["b_hidden"]),
                   np.array(d["w_out"]), np.array(d["b_out"]), act)


def init_params(rng: np.random.Generator,
                activation: Activation | None = None) -> MlpParams:
    """Uniform weights in [-0.5, 0.5], biases at zero."""
    if activation is None:
        activation = Activation()
    return MlpParams(
        w_hidden=rng.uniform(-0.5, 0.5, size=(N_INPUT, N_HIDDEN)),
        b_hidden=np.zeros(N_HIDDEN),
        w_out=rng.uniform(-0.5, 0.5, size=(N_HIDDEN, N_OUTPUT)),
        b_out=np.zeros(N_OUTPUT),
        activation=activation,
    )


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def forward_stack(activation: Activation, x: np.ndarray,
                  w_hidden: np.ndarray, b_hidden: np.ndarray,
                  w_out: np.ndarray, b_out: np.ndarray) -> np.ndarray:
    """Output ``f(f(x @ w_hidden + b_hidden) @ w_out + b_out)``.

    ``x`` is a batch (H, 16).  The weights are one realization, (16, 8)
    and (8, 4), or a stack of T realizations, (T, 16, 8) and (T, 8, 4),
    which gives a (T, H, 4) output.  Only the output is returned, so the
    hidden activation is freed as soon as the output layer has used it.
    """
    return activation.apply(
        activation.apply(x @ w_hidden + b_hidden) @ w_out + b_out)


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Network output for one pattern (16,) or a batch (H, 16)."""
    xb, single = _as_batch(x)
    if xb.shape[1] != N_INPUT:
        raise ShapeMismatchError(f"expected {N_INPUT} inputs, got {xb.shape[1]}")
    out = forward_stack(params.activation, xb, params.w_hidden,
                        params.b_hidden, params.w_out, params.b_out)
    return out[0] if single else out


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean over patterns of the component-summed squared error."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ShapeMismatchError(f"{y_true.shape} vs {y_pred.shape}")
    if y_true.ndim == 1:
        return float(np.sum((y_true - y_pred) ** 2))
    return float(np.mean(np.sum((y_true - y_pred) ** 2, axis=1)))


def classify(outputs: np.ndarray) -> str | list[str]:
    """Label of the strongest output; reject when none is positive."""
    out, single = _as_batch(outputs)
    best = np.argmax(out, axis=1)
    labels = [REJECT_LABEL if out[h, best[h]] <= 0 else OUTPUT_LABELS[best[h]]
              for h in range(out.shape[0])]
    return labels[0] if single else labels


def p_err(true_labels, pred_labels) -> float:
    """Share of misclassified patterns, in percent."""
    if len(true_labels) != len(pred_labels):
        raise ShapeMismatchError(f"{len(true_labels)} vs {len(pred_labels)}")
    wrong = sum(t != p for t, p in zip(true_labels, pred_labels))
    return 100.0 * wrong / len(true_labels)


def gradients(params: MlpParams, x: np.ndarray, y: np.ndarray,
              leak: float = 0.0):
    """Analytic MSE gradients.

    Saturated units pass ``leak`` times the slope; ``leak=0`` is the exact
    gradient and a positive leak is the training surrogate (see
    :class:`TrainConfig`).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f = params.activation
    h = x.shape[0]
    z1 = x @ params.w_hidden + params.b_hidden
    a1 = f.apply(z1)
    z2 = a1 @ params.w_out + params.b_out
    a2 = f.apply(z2)
    d2 = 2.0 * (a2 - y) / h * f.derivative(z2, leak)
    d1 = (d2 @ params.w_out.T) * f.derivative(z1, leak)
    return {
        "w_hidden": x.T @ d1,
        "b_hidden": d1.sum(axis=0),
        "w_out": a1.T @ d2,
        "b_out": d2.sum(axis=0),
    }


@dataclass
class TrainConfig:
    """Optimizer settings and realizability constraints.

    ``leak`` is the training-time derivative assigned to the saturated
    region of the activation.  With a strictly zero subgradient a unit
    whose pre-activation leaves the linear region on the wrong side stops
    receiving any pull and can never recover; a small leak keeps such
    units trainable.  The reported loss curve always uses the exact model.

    ``weight_noise`` turns on hardening against component errors: each
    epoch the gradient is taken at weights jittered with standard
    deviation ``weight_noise * sqrt((|w| + offset)^2 + offset^2)``, the
    error a weight built from two perturbed resistive branches actually
    sees (``noise_offset`` is the fixed-branch contribution in weight
    units).  The returned network is then the epoch with the lowest
    worst-case loss over a frozen panel of perturbations rather than the
    lowest clean loss, which favors wide minima over sharp ones.
    """

    mse_target: float = 1e-4
    max_epochs: int = 10000
    step: float = 0.02
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    leak: float = 0.05
    discrete_states: np.ndarray | None = None
    weight_limit: float | None = None
    weight_noise: float = 0.0          # relative sigma of the jitter
    noise_offset: float = 0.0          # fixed-branch term, weight units
    panel: int = 8                     # panel size for worst-case selection

    def __post_init__(self):
        if self.step <= 0 or not 0 <= self.leak < 1:
            raise ValueError("need step > 0 and 0 <= leak < 1")
        if self.weight_noise < 0 or self.noise_offset < 0 or self.panel < 1:
            raise ValueError("noise settings must be nonnegative, panel >= 1")
        if self.discrete_states is not None:
            self.discrete_states = np.sort(np.asarray(self.discrete_states,
                                                      dtype=float))


@dataclass
class TrainResult:
    params: MlpParams
    curve: np.ndarray                  # index 0 is the starting loss
    converged: bool
    epochs: int

    @property
    def final_mse(self) -> float:
        return float(self.curve[-1])


def _project(params: MlpParams, cfg: TrainConfig) -> None:
    if cfg.weight_limit is not None:
        np.clip(params.w_hidden, -cfg.weight_limit, cfg.weight_limit,
                out=params.w_hidden)
        np.clip(params.w_out, -cfg.weight_limit, cfg.weight_limit,
                out=params.w_out)
    if cfg.discrete_states is not None:
        params.w_hidden = quantize_weights(params.w_hidden, cfg.discrete_states)
        params.w_out = quantize_weights(params.w_out, cfg.discrete_states)


def _loss(params: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    value = mse(y, forward(params, x))
    if not np.isfinite(value):
        raise NonFiniteLossError(f"loss became {value}")
    return value


_PARAM_KEYS = ("w_hidden", "b_hidden", "w_out", "b_out")
_PANEL_STRIDE = 10


def _noise_sigma(w: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    c = cfg.noise_offset
    return cfg.weight_noise * np.sqrt((np.abs(w) + c) ** 2 + c ** 2)


def _draw_panel(params: MlpParams, cfg: TrainConfig,
                rng: np.random.Generator) -> dict:
    shape_h = (cfg.panel,) + params.w_hidden.shape
    shape_o = (cfg.panel,) + params.w_out.shape
    return {"w_hidden": truncated_normal(rng, 0.0, 1.0, 3.0, shape_h),
            "w_out": truncated_normal(rng, 0.0, 1.0, 3.0, shape_o)}


def _panel_score(params: MlpParams, panel: dict, cfg: TrainConfig,
                 x: np.ndarray, y: np.ndarray) -> float:
    """Worst exact-model loss over the frozen perturbation panel."""
    w1 = params.w_hidden + panel["w_hidden"] * _noise_sigma(params.w_hidden,
                                                             cfg)
    w2 = params.w_out + panel["w_out"] * _noise_sigma(params.w_out, cfg)
    out = forward_stack(params.activation, x, w1, params.b_hidden, w2,
                        params.b_out)
    return float(((out - y) ** 2).sum(axis=2).mean(axis=1).max())


def train_discrete(params: MlpParams, x: np.ndarray, y: np.ndarray,
                   cfg: TrainConfig,
                   rng: np.random.Generator | None = None) -> TrainResult:
    """Full-batch adaptive-moment descent with projection every epoch.

    After each update the weights are clamped to the realizable span and
    quantized onto the discrete state set if one is given, so the
    trajectory never leaves what the arrays can express.  The recorded
    curve is the exact-model loss of the projected network.

    Without weight noise the returned params are the best-loss epoch and
    the loop stops once the loss target is met.  With ``cfg.weight_noise``
    set (which requires ``rng``) the loop always runs ``max_epochs``,
    gradients are taken at jittered weights, and the returned params are
    the epoch with the best frozen-panel worst-case loss.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    noisy = cfg.weight_noise > 0
    if noisy and rng is None:
        raise ValueError("weight_noise > 0 requires an rng")
    work = params.copy()
    _project(work, cfg)
    loss = _loss(work, x, y)
    curve = [loss]
    panel = _draw_panel(work, cfg, rng) if noisy else None
    best = work.copy()
    best_score = _panel_score(work, panel, cfg, x, y) if noisy else loss
    m = {k: 0.0 for k in _PARAM_KEYS}
    v = {k: 0.0 for k in _PARAM_KEYS}
    epoch = 0
    while epoch < cfg.max_epochs and (noisy or loss > cfg.mse_target):
        epoch += 1
        if noisy:
            at = work.copy()
            for k in ("w_hidden", "w_out"):
                w = getattr(work, k)
                jitter = truncated_normal(rng, 0.0, 1.0, 3.0, w.shape)
                setattr(at, k, w + _noise_sigma(w, cfg) * jitter)
        else:
            at = work
        grads = gradients(at, x, y, cfg.leak)
        for k in _PARAM_KEYS:
            g = grads[k]
            m[k] = cfg.beta1 * m[k] + (1 - cfg.beta1) * g
            v[k] = cfg.beta2 * v[k] + (1 - cfg.beta2) * g * g
            m_hat = m[k] / (1 - cfg.beta1 ** epoch)
            v_hat = v[k] / (1 - cfg.beta2 ** epoch)
            update = cfg.step * m_hat / (np.sqrt(v_hat) + cfg.eps)
            setattr(work, k, getattr(work, k) - update)
        _project(work, cfg)
        loss = _loss(work, x, y)
        curve.append(loss)
        if noisy:
            if epoch % _PANEL_STRIDE == 0 or epoch == cfg.max_epochs:
                score = _panel_score(work, panel, cfg, x, y)
                if score < best_score:
                    best_score, best = score, work.copy()
        elif loss < best_score:
            best_score, best = loss, work.copy()
    final = _loss(best, x, y)
    return TrainResult(params=best, curve=np.array(curve),
                       converged=final <= cfg.mse_target, epochs=epoch)


def evaluate(params: MlpParams, x: np.ndarray, labels) -> float:
    """Error rate of the network on labelled patterns, in percent."""
    return p_err(list(labels), classify(forward(params, x)))
