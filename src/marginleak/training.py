"""Full-batch gradient descent on exponential/logistic loss from small init.

With separable data and either loss, long training drives the parameters
toward a stationary direction of the max-margin problem.  Because gradients
shrink like exp(-margin) once the data is fit, the step size is grown
geometrically from that point on, so an approximate stationary point is
reachable in a finite number of steps.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import kkt
from .errors import DegenerateNetworkError, TrainingDivergedError
from .model import (
    LabeledDataset,
    NetworkParams,
    _check_inputs,
    _forward_arrays,
    _write_csv,
    forward_batch,
)

LOSS_KINDS = ("exponential", "logistic")

# Step-size growth stops once the loss is this small; by then the margin is
# very large and further growth would only walk the outputs toward overflow
# (exp(-z) underflows near z = 745, so this leaves a wide safety band).
LR_GROWTH_FREEZE_LOSS = 1e-100

MAX_RESEEDS = 20  # how often train_non_degenerate re-seeds a dead run, at most


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    ``width`` is the hidden-layer size.  Checked every ``checkpoint_every``
    steps, training stops at ``targets-met`` once the loss is at most
    ``loss_target`` AND the stationarity residual at most
    ``kkt_residual_target``, at ``zero-gradient`` once the gradient is
    exactly zero, or at ``max-steps`` after ``max_steps`` updates.
    """

    width: int
    loss_kind: str = "exponential"
    init_scale: float = 1e-4
    learning_rate: float = 1e-3
    lr_growth: float = 1.02
    max_steps: int = 4000
    loss_target: float = 1e-5
    kkt_residual_target: float = 5e-3
    rng_seed: int = 0
    checkpoint_every: int = 100

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.width < 1 or self.max_steps < 1 or self.checkpoint_every < 1:
            raise ValueError("width, max_steps and checkpoint_every must be >= 1")
        for name in ("init_scale", "learning_rate", "loss_target", "kkt_residual_target"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        if not self.lr_growth >= 1.0:
            raise ValueError("lr_growth must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


@dataclass(frozen=True)
class TraceRecord:
    """One checkpoint.  ``residual_method`` is the :class:`kkt.KktReport`
    method behind ``kkt_residual`` or, when the network output was zero on
    every point, ``degenerate``; it and ``empty-support`` report residual 1.
    ``learning_rate`` is the step size the next step would take and
    ``refused_steps`` counts the steps refused so far.
    """

    step: int
    loss: float
    min_margin: float
    param_norm: float
    normalized_margin: float
    kkt_residual: float
    residual_method: str
    learning_rate: float
    refused_steps: int


TRACE_CSV_COLUMNS = tuple(f.name for f in fields(TraceRecord))


@dataclass
class TrainTrace:
    """Checkpoint records plus run-level outcome flags.

    ``stop_reason`` is ``targets-met``, ``max-steps``, ``zero-gradient``
    (both gradient blocks exactly zero at a checkpoint: no later step could
    move the parameters) or ``diverged`` (on a TrainingDivergedError's trace).
    """

    records: list[TraceRecord] = field(default_factory=list)
    reached_loss_below_1_over_n: bool = False
    first_step_below_1_over_n: int | None = None
    stop_reason: str = "unfinished"

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def final(self) -> TraceRecord:
        return self.records[-1]


def loss_values(z: np.ndarray, kind: str) -> np.ndarray:
    """Per-example loss at signed outputs z = y * network(x)."""
    if kind == "exponential":
        with np.errstate(over="ignore"):
            return np.exp(-z)
    if kind == "logistic":
        return np.logaddexp(0.0, -z)
    raise ValueError(f"unknown loss kind {kind!r}")


def _loss_derivative(z: np.ndarray, kind: str, per: np.ndarray | None = None) -> np.ndarray:
    """d loss / dz; for the exponential loss it reuses ``per`` = exp(-z) if given."""
    if kind == "exponential":
        return np.negative(loss_values(z, kind) if per is None else per)
    # logistic: -1 / (1 + e^z), as -e^-z / (1 + e^-z) for z > 0 so no exp overflows
    e = np.exp(-np.abs(z))
    return np.where(z > 0.0, -e, -1.0) / (1.0 + e)


def loss(net: NetworkParams, data: LabeledDataset, kind: str = "exponential") -> float:
    """Mean loss of the network on the dataset."""
    z = data.labels * forward_batch(net, data.points)
    return float(np.mean(loss_values(z, kind)))


@dataclass(frozen=True)
class Gradient:
    """Loss gradient, shaped like the parameters."""

    weights: np.ndarray
    biases: np.ndarray
    out_weights: np.ndarray

    def flat(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.biases, self.out_weights])


def _gradient_arrays(ys, act, z, v, kind: str, per=None, out=None):
    """(G, d/dv) of the mean loss from a forward pass, G written into ``out``.

    G[i, j] = loss'(z_i) y_i v_j / n if neuron j is active on point i, else
    0: the gradient in the row space of x~ = [x, 1], so d/dW = G.T @ xs and
    d/db = G.sum(axis=0).
    """
    coeff = _loss_derivative(z, kind, per) * ys / ys.shape[0]  # (n,)
    g = np.sign(act, out=out)  # the 0/1 activity mask, as act >= 0
    g *= coeff[:, None]
    g *= v
    return g, act.T @ coeff


def gradient(net: NetworkParams, data: LabeledDataset, kind: str = "exponential") -> Gradient:
    """Analytic gradient of the mean loss.

    The ReLU subgradient is taken to be 0 at exact kinks (active iff the
    pre-activation is strictly positive), matching the rest of the package.
    """
    xs = _check_inputs(net, data.points)
    _, act, out = _forward_arrays(xs @ net.weights.T, net.biases, net.out_weights)
    g, g_v = _gradient_arrays(data.labels, act, data.labels * out, net.out_weights, kind)
    return Gradient(g.T @ xs, g.sum(axis=0), g_v)


def init_small(d: int, k: int, scale: float, seed: int) -> NetworkParams:
    """Gaussian init: w ~ N(0, (scale/sqrt(d))^2), b and v ~ N(0, scale^2)."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, scale / np.sqrt(d), size=(k, d))
    b = rng.normal(0.0, scale, size=k)
    v = rng.normal(0.0, scale, size=k)
    return NetworkParams(w, b, v)


def train(data: LabeledDataset, cfg: TrainConfig) -> tuple[NetworkParams, TrainTrace]:
    """Run full-batch gradient descent; returns final parameters and trace.

    While the loss is at least 1/n the step size stays at its configured
    value and descent is ordinary full-batch gradient descent.  Below 1/n
    every point is classified and the gradient shrinks like exp(-margin), so
    a fixed step size would stall; from there each step that did not increase
    the loss multiplies the step size by ``lr_growth`` (stopping once the
    loss falls below LR_GROWTH_FREEZE_LOSS) and each step that increased it
    halves it, which keeps the margin growing at roughly log(lr_growth) per
    step.  In both phases a step that would overflow the loss or an output
    is refused (halving the step size, without a warning) but still counts
    against ``max_steps``.  A run whose gradient is exactly zero at a
    checkpoint stops there (``zero-gradient``), returning the parameters a
    full-length run would.  The trace's final record always describes the
    returned parameters.  Raises :class:`TrainingDivergedError` if the
    initial loss is non-finite, or if the parameters overflow unseen by the
    refusal rule (in a neuron dead on every point) by a checkpoint.
    """
    init = init_small(data.dim, cfg.width, cfg.init_scale, cfg.rng_seed)
    w0 = init.weights
    b0 = init.biases
    v = init.out_weights.copy()
    xs, ys = data.points, data.labels

    # With x~ = [x, 1], every update of (W, b) is a combination of the rows
    # of x~: W = W0 + C.T @ xs and b = b0 + C.sum(axis=0) for C of shape
    # (n, k), and the pre-activations are base + gram @ C.  The state and
    # the proposed step each own a (C, pre, act) buffer set, swapped when a
    # step is accepted; W and b are formed only at checkpoints.
    n = data.size
    base = xs @ w0.T + b0
    gram = xs @ xs.T + 1.0
    state = [np.zeros((n, cfg.width)) for _ in range(3)]
    trial = [np.empty((n, cfg.width)) for _ in range(3)]
    g = np.empty((n, cfg.width))
    lr = cfg.learning_rate
    refused = 0
    trace = TrainTrace()
    caller_errstate = np.geterr()

    def forward(c_, pre_, act_, v_):
        np.matmul(gram, c_, out=pre_)
        z_ = ys * _forward_arrays(pre_, base, v_, act=act_)[2]
        per_ = loss_values(z_, cfg.loss_kind)
        return z_, per_, float(per_.sum()) / n

    c, _, act = state
    z, per, loss_now = forward(*state, v)
    if not np.isfinite(loss_now):
        trace.stop_reason = "diverged"
        raise TrainingDivergedError("loss became non-finite at step 0", trace)
    g_v = None

    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.max_steps + 1):
            if loss_now < 1.0 / n and not trace.reached_loss_below_1_over_n:
                trace.reached_loss_below_1_over_n = True
                trace.first_step_below_1_over_n = step

            if g_v is None:
                g_v = _gradient_arrays(ys, act, z, v, cfg.loss_kind, per, out=g)[1]
            last = step == cfg.max_steps
            if step % cfg.checkpoint_every == 0 or last:
                w, b = w0 + c.T @ xs, b0 + c.sum(axis=0)
                norm_sq = float(np.sum(w * w) + np.sum(b * b) + np.sum(v * v))
                if not math.isfinite(norm_sq):
                    trace.stop_reason = "diverged"
                    raise TrainingDivergedError(f"parameters overflowed by step {step}", trace)
                net_now = NetworkParams(w, b, v)
                min_margin = float(np.min(z))
                try:
                    with np.errstate(**caller_errstate):
                        report = kkt.estimate_lambdas(net_now, data)
                    residual, method = report.stationarity_residual, report.residual_method
                except DegenerateNetworkError:
                    residual, method = 1.0, "degenerate"
                trace.records.append(TraceRecord(
                    step, loss_now, min_margin, math.sqrt(norm_sq), min_margin / norm_sq,
                    residual, method, lr, refused))
                if loss_now <= cfg.loss_target and residual <= cfg.kkt_residual_target:
                    trace.stop_reason = "targets-met"
                    return net_now, trace
                # A zero step changes no state, so no later step would either.
                if not (g.any() or g_v.any()):
                    trace.stop_reason = "zero-gradient"
                    return net_now, trace
                if last:
                    trace.stop_reason = "max-steps"
                    return net_now, trace

            c_new = trial[0]
            np.subtract(c, np.multiply(g, lr, out=c_new), out=c_new)
            v_new = v - lr * g_v
            z_new, per_new, loss_new = forward(*trial, v_new)
            # A huge positive margin overflows an output but not the loss.
            if not (math.isfinite(loss_new) and math.isfinite(z_new.max())):
                refused += 1
                lr *= 0.5
                continue
            fitting = loss_now >= 1.0 / n
            decreased = loss_new <= loss_now
            state, trial = trial, state
            c, _, act = state
            v, z, per, loss_now = v_new, z_new, per_new, loss_new
            g_v = None
            if not fitting:
                if not decreased:
                    lr *= 0.5
                elif loss_now >= LR_GROWTH_FREEZE_LOSS:
                    lr *= cfg.lr_growth

    raise AssertionError("unreachable")


def train_non_degenerate(
    data: LabeledDataset, cfg: TrainConfig
) -> tuple[NetworkParams, TrainTrace, int]:
    """Train, deterministically re-seeding a run that died.

    A small init can leave every neuron inactive on every point, from the
    start or after a few steps; the output is then zero and the run stops at
    ``zero-gradient``.  Only such a run is re-seeded (MAX_RESEEDS times at
    most): a new init cannot help a live run that did not fit.  Raises
    :class:`DegenerateNetworkError` unless the returned run got its loss
    below 1/n with a nonzero output.  Returns (net, trace, retries_used).
    """
    for attempt in range(MAX_RESEEDS + 1):
        net, trace = train(data, replace(cfg, rng_seed=cfg.rng_seed + 1_000_003 * attempt))
        dead = trace.final().residual_method == "degenerate"
        if not (dead and trace.stop_reason == "zero-gradient"):
            break
    if dead or not trace.reached_loss_below_1_over_n:
        raise DegenerateNetworkError(f"training failed to fit the data ({trace.stop_reason})")
    return net, trace, attempt


def write_trace_csv(trace: TrainTrace, path) -> None:
    """Write checkpoint records as CSV, one column per :class:`TraceRecord` field.

    Columns: step,loss,min_margin,param_norm,normalized_margin,kkt_residual,
    residual_method,learning_rate,refused_steps.
    """
    _write_csv(path, TRACE_CSV_COLUMNS, (astuple(r) for r in trace.records))
