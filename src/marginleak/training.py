"""Full-batch gradient descent on exponential/logistic loss from small init.

With separable data and either loss, long training drives the parameters
toward a stationary direction of the max-margin problem.  Because gradients
shrink like exp(-margin) once the data is fit, the step size is grown
geometrically from that point on, so an approximate stationary point is
reachable in a finite number of steps.
"""
from __future__ import annotations

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

@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    ``width`` is the hidden-layer size.  Training stops when the loss is at
    most ``loss_target`` AND the stationarity residual is at most
    ``kkt_residual_target`` (both checked every ``checkpoint_every`` steps),
    or after ``max_steps`` updates.  ``ensure_active_neuron`` rebiases neuron
    0 at init so it starts active on every training point, emulating an
    affine pass-through unit within the ReLU architecture.
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
    ensure_active_neuron: bool = False

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
    """

    step: int
    loss: float
    min_margin: float
    param_norm: float
    normalized_margin: float
    kkt_residual: float
    residual_method: str


TRACE_CSV_COLUMNS = tuple(f.name for f in fields(TraceRecord))


@dataclass
class TrainTrace:
    """Checkpoint records plus run-level outcome flags."""

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


def _loss_derivative(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "exponential":
        with np.errstate(over="ignore"):
            return -np.exp(-z)
    # logistic: -1 / (1 + e^z), computed without overflow for large |z|
    with np.errstate(over="ignore"):
        return -1.0 / (1.0 + np.exp(z))


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


def _gradient_arrays(ys, pre, act, z, v, kind: str):
    """(G, d/db, d/dv) of the mean loss from a forward pass; d/dW = G @ xs."""
    coeff = _loss_derivative(z, kind) * ys / ys.shape[0]  # (n,)
    weighted = (pre > 0.0) * coeff[:, None]  # (n, k)
    return (weighted * v).T, weighted.sum(axis=0) * v, act.T @ coeff


def gradient(net: NetworkParams, data: LabeledDataset, kind: str = "exponential") -> Gradient:
    """Analytic gradient of the mean loss.

    The ReLU subgradient is taken to be 0 at exact kinks (active iff the
    pre-activation is strictly positive), matching the rest of the package.
    """
    xs = _check_inputs(net, data.points)
    pre, act, out = _forward_arrays(xs @ net.weights.T, net.biases, net.out_weights)
    z = data.labels * out
    rows, g_b, g_v = _gradient_arrays(data.labels, pre, act, z, net.out_weights, kind)
    return Gradient(rows @ xs, g_b, g_v)


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


def _rebias_first_neuron(w: np.ndarray, b: np.ndarray, xs: np.ndarray, scale: float) -> None:
    # Make neuron 0 active on every training point without leaving the
    # small-init scale regime.
    reach = float(np.max(np.abs(xs @ w[0])))
    b[0] = reach + scale


def train(data: LabeledDataset, cfg: TrainConfig) -> tuple[NetworkParams, TrainTrace]:
    """Run full-batch gradient descent; returns final parameters and trace.

    While the loss is at least 1/n the step size stays at its configured
    value and descent is ordinary full-batch gradient descent.  Below 1/n
    every point is classified and the gradient shrinks like exp(-margin), so
    a fixed step size would stall; from there each step that did not increase
    the loss multiplies the step size by ``lr_growth`` (stopping once the
    loss falls below LR_GROWTH_FREEZE_LOSS) and each step that increased it
    halves it, which keeps the margin growing at roughly log(lr_growth) per
    step.  In both phases a step that would overflow is refused (halving the
    step size) but still counts against ``max_steps``.  The trace's final
    record always describes the returned parameters.  Raises
    :class:`TrainingDivergedError` if the loss becomes non-finite (possible
    only at the initial state).
    """
    init = init_small(data.dim, cfg.width, cfg.init_scale, cfg.rng_seed)
    w0 = init.weights
    b = init.biases.copy()
    v = init.out_weights.copy()
    xs, ys = data.points, data.labels
    if cfg.ensure_active_neuron:
        _rebias_first_neuron(w0, b, xs, cfg.init_scale)

    # Each update of W is a combination of the rows of xs, so W = W0 + C @ xs
    # and xs @ W.T = a0 + gram @ C.T; W is formed only at checkpoints.
    n = data.size
    a0 = xs @ w0.T
    gram = xs @ xs.T
    c = np.zeros((cfg.width, n))
    lr = cfg.learning_rate
    trace = TrainTrace()

    def forward_state(c_, b_, v_):
        pre, act, out = _forward_arrays(a0 + gram @ c_.T, b_, v_)
        z = ys * out
        return pre, act, z, float(np.mean(loss_values(z, cfg.loss_kind)))

    pre, act, z, loss_now = forward_state(c, b, v)
    grads = None

    for step in range(cfg.max_steps + 1):
        if not np.isfinite(loss_now):
            trace.stop_reason = "diverged"
            raise TrainingDivergedError(
                f"loss became non-finite at step {step}", trace
            )
        if loss_now < 1.0 / n and not trace.reached_loss_below_1_over_n:
            trace.reached_loss_below_1_over_n = True
            trace.first_step_below_1_over_n = step

        last = step == cfg.max_steps
        if step % cfg.checkpoint_every == 0 or last:
            w = w0 + c @ xs
            net_now = NetworkParams(w, b, v)
            min_margin = float(np.min(z))
            norm_sq = float(np.sum(w * w) + np.sum(b * b) + np.sum(v * v))
            try:
                report = kkt.estimate_lambdas(net_now, data)
                residual, method = report.stationarity_residual, report.residual_method
            except DegenerateNetworkError:
                residual, method = 1.0, "degenerate"
            trace.records.append(
                TraceRecord(
                    step=step,
                    loss=loss_now,
                    min_margin=min_margin,
                    param_norm=float(np.sqrt(norm_sq)),
                    normalized_margin=min_margin / norm_sq,
                    kkt_residual=residual,
                    residual_method=method,
                )
            )
            if loss_now <= cfg.loss_target and residual <= cfg.kkt_residual_target:
                trace.stop_reason = "targets-met"
                return net_now, trace
            if last:
                trace.stop_reason = "max-steps"
                return net_now, trace

        if grads is None:
            grads = _gradient_arrays(ys, pre, act, z, v, cfg.loss_kind)
        c_new = c - lr * grads[0]
        b_new = b - lr * grads[1]
        v_new = v - lr * grads[2]
        pre_new, act_new, z_new, loss_new = forward_state(c_new, b_new, v_new)
        if not np.isfinite(loss_new):
            lr *= 0.5
            continue
        fitting = loss_now >= 1.0 / n
        decreased = loss_new <= loss_now
        c, b, v = c_new, b_new, v_new
        pre, act, z, loss_now = pre_new, act_new, z_new, loss_new
        grads = None
        if not fitting:
            if not decreased:
                lr *= 0.5
            elif loss_now >= LR_GROWTH_FREEZE_LOSS:
                lr *= cfg.lr_growth

    raise AssertionError("unreachable")


def train_non_degenerate(
    data: LabeledDataset,
    cfg: TrainConfig,
    max_retries: int = 20,
    require_targets_met: bool = False,
) -> tuple[NetworkParams, TrainTrace, int]:
    """Train, deterministically re-seeding until the run actually fit.

    Small random inits can start with dead neurons (no gradient signal at
    all) or commit to a structure that never classifies every point; the
    margin analysis is only meaningful for runs whose loss dropped below
    1/n.  With ``require_targets_met`` a run must additionally have stopped
    by reaching the loss and stationarity targets, not by running out of
    steps.  Returns (net, trace, retries_used).
    """
    for attempt in range(max_retries + 1):
        run_cfg = replace(cfg, rng_seed=cfg.rng_seed + 1_000_003 * attempt)
        net, trace = train(data, run_cfg)
        outputs = np.abs(forward_batch(net, data.points))
        usable = float(np.max(outputs)) > 0.0 and trace.reached_loss_below_1_over_n
        if usable and require_targets_met:
            usable = trace.stop_reason == "targets-met"
        if usable:
            return net, trace, attempt
    raise DegenerateNetworkError(
        f"training failed to fit the data in {max_retries + 1} attempts"
    )


def write_trace_csv(trace: TrainTrace, path) -> None:
    """Write checkpoint records as CSV, one column per :class:`TraceRecord` field.

    Columns: step,loss,min_margin,param_norm,normalized_margin,kkt_residual,
    residual_method.
    """
    _write_csv(path, TRACE_CSV_COLUMNS, (astuple(r) for r in trace.records))
