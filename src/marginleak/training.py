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
        for name in ("init_scale", "learning_rate", "lr_growth", "loss_target",
                     "kkt_residual_target"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        if not self.lr_growth >= 1.0:
            raise ValueError("lr_growth must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


@dataclass(frozen=True)
class TraceRecord:
    """One checkpoint.  ``residual_method`` is the :class:`kkt.KktReport`
    method behind ``kkt_residual`` or, when the network output was zero on
    every point, ``degenerate``; it, ``empty-support`` and ``zero-margin``
    report residual 1.
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

    ``reached_loss_below_1_over_n`` is set, and ``first_step_below_1_over_n``
    recorded, at the first step whose mean loss is below 1/n with every point
    classified (y * output > 0): the run has fit the data.  ``stop_reason``
    is ``targets-met``, ``max-steps``, ``zero-gradient`` (both gradient
    blocks exactly zero at a checkpoint: no later step could move the
    parameters) or ``diverged`` (on a TrainingDivergedError's trace).
    """

    records: list[TraceRecord] = field(default_factory=list)
    reached_loss_below_1_over_n: bool = False
    first_step_below_1_over_n: int | None = None
    stop_reason: str = "unfinished"

    def final(self) -> TraceRecord:
        return self.records[-1]


def _losses(nz: np.ndarray, kind: str) -> np.ndarray:
    """Per-example loss at nz = -z, under the caller's errstate."""
    if kind == "exponential":
        return np.exp(nz)
    if kind == "logistic":
        return np.logaddexp(0.0, nz)
    raise ValueError(f"unknown loss kind {kind!r}")


def loss_values(z: np.ndarray, kind: str) -> np.ndarray:
    """Per-example loss at signed outputs z = y * network(x)."""
    with np.errstate(over="ignore"):
        return _losses(np.negative(z), kind)


def _loss_derivative(z: np.ndarray, kind: str) -> np.ndarray:
    """d loss / dz."""
    if kind == "exponential":
        return np.negative(loss_values(z, kind))
    # logistic: -1 / (1 + e^z), as -e^-z / (1 + e^-z) for z > 0 so no exp overflows
    e = np.exp(-np.abs(z))
    return np.where(z > 0.0, -e, -1.0) / (1.0 + e)


def loss(net: NetworkParams, data: LabeledDataset, kind: str = "exponential") -> float:
    """Mean loss of the network on the dataset."""
    z = data.labels * forward_batch(net, data.points)
    return float(np.mean(loss_values(z, kind)))


def _gradient_arrays(out, nys, act, nz, per, v, kind: str):
    """(G, d/dv) of the mean loss, written into ``out`` = [G; d/dv] of shape (n+1, k).

    From a forward pass with nz = -z and losses ``per``, and nys = -y: G[i, j]
    = loss'(z_i) y_i v_j / n if neuron j is active on point i, else 0, the
    gradient in the row space of x~ = [x, 1], so d/dW = G.T @ xs and d/db =
    G.sum(axis=0).  loss'(z) y is taken, to the bit, as d loss / d(-z) times
    -y; the exponential loss is its own d loss / d(-z).
    """
    n = nys.shape[0]
    slope = per if kind == "exponential" else np.negative(_loss_derivative(-nz, kind))
    coeff = slope * nys / n
    g = np.sign(act, out=out[:n])  # the 0/1 activity mask, as act >= 0
    g *= coeff[:, None]
    g *= v
    return g, np.dot(act.T, coeff, out=out[n])


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
    each point's loss is below 1, which for the exponential loss means every
    point is classified (the logistic loss allows y * output down to about
    -0.54), and the gradient shrinks like exp(-margin), so a fixed step size
    would stall; from there each step that did not increase the loss
    multiplies the step size by ``lr_growth`` (stopping once the loss falls
    below LR_GROWTH_FREEZE_LOSS) and each step that increased it halves it,
    which keeps the margin growing at roughly log(lr_growth) per step.  In
    both phases a step that would overflow the loss or an output is refused
    (halving the step size, without a warning) but still counts against
    ``max_steps``.  A run whose gradient is exactly zero at a
    checkpoint stops there (``zero-gradient``), returning the parameters a
    full-length run would.  The trace's final record always describes the
    returned parameters.  Raises :class:`TrainingDivergedError` if the
    initial loss is non-finite, or if the parameters overflow unseen by the
    refusal rule (in a neuron dead on every point) by a checkpoint.
    """
    init = init_small(data.dim, cfg.width, cfg.init_scale, cfg.rng_seed)
    w0, b0 = init.weights, init.biases
    xs, nys, kind = data.points, -data.labels, cfg.loss_kind

    # With x~ = [x, 1], every update of (W, b) is a combination of the rows
    # of x~: W = W0 + C.T @ xs and b = b0 + C.sum(axis=0) for C of shape
    # (n, k), and the pre-activations are base + gram @ C.  theta = [C; v] is
    # laid out like the gradient [G; d/dv], and the state and the proposed
    # step each own a (theta, C, v, pre, act) buffer set, swapped when a step
    # is accepted.  nz = out * -y is -z to the bit (labels are +-1).
    # Checkpoints see [W, b] only in the basis of kkt._row_span, as coord0 +
    # C.T @ xq; W and b are formed only at the end.
    n, k = data.size, cfg.width
    base = xs @ w0.T + b0
    gram = xs @ xs.T + 1.0
    coord0, xq, perp_sq = kkt._row_span(xs, w0, b0)
    start = None  # the positive duals of the last estimate
    state, trial = ([theta, theta[:n], theta[n], np.empty((n, k)), np.empty((n, k))]
                    for theta in (np.vstack([np.zeros((n, k)), init.out_weights]),
                                  np.empty((n + 1, k))))
    grad = np.empty((n + 1, k))
    total, lowest, highest = np.add.reduce, np.minimum.reduce, np.maximum.reduce
    lr, refused = cfg.learning_rate, 0
    trace = TrainTrace()
    caller_errstate = np.geterr()

    def forward(_theta, c_, v_, pre_, act_):
        nz_ = _forward_arrays(np.dot(gram, c_, out=pre_), base, v_, act=act_)[2] * nys
        per_ = _losses(nz_, kind)
        return nz_, per_, float(total(per_)) / n

    theta, c, v, pre, act = state
    with np.errstate(over="ignore", invalid="ignore"):
        nz, per, loss_now = forward(*state)
        if not math.isfinite(loss_now):
            trace.stop_reason = "diverged"
            raise TrainingDivergedError("loss became non-finite at step 0", trace)
        _gradient_arrays(grad, nys, act, nz, per, v, kind)
        for step in range(cfg.max_steps + 1):
            if not trace.reached_loss_below_1_over_n and loss_now < 1.0 / n and highest(nz) < 0.0:
                trace.reached_loss_below_1_over_n = True
                trace.first_step_below_1_over_n = step

            last = step == cfg.max_steps
            if step % cfg.checkpoint_every == 0 or last:
                z = -nz
                coord = coord0 + c.T @ xq
                norm_sq = perp_sq + float(np.vdot(coord, coord)) + float(v @ v)
                if not math.isfinite(norm_sq):
                    trace.stop_reason = "diverged"
                    raise TrainingDivergedError(f"parameters overflowed by step {step}", trace)
                min_margin = float(np.min(z))
                theta_norm = math.sqrt(norm_sq)
                try:
                    with np.errstate(**caller_errstate):
                        report = kkt.estimate_from_row_space(
                            data, pre, act, z, v,
                            lambda idx: (coord, xq[idx], perp_sq, theta_norm), start=start)
                    residual, method = report.stationarity_residual, report.residual_method
                    start = report.lambdas > 0.0
                except DegenerateNetworkError:
                    residual, method = 1.0, "degenerate"
                trace.records.append(TraceRecord(
                    step, loss_now, min_margin, theta_norm, min_margin / norm_sq,
                    residual, method, lr, refused))
                if loss_now <= cfg.loss_target and residual <= cfg.kkt_residual_target:
                    trace.stop_reason = "targets-met"
                    break
                # A zero step changes no state, so no later step would either.
                if not grad.any():
                    trace.stop_reason = "zero-gradient"
                    break
                if last:
                    trace.stop_reason = "max-steps"
                    break

            new = trial[0]
            np.subtract(theta, np.multiply(grad, lr, out=new), out=new)
            nz_new, per_new, loss_new = forward(*trial)
            # A huge positive margin overflows an output but not the loss.
            if not (math.isfinite(loss_new) and math.isfinite(lowest(nz_new))):
                refused += 1
                lr *= 0.5
                continue
            fitting = loss_now >= 1.0 / n
            decreased = loss_new <= loss_now
            state, trial = trial, state
            theta, c, v, pre, act = state
            nz, per, loss_now = nz_new, per_new, loss_new
            _gradient_arrays(grad, nys, act, nz, per, v, kind)
            if not fitting:
                if not decreased:
                    lr *= 0.5
                elif loss_now >= LR_GROWTH_FREEZE_LOSS:
                    lr *= cfg.lr_growth

    # W is formed once, and the init is dropped before NetworkParams copies
    # it: the sum, added in place, has the bits of w0 + c.T @ xs.
    w = c.T @ xs
    w += w0
    del init, w0
    return NetworkParams(w, b0 + c.sum(axis=0), v), trace


def train_non_degenerate(
    data: LabeledDataset, cfg: TrainConfig
) -> tuple[NetworkParams, TrainTrace, int]:
    """Train, deterministically re-seeding a run that died.

    A small init can leave every neuron inactive on every point, from the
    start or after a few steps; the output is then zero and the run stops at
    ``zero-gradient``.  Only such a run is re-seeded (MAX_RESEEDS times at
    most): a new init cannot help a live run that did not fit.  Raises
    :class:`DegenerateNetworkError` unless the returned run fit the data
    (``reached_loss_below_1_over_n``) with a nonzero output.  Returns (net,
    trace, retries_used).
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
