"""Reference gradient descent in weight space, the loop ``training.train`` replaced.

``reference_train`` updates the full (k, d) weight matrix on every step and
forms the forward pass as ``xs @ w.T + b``.  ``training.train`` runs the same
descent in the row space of the data (W = W0 + C xs); the two are equal in
exact arithmetic, so tests compare them step count for step count and float
for float within a rounding tolerance.  The forward pass and the gradient are
written out here rather than imported, so the reference shares no arithmetic
with the code under test; the loss, init and stationarity estimate are the
package's own.
"""
from __future__ import annotations

import numpy as np

from marginleak import kkt
from marginleak.errors import DegenerateNetworkError, TrainingDivergedError
from marginleak.model import LabeledDataset, NetworkParams
from marginleak.training import (
    LR_GROWTH_FREEZE_LOSS,
    TraceRecord,
    TrainConfig,
    TrainTrace,
    _loss_derivative,
    init_small,
    loss_values,
)


def _forward(xs, w, b, v):
    pre = xs @ w.T + b
    act = np.maximum(pre, 0.0)
    return pre, act, act @ v


def _gradient(xs, ys, pre, act, z, v, kind):
    coeff = _loss_derivative(z, kind) * ys / ys.shape[0]
    weighted = (pre > 0.0) * coeff[:, None]
    return weighted.T @ xs * v[:, None], weighted.sum(axis=0) * v, act.T @ coeff


def reference_train(
    data: LabeledDataset, cfg: TrainConfig
) -> tuple[NetworkParams, TrainTrace, int]:
    """Weight-space gradient descent with the schedule, checks and stop rules of ``train``.

    Returns (net, trace, refused), where ``refused`` counts the steps refused
    because the loss or an output would have overflowed.
    """
    init = init_small(data.dim, cfg.width, cfg.init_scale, cfg.rng_seed)
    w = init.weights.copy()
    b = init.biases.copy()
    v = init.out_weights.copy()

    xs, ys = data.points, data.labels
    n = data.size
    lr = cfg.learning_rate
    growth_gate = 1.0 / n
    trace = TrainTrace()

    def forward_state(w_, b_, v_):
        pre, act, out = _forward(xs, w_, b_, v_)
        z = ys * out
        return pre, act, z, float(np.mean(loss_values(z, cfg.loss_kind)))

    pre, act, z, loss_now = forward_state(w, b, v)
    grads = None
    refused = 0

    for step in range(cfg.max_steps + 1):
        if not np.isfinite(loss_now):
            trace.stop_reason = "diverged"
            raise TrainingDivergedError(f"loss became non-finite at step {step}", trace)
        if loss_now < 1.0 / n and np.all(z > 0.0) and not trace.reached_loss_below_1_over_n:
            trace.reached_loss_below_1_over_n = True
            trace.first_step_below_1_over_n = step

        if grads is None:
            grads = _gradient(xs, ys, pre, act, z, v, cfg.loss_kind)
        last = step == cfg.max_steps
        if step % cfg.checkpoint_every == 0 or last:
            net_now = NetworkParams(w, b, v)
            min_margin = float(np.min(z))
            norm_sq = float(np.sum(w * w) + np.sum(b * b) + np.sum(v * v))
            try:
                report = kkt.estimate_lambdas(net_now, data)
                residual, method = report.stationarity_residual, report.residual_method
            except DegenerateNetworkError:
                residual, method = 1.0, "degenerate"
            trace.records.append(TraceRecord(
                step=step, loss=loss_now, min_margin=min_margin,
                param_norm=float(np.sqrt(norm_sq)), normalized_margin=min_margin / norm_sq,
                kkt_residual=residual, residual_method=method,
                learning_rate=lr, refused_steps=refused,
            ))
            if loss_now <= cfg.loss_target and residual <= cfg.kkt_residual_target:
                trace.stop_reason = "targets-met"
                return net_now, trace, refused
            if not any(block.any() for block in grads):
                trace.stop_reason = "zero-gradient"
                return net_now, trace, refused
            if last:
                trace.stop_reason = "max-steps"
                return net_now, trace, refused

        w_new = w - lr * grads[0]
        b_new = b - lr * grads[1]
        v_new = v - lr * grads[2]
        pre_new, act_new, z_new, loss_new = forward_state(w_new, b_new, v_new)
        if not (np.isfinite(loss_new) and np.all(np.isfinite(z_new))):
            refused += 1
            lr *= 0.5
            continue
        fitting = loss_now >= growth_gate
        decreased = loss_new <= loss_now
        w, b, v = w_new, b_new, v_new
        pre, act, z, loss_now = pre_new, act_new, z_new, loss_new
        grads = None
        if not fitting:
            if not decreased:
                lr *= 0.5
            elif loss_now >= LR_GROWTH_FREEZE_LOSS:
                lr *= cfg.lr_growth

    raise AssertionError("unreachable")
