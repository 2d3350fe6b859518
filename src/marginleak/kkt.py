"""Stationarity analysis: how close is a network to a max-margin critical point.

At an exact stationary point of the margin-maximization problem the parameter
vector is a nonnegative combination of per-point output gradients,
theta = sum_i lambda_i y_i grad Phi(theta; x_i), with lambda_i = 0 off the
margin.  This module estimates the dual weights lambda by nonnegative least
squares restricted to near-margin points, reports the relative stationarity
residual, and evaluates per-point bounds on sum_j v_j^2 lambda_i sigma'_ij
that hold for near-orthogonal data.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import training
from .errors import DegenerateNetworkError
from .model import (
    LabeledDataset, NetworkParams, _check_inputs, _forward_arrays, _write_json,
    forward_batch,
)
from .nnls import nnls_normal

REPORT_FORMAT_VERSION = 1

DEFAULT_SUPPORT_SLACK = 0.1
ARGMIN_REL_SLACK = 1e-9

# A (point, neuron) pair whose pre-activation is this small relative to the
# neuron's largest pre-activation sits at the kink, where any subgradient in
# [0, 1] is admissible.  Networks near stationarity generically park kinks
# exactly on margin points, and the parameters are only explainable with
# interior subgradient values there.
KINK_REL_TOL = 1e-4
_REFINE_MAX_PASSES = 20
# A later refinement pass replaces the best one only when its residual is
# lower by more than this relative amount: residuals that agree to the last
# bits would otherwise let the rounding (and so the BLAS thread count) pick
# the reported duals.
_REFINE_TIE_REL = 1e-12

# Kinks are refined only while the support size times the parameter count is
# at most this.  It caps the cost of the refinement passes, and it keeps the
# outputs recorded for d >= 500 runs: their later checkpoints are not refined,
# so their residuals read higher than refined ones would.
_REFINE_LIMIT = 4_000_000


@dataclass(frozen=True)
class DiagnosticBounds:
    """Near-orthogonality quantities and the per-point dual-sum bounds.

    ``upper_bound`` is m / (Delta + 1 - 2 (delta + 1)(n - 1)); every per-sign
    sum sum_{j in J+-} v_j^2 lambda_l sigma'_lj should stay below it, and for
    support points the sum on the side matching the label should exceed
    ``lower_bound``.  When the denominator is not positive the data is too
    correlated for the bounds to mean anything and both checks are vacuous.
    """

    max_abs_inner: float  # delta: max_{i != l} |x_i . x_l|
    delta_defined: bool
    min_sq_norm: float  # Delta
    max_sq_norm: float  # Delta_max
    bound_denominator_positive: bool
    upper_bound: float
    lower_bound: float
    pos_sums: np.ndarray  # per point: sum over v_j > 0 of v_j^2 lambda sigma'
    neg_sums: np.ndarray
    upper_bound_ok: bool
    lower_bound_ok: bool
    loss_value: float
    margin_lower_ok: bool  # margin > 1/e whenever loss < 1/(2e)


@dataclass(frozen=True)
class KktReport:
    """Estimated duals and stationarity residual for (network, dataset)."""

    margin: float
    support_indices: tuple[int, ...]
    lambdas: np.ndarray
    stationarity_residual: float
    sigma_primes: np.ndarray  # (n, k) in {0, 1}
    diagnostics: DiagnosticBounds | None = None
    # "direct" forms theta - sum lambda_i y_i g_i split at the span of the
    # rows [x_i, 1]; "direct+kink-refinement" also refined the subgradients
    # at kinks and reports the smallest residual over its passes;
    # "empty-support": no point near the margin, residual reported as 1;
    # "zero-margin": some point sits at output 0, so the margin is 0 and no
    # stationarity is defined, residual reported as 1.
    residual_method: str = "direct"


def margin(net: NetworkParams, data: LabeledDataset) -> tuple[float, tuple[int, ...]]:
    """Minimum |output| over the dataset and the indices attaining it.

    Raises :class:`DegenerateNetworkError` if the network outputs zero on
    every point.
    """
    a, m = _abs_and_margin(forward_batch(net, data.points))
    idx = np.nonzero(a - m <= ARGMIN_REL_SLACK * m)[0]
    return m, tuple(int(i) for i in idx)


def _abs_and_margin(out: np.ndarray) -> tuple[np.ndarray, float]:
    a = np.abs(out)
    if float(np.max(a)) == 0.0:
        raise DegenerateNetworkError("network output is zero on every point")
    return a, float(np.min(a))


def _dual_normal(s_y, s_sigma, s_pre, v, inner_x, act_gram, act_v):
    """Normal equations (gram, rhs) of the dual least squares for subgradients s_sigma.

    <g_i, g_l> = y_i y_l [sum_j v_j^2 s_ij s_lj (x_i.x_l + 1) + sum_j act_ij act_lj]
    and <g_i, theta> = y_i sum_j v_j (s_ij pre_ij + act_ij); for strict 0/1
    subgradients s_ij pre_ij == act_ij, so rhs is exactly y * 2 act @ v.
    ``act_gram`` = act act^T and ``act_v`` = act v do not depend on s_sigma.
    """
    gram_g = ((s_sigma * (v * v)) @ s_sigma.T) * inner_x + act_gram
    gram = gram_g * np.outer(s_y, s_y)
    rhs = s_y * ((s_sigma * s_pre) @ v + act_v)
    return gram, rhs


def _span_residual(span, s_sigma: np.ndarray, s_act: np.ndarray, c: np.ndarray,
                   v: np.ndarray) -> float:
    """||theta - sum_i c_i grad Phi(x_i)|| / ||theta|| with c = lambda * y.

    ``span`` = (coord, xq, perp_sq, theta_norm), with Q an orthonormal basis of
    a span holding the rows x~_t of X~_S: coord = [W, b] Q, xq = X~_S Q, perp_sq
    = ||[W, b] - coord Q^T||^2.  Each sum lies in the span, so by Pythagoras
    the residual is split there into two direct differences of (k, rank Q).
    """
    coord, xq, perp_sq, theta_norm = span
    r_span = coord - ((s_sigma * c[:, None]).T @ xq) * v[:, None]
    r_v = v - s_act.T @ c
    return math.sqrt(perp_sq + float(np.vdot(r_span, r_span)) + r_v @ r_v) / theta_norm


def _refine_kink_subgradients(
    v: np.ndarray,
    s_pre: np.ndarray,
    s_y: np.ndarray,
    inner_x: np.ndarray,
    kink: np.ndarray,
    solve,
    lam: np.ndarray,
    residual: float,
) -> tuple[np.ndarray, float]:
    """Alternate between the dual NNLS and the kink subgradients.

    ``solve(sigma, start)`` returns the dual solution and its residual, its
    NNLS warm-started from the previous solve's positive set ``start``; (lam,
    residual) is its value at the strict subgradients.  Entries flagged as
    kinks move freely inside [0, 1]: neuron j's kink entries solve
    min ||[w_j, b_j] / v_j - sum_t c_t s_tj x~_t|| with c = lambda * y, whose
    non-kink part is fixed.  Its normal equations live in the support space:
    the Gram is (c c^T * inner_x)[rows, rows] for the neuron's kink rows and
    c_t x~_t . [w_j, b_j] / v_j = c_t pre_tj / v_j.  The Grams of all
    patterns with r kink rows are pseudo-inverted as one hermitian
    (P_r, r, r) stack with cutoff eps * r, which gives the minimum-norm
    least-squares solution; a pass costs O(k s^2), whatever d is.  Clipping
    that solution to [0, 1] is not the box-constrained minimizer once a
    neuron has two kink rows, so a pass can raise the residual; the best
    (lam, residual) over all solves is returned, ties decided as
    ``_REFINE_TIE_REL`` says.
    """
    neurons = np.nonzero(kink.any(axis=0) & (v != 0.0))[0]
    # Distinct kink patterns (columns), sorted by one lexsort, and each neuron's.
    cols = kink[:, neurons]
    order = np.lexsort(cols[::-1])
    first = np.ones(order.size, dtype=bool)
    first[1:] = (cols[:, order[1:]] != cols[:, order[:-1]]).any(axis=0)
    patterns = cols[:, order[first]]
    group = (np.cumsum(first) - 1)[np.argsort(order)]
    sigma_work = (s_pre > 0.0).astype(float)
    fixed_sigma = np.where(kink, 0.0, sigma_work)[:, neurons]
    target_x = s_pre[:, neurons] / v[neurons]  # x~_t . [w_j, b_j] / v_j
    # Per kink-row count r: the patterns' kink rows (P_r, r), and the member
    # neurons' pattern places in the stack and places in `neurons`.
    counts = patterns.sum(axis=0)
    stacks = []
    for r in np.flatnonzero(np.bincount(counts)):
        in_r, members = np.nonzero(counts == r)[0], np.nonzero(counts[group] == r)[0]
        stacks.append((np.nonzero(patterns[:, in_r].T)[1].reshape(-1, r),
                       np.searchsorted(in_r, group[members]), members))
    # The caller's solve is the first pass.  Stop once a solve gains less
    # than 0.1 % on the one before; the first is compared with the zero-dual
    # residual 1.
    best = lam, residual
    previous = 1.0
    for _ in range(_REFINE_MAX_PASSES - 1):
        if residual >= previous * (1.0 - 1e-3):
            break
        c = lam * s_y
        gram = np.outer(c, c) * inner_x
        rhs = c[:, None] * (target_x - inner_x @ (fixed_sigma * c[:, None]))
        for rows, which, members in stacks:
            kink_rows = rows[which]
            b = rhs[kink_rows, members[:, None]]
            if rows.shape[1] == 1:
                # A 1 x 1 Gram g >= 0 needs no decomposition: its pinv is 1/g,
                # or 0 at g = 0.  + 0.0 keeps the bits of the pinv path, whose
                # matmul adds the product to 0, so that -0 turns +0.
                g = gram[kink_rows, kink_rows]
                sol = np.divide(1.0, g, out=np.zeros_like(g), where=g > 0.0) * b + 0.0
            else:
                pinv = np.linalg.pinv(gram[rows[:, :, None], rows[:, None, :]],
                                      rcond=np.finfo(float).eps * rows.shape[1], hermitian=True)
                sol = (pinv[which] @ b[..., None])[..., 0]
            sigma_work[kink_rows, neurons[members, None]] = np.clip(sol, 0.0, 1.0)
        previous = residual
        lam, residual = solve(sigma_work, lam > 0.0)
        if residual < best[1] * (1.0 - _REFINE_TIE_REL):
            best = lam, residual
    return best


def _row_span(xs: np.ndarray, weights: np.ndarray, biases: np.ndarray):
    """(coord, xq, perp_sq) of :func:`estimate_from_row_space` for [W, b]."""
    xt = np.column_stack([xs, np.ones(xs.shape[0])])
    q = np.linalg.qr(xt.T)[0]
    wb = np.column_stack([weights, biases])
    coord = wb @ q
    perp = np.subtract(wb, coord @ q.T, out=wb) if q.shape[1] <= xs.shape[1] else wb[:0]
    return coord, xt @ q, float(np.vdot(perp, perp))


def estimate_lambdas(
    net: NetworkParams, data: LabeledDataset, support_slack: float = DEFAULT_SUPPORT_SLACK
) -> KktReport:
    """Nonnegative dual estimate restricted to near-margin points.

    Support is {i : |y_i Phi(x_i) - m| <= support_slack * m}; off-support
    duals are fixed to zero.  The residual is ||theta - sum lambda_i y_i g_i||
    relative to ||theta||, minimized jointly over the duals and over the
    admissible subgradient values at (point, neuron) pairs whose
    pre-activation sits at a kink, while the support size times the parameter
    count is at most ``_REFINE_LIMIT``.  An empty support yields residual 1,
    zero duals and the method ``empty-support``; a margin of 0 (some point at
    output 0) yields the same with support () and the method
    ``zero-margin``.  The reported sigma_primes matrix keeps the strict 0/1
    convention regardless of any kink refinement.
    ``residual_method`` says how the residual was computed (see
    :class:`KktReport`).  Raises ValueError unless ``support_slack`` is
    nonnegative and finite, and DimensionMismatchError unless the network
    takes points of the data's dimension.
    """
    xs, v = _check_inputs(net, data.points), net.out_weights
    pre, act, out = _forward_arrays(xs @ net.weights.T, net.biases, v)

    def support_span(idx):
        coord, xq, perp_sq = _row_span(xs[idx], net.weights, net.biases)
        return coord, xq, perp_sq, math.sqrt(perp_sq + float(np.vdot(coord, coord)) + float(v @ v))

    return estimate_from_row_space(data, pre, act, data.labels * out, v, support_span,
                                   support_slack)


def estimate_from_row_space(data: LabeledDataset, pre, act, z, v, span,
                            support_slack: float = DEFAULT_SUPPORT_SLACK,
                            start: np.ndarray | None = None) -> KktReport:
    """:func:`estimate_lambdas` from a row-space view of (net, data); nothing (k, d)-wide.

    ``pre``, ``act``: the (n, k) pre-activations and activations; ``z`` = y *
    output; ``span(idx)``, called once with the support indices, returns
    (coord, xq, perp_sq, ||theta||) with coord = [W, b] Q, xq = X~_idx Q,
    perp_sq = ||[W, b] - coord Q^T||^2 for an orthonormal basis Q of a span
    holding the support rows x~_t = [x_t, 1].  ``start``, a bool mask over the
    points (earlier positive duals), warm-starts the first NNLS.
    """
    if not 0.0 <= support_slack < math.inf:
        raise ValueError(f"support_slack must be nonnegative and finite: {support_slack!r}")
    sigma = (pre > 0.0)
    _, m = _abs_and_margin(z)

    support = np.abs(z - m) <= support_slack * m
    sigma_int = sigma.astype(np.int8)
    lambdas = np.zeros(data.size)
    # At m = 0 the margin problem has no stationarity condition to test.
    if m == 0.0 or not support.any():
        return KktReport(m, (), lambdas, 1.0, sigma_int,
                         residual_method="zero-margin" if m == 0.0 else "empty-support")

    idx = np.nonzero(support)[0]
    s_x = data.points[idx]
    s_sigma = sigma[idx].astype(float)
    s_pre = pre[idx]
    s_act = act[idx]
    s_y = data.labels[idx]
    inner_x = s_x @ s_x.T + 1.0
    fixed = inner_x, s_act @ s_act.T, s_act @ v  # the same for every subgradient pass

    lam = nnls_normal(*_dual_normal(s_y, s_sigma, s_pre, v, *fixed),
                      None if start is None else start[idx])

    s_span = span(idx)
    method = "direct"
    residual = _span_residual(s_span, s_sigma, s_act, lam * s_y, v)
    if idx.size * v.size * (data.dim + 2) <= _REFINE_LIMIT:
        kink_scale = np.maximum(np.max(np.abs(pre), axis=0), np.finfo(float).tiny)
        kink = np.abs(s_pre) <= KINK_REL_TOL * kink_scale
        if kink.any():
            method = "direct+kink-refinement"

            def solve(s_sig, passive):
                lam_s = nnls_normal(*_dual_normal(s_y, s_sig, s_pre, v, *fixed), passive)
                return lam_s, _span_residual(s_span, s_sig, s_act, lam_s * s_y, v)

            lam, residual = _refine_kink_subgradients(
                v, s_pre, s_y, inner_x, kink, solve, lam, residual
            )

    lambdas[idx] = lam
    return KktReport(m, tuple(int(i) for i in idx), lambdas, residual, sigma_int,
                     residual_method=method)


def diagnostic_bounds(
    report: KktReport,
    net: NetworkParams,
    data: LabeledDataset,
    loss_kind: str = "exponential",
) -> DiagnosticBounds:
    """Evaluate per-point dual-sum bounds and the margin lower-bound check.

    ``report`` must have been produced from the same (net, data).  With fewer
    than two points the pairwise inner-product maximum is undefined and
    reported as 0 with ``delta_defined`` false.
    """
    xs, ys = data.points, data.labels
    n = data.size
    norms = np.einsum("ij,ij->i", xs, xs)
    dmin = float(np.min(norms))
    dmax = float(np.max(norms))

    if n >= 2:
        inner = xs @ xs.T
        np.fill_diagonal(inner, 0.0)
        delta = float(np.max(np.abs(inner)))
        delta_defined = True
    else:
        delta = 0.0
        delta_defined = False

    denom = dmin + 1.0 - 2.0 * (delta + 1.0) * (n - 1)
    denom_positive = denom > 0.0
    if denom_positive:
        upper = report.margin / denom
        lower = (report.margin - (delta + 1.0) * (n - 1) * upper) / (dmax + 1.0)
    else:
        upper = math.inf
        lower = -math.inf

    sigma = report.sigma_primes.astype(float)
    v = net.out_weights
    pos_weight = np.where(v > 0.0, v * v, 0.0)
    neg_weight = np.where(v < 0.0, v * v, 0.0)
    pos_sums = report.lambdas * (sigma @ pos_weight)
    neg_sums = report.lambdas * (sigma @ neg_weight)

    slack = 1e-9 * max(1.0, abs(upper) if math.isfinite(upper) else 1.0)
    upper_ok = bool(
        np.all(pos_sums <= upper + slack) and np.all(neg_sums <= upper + slack)
    )
    sup = list(report.support_indices)
    side = np.where(ys[sup] > 0, pos_sums[sup], neg_sums[sup])  # the label's side
    lower_ok = not (math.isfinite(lower) and np.any(side < lower - 1e-9 * max(1.0, abs(lower))))

    loss_value = training.loss(net, data, loss_kind)
    margin_lower_ok = not (loss_value < 1.0 / (2.0 * math.e)) or (
        report.margin > 1.0 / math.e
    )

    return DiagnosticBounds(
        max_abs_inner=delta,
        delta_defined=delta_defined,
        min_sq_norm=dmin,
        max_sq_norm=dmax,
        bound_denominator_positive=denom_positive,
        upper_bound=upper,
        lower_bound=lower,
        pos_sums=pos_sums,
        neg_sums=neg_sums,
        upper_bound_ok=upper_ok,
        lower_bound_ok=lower_ok,
        loss_value=loss_value,
        margin_lower_ok=margin_lower_ok,
    )


def analyze(
    net: NetworkParams,
    data: LabeledDataset,
    support_slack: float = DEFAULT_SUPPORT_SLACK,
    loss_kind: str = "exponential",
) -> KktReport:
    """Full report: dual estimate plus diagnostics."""
    report = estimate_lambdas(net, data, support_slack)
    return replace(report, diagnostics=diagnostic_bounds(report, net, data, loss_kind))


def write_report(report: KktReport, path) -> None:
    """Write the versioned report document (JSON)."""
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "margin": report.margin,
        "support_indices": list(report.support_indices),
        "lambdas": [float(x) for x in report.lambdas],
        "stationarity_residual": report.stationarity_residual,
        "residual_method": report.residual_method,
        "sigma_primes": report.sigma_primes.tolist(),
    }
    if report.diagnostics is not None:
        doc["diagnostics"] = {
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in asdict(report.diagnostics).items()
        }
    _write_json(path, doc)
