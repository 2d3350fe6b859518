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
    LabeledDataset, NetworkParams, _forward_arrays, _write_json, forward_batch,
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

# Above this support size times parameter count the residual is taken from the
# quadratic form ||theta||^2 - 2 lambda.rhs + lambda.gram.lambda, without kink
# refinement (adequate for the loose tolerances used on trained networks);
# below it, the residual is formed directly and kinks are refined.
_MATERIALIZE_LIMIT = 4_000_000


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
    # "direct" forms theta - sum lambda_i y_i g_i;
    # "direct+kink-refinement" also refined the subgradients at kinks and
    # reports the smaller residual; "quadratic-form" expands the square
    # through the Gram matrix (large networks, no refinement);
    # "empty-support": no point near the margin, residual reported as 1.
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


def _dual_normal(s_y, s_sigma, s_pre, s_act, v, inner_x):
    """Normal equations (gram, rhs) of the dual least squares for subgradients s_sigma.

    <g_i, g_l> = y_i y_l [sum_j v_j^2 s_ij s_lj (x_i.x_l + 1) + sum_j act_ij act_lj]
    and <g_i, theta> = y_i sum_j v_j (s_ij pre_ij + act_ij); for strict 0/1
    subgradients s_ij pre_ij == act_ij, so rhs is exactly y * 2 act @ v.
    """
    gram_g = ((s_sigma * (v * v)) @ s_sigma.T) * inner_x + s_act @ s_act.T
    gram = gram_g * np.outer(s_y, s_y)
    rhs = s_y * ((s_sigma * s_pre) @ v + s_act @ v)
    return gram, rhs


def _direct_residual(net: NetworkParams, s_xt: np.ndarray, s_sigma: np.ndarray,
                     s_act: np.ndarray, c: np.ndarray, theta_norm: float) -> float:
    """||theta - sum_i c_i grad Phi(x_i)|| / ||theta|| with c = lambda * y.

    s_xt holds the support points with a column of ones appended; the sum is
    formed per parameter block, in O(k d) memory.
    """
    v = net.out_weights
    wb = ((s_sigma * c[:, None]).T @ s_xt) * v[:, None]
    r_w = net.weights - wb[:, :-1]
    r_b = net.biases - wb[:, -1]
    r_v = v - s_act.T @ c
    return math.sqrt(float(np.vdot(r_w, r_w) + r_b @ r_b + r_v @ r_v)) / theta_norm


def _refine_kink_subgradients(
    net: NetworkParams,
    s_xt: np.ndarray,
    s_y: np.ndarray,
    sigma_work: np.ndarray,
    kink: np.ndarray,
    solve,
    lam: np.ndarray,
    residual: float,
) -> tuple[np.ndarray, float]:
    """Alternate between the dual NNLS and the kink subgradients.

    ``solve(sigma_work)`` returns the dual solution and its residual;
    (lam, residual) is its value at the strict subgradients.  Each
    alternation minimizes the same objective over one block, so the residual
    is non-increasing; entries of sigma_work flagged as kinks move freely
    inside [0, 1].  Neuron j's kink entries solve
    min ||[w_j, b_j] / v_j - sum_t c_t s_tj x~_t|| with c = lambda * y, whose
    non-kink part is fixed.  That least-squares basis depends only on the
    neuron's kink rows, so neurons sharing a kink pattern are solved together.
    Each neuron reads only its own non-kink entries, which no pass writes.
    """
    v = net.out_weights
    neurons = np.nonzero(kink.any(axis=0) & (v != 0.0))[0]
    patterns, group = np.unique(kink[:, neurons], axis=1, return_inverse=True)
    group = group.ravel()
    target = np.column_stack([net.weights, net.biases])[neurons] / v[neurons, None]
    fixed_sigma = np.where(kink, 0.0, sigma_work)[:, neurons]
    # The caller's solve is the first pass.  Stop once a solve gains less
    # than 0.1 % on the one before; the first is compared with the zero-dual
    # residual 1.
    previous = 1.0
    for _ in range(_REFINE_MAX_PASSES - 1):
        if residual >= previous * (1.0 - 1e-3):
            break
        c = lam * s_y
        free = target - (fixed_sigma * c[:, None]).T @ s_xt
        basis_rows = c[:, None] * s_xt
        for g in range(patterns.shape[1]):
            rows = np.nonzero(patterns[:, g])[0]
            members = group == g
            sol, *_ = np.linalg.lstsq(basis_rows[rows].T, free[members].T, rcond=None)
            sigma_work[np.ix_(rows, neurons[members])] = np.clip(sol, 0.0, 1.0)
        previous = residual
        lam, residual = solve(sigma_work)
    return lam, residual


def estimate_lambdas(
    net: NetworkParams, data: LabeledDataset, support_slack: float = DEFAULT_SUPPORT_SLACK
) -> KktReport:
    """Nonnegative dual estimate restricted to near-margin points.

    Support is {i : |y_i Phi(x_i) - m| <= support_slack * m}; off-support
    duals are fixed to zero.  The residual is ||theta - sum lambda_i y_i g_i||
    relative to ||theta||, minimized jointly over the duals and over the
    admissible subgradient values at (point, neuron) pairs whose
    pre-activation sits at a kink.  An empty support yields residual 1, zero
    duals and the method ``empty-support``.  The reported sigma_primes matrix
    keeps the strict 0/1 convention regardless of any kink refinement.
    ``residual_method`` says how the residual was computed (see
    :class:`KktReport`).  Raises ValueError unless ``support_slack`` is
    nonnegative and finite.
    """
    if not 0.0 <= support_slack < math.inf:
        raise ValueError(f"support_slack must be nonnegative and finite: {support_slack!r}")
    xs, ys = data.points, data.labels
    pre, act, out = _forward_arrays(xs @ net.weights.T, net.biases, net.out_weights)
    sigma = (pre > 0.0)
    _, m = _abs_and_margin(out)

    support = np.abs(ys * out - m) <= support_slack * m
    sigma_int = sigma.astype(np.int8)
    lambdas = np.zeros(data.size)
    if not support.any():
        return KktReport(m, (), lambdas, 1.0, sigma_int, residual_method="empty-support")

    idx = np.nonzero(support)[0]
    s_x = xs[idx]
    s_sigma = sigma[idx].astype(float)
    s_pre = pre[idx]
    s_act = act[idx]
    s_y = ys[idx]
    v = net.out_weights
    inner_x = s_x @ s_x.T + 1.0

    gram, rhs = _dual_normal(s_y, s_sigma, s_pre, s_act, v, inner_x)
    lam = nnls_normal(gram, rhs)

    theta = net.parameter_vector()
    theta_norm = float(np.linalg.norm(theta))
    if idx.size * theta.size > _MATERIALIZE_LIMIT:
        method = "quadratic-form"
        res_sq = theta_norm**2 - 2.0 * lam @ rhs + lam @ gram @ lam
        residual = math.sqrt(max(res_sq, 0.0)) / theta_norm
    else:
        method = "direct"
        s_xt = np.column_stack([s_x, np.ones(idx.size)])
        residual = _direct_residual(net, s_xt, s_sigma, s_act, lam * s_y, theta_norm)
        kink_scale = np.maximum(np.max(np.abs(pre), axis=0), np.finfo(float).tiny)
        kink = np.abs(s_pre) <= KINK_REL_TOL * kink_scale
        if kink.any():
            method = "direct+kink-refinement"

            def solve(s_sig):
                lam_s = nnls_normal(*_dual_normal(s_y, s_sig, s_pre, s_act, v, inner_x))
                return lam_s, _direct_residual(net, s_xt, s_sig, s_act, lam_s * s_y, theta_norm)

            lam_ref, res_ref = _refine_kink_subgradients(
                net, s_xt, s_y, s_sigma.copy(), kink, solve, lam, residual
            )
            if res_ref <= residual:
                lam, residual = lam_ref, res_ref

    lambdas[idx] = lam
    return KktReport(m, tuple(int(i) for i in idx), lambdas, residual, sigma_int,
                     residual_method=method)


def diagnostic_bounds(
    report: KktReport,
    net: NetworkParams,
    data: LabeledDataset,
    loss_kind: str = "logistic",
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
    lower_ok = True
    if math.isfinite(lower):
        lslack = 1e-9 * max(1.0, abs(lower))
        for i in report.support_indices:
            side = pos_sums[i] if ys[i] > 0 else neg_sums[i]
            if side < lower - lslack:
                lower_ok = False
                break

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
    loss_kind: str = "logistic",
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
