"""Constructive oracles: networks satisfying the stationarity conditions exactly.

Each builder picks duals, labels and an activation pattern, then assembles
parameters from the per-neuron fixed-point identities

    v_j = sum_i lam_i y_i relu(w_j . x_i + b_j)
    w_j = v_j sum_i lam_i y_i x_i sigma'_ij
    b_j = v_j sum_i lam_i y_i sigma'_ij

at a consistent pattern, so theta = sum_i lam_i y_i grad Phi(theta; x_i)
holds to machine precision.  ``verify_stationarity`` recomputes everything
from scratch (no NNLS, no estimator code) and is the independent check the
estimator tests compare against.
"""
from __future__ import annotations

import numpy as np

from marginleak import LabeledDataset, NetworkParams, forward_batch


def parameter_vector(params) -> np.ndarray:
    """The (weights, biases, out_weights) of a network or gradient, flattened."""
    return np.concatenate([params.weights.ravel(), params.biases, params.out_weights])


def params_from_vector(vec: np.ndarray, input_dim: int, width: int) -> NetworkParams:
    """Inverse of :func:`parameter_vector`."""
    vec = np.asarray(vec, dtype=float)
    w = vec[: width * input_dim].reshape(width, input_dim)
    b = vec[width * input_dim : width * (input_dim + 1)]
    return NetworkParams(w, b, vec[width * (input_dim + 1) :])


def output_gradient(net: NetworkParams, x: np.ndarray, kink_tol: np.ndarray | float = 0.0) -> np.ndarray:
    """grad_theta Phi(theta; x), active iff the pre-activation clears kink_tol.

    The constructions park kinks exactly on data points; float rounding can
    leave those pre-activations one ulp on either side of zero, so the
    subgradient there is pinned to the constructed value 0 via the tolerance.
    """
    pre = net.weights @ x + net.biases
    sigma = (pre > kink_tol).astype(float)
    sv = net.out_weights * sigma
    return np.concatenate([np.outer(sv, x).ravel(), sv, np.maximum(pre, 0.0)])


def _kink_tolerances(net: NetworkParams, data: LabeledDataset) -> np.ndarray:
    pre = data.points @ net.weights.T + net.biases
    return 1e-12 * np.maximum(np.max(np.abs(pre), axis=0), 1.0)


def verify_stationarity(net: NetworkParams, data: LabeledDataset, lambdas: np.ndarray) -> float:
    """Relative gap ||theta - sum_i lambda_i y_i g_i|| / ||theta||."""
    theta = parameter_vector(net)
    tol = _kink_tolerances(net, data)
    combo = np.zeros_like(theta)
    for i in range(data.size):
        combo += lambdas[i] * data.labels[i] * output_gradient(net, data.points[i], tol)
    return float(np.linalg.norm(theta - combo) / np.linalg.norm(theta))


def margin_values(net: NetworkParams, data: LabeledDataset) -> np.ndarray:
    return data.labels * forward_batch(net, data.points)


def single_point_network(x, y: float, out_weights) -> tuple[NetworkParams, LabeledDataset, np.ndarray, float]:
    """Every neuron dedicated to the single training point.

    Stationarity forces lam = 1 / sqrt(||x||^2 + 1); the out-weight
    magnitudes are free, their signs must match the label.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = y * np.abs(np.asarray(out_weights, dtype=float))
    lam = 1.0 / np.sqrt(x @ x + 1.0)
    w = np.outer(v * lam * y, x)
    b = v * lam * y
    net = NetworkParams(w, b, v)
    data = LabeledDataset(x.reshape(1, -1), np.array([y]))
    margin = float(np.sum(v * v) * lam * (x @ x + 1.0))
    return net, data, np.array([lam]), margin


def opposite_pair_network(
    x_pos, scale: float = 1.0, k_pos: int = 1, k_neg: int = 1, rng=None
) -> tuple[NetworkParams, LabeledDataset, np.ndarray, float]:
    """Two points with x_neg . x_pos = -1, labels (-1, +1), margin-equal.

    Each side gets its own dedicated neurons whose kink falls exactly on the
    opposite point (pre-activation zero there, subgradient 0), the generic
    stationary geometry.  ``scale`` controls the positive point's norm;
    ``rng`` randomizes the neuron magnitudes.
    """
    rng = rng or np.random.default_rng(0)
    x_pos = np.atleast_1d(np.asarray(x_pos, dtype=float)) * scale
    x_neg = -x_pos / float(x_pos @ x_pos)
    assert abs(x_neg @ x_pos + 1.0) < 1e-12

    lam_pos = 1.0 / np.sqrt(x_pos @ x_pos + 1.0)
    lam_neg = 1.0 / np.sqrt(x_neg @ x_neg + 1.0)

    v_pos = rng.uniform(0.5, 1.5, size=k_pos)
    v_neg = -rng.uniform(0.5, 1.5, size=k_neg)
    # Equal margins on both support points pin the relative side magnitudes:
    # sum(v_pos^2) / sqrt(|x_pos|^2 + 1) must equal the negative side's.
    target = np.sum(v_pos**2) * np.sqrt(x_pos @ x_pos + 1.0)
    v_neg *= np.sqrt(target / (np.sum(v_neg**2) * np.sqrt(x_neg @ x_neg + 1.0)))

    rows_w, rows_b, rows_v = [], [], []
    for v in v_pos:
        rows_w.append(v * lam_pos * x_pos)
        rows_b.append(v * lam_pos)
        rows_v.append(v)
    for v in v_neg:
        rows_w.append(v * lam_neg * (-1.0) * x_neg)
        rows_b.append(v * lam_neg * (-1.0))
        rows_v.append(v)
    net = NetworkParams(np.array(rows_w), np.array(rows_b), np.array(rows_v))
    data = LabeledDataset(np.vstack([x_neg, x_pos]), np.array([-1.0, 1.0]))
    lambdas = np.array([lam_neg, lam_pos])
    margin = float(target)
    return net, data, lambdas, margin


def shared_pattern_network(
    points: np.ndarray, out_weights, max_condition: float = 1e6
) -> tuple[NetworkParams, LabeledDataset, np.ndarray, float]:
    """All labels +1, every neuron active on every point.

    The duals solve G lam = const with G the bias-augmented Gram matrix; the
    construction requires them positive, which holds when the points are
    closer to orthogonal than to parallel.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    gram = points @ points.T + 1.0
    lam0 = np.linalg.solve(gram, np.ones(n))
    if np.min(lam0) <= 0 or np.linalg.cond(gram) > max_condition:
        raise ValueError("points too correlated for the shared-pattern construction")
    lam = lam0 / np.sqrt(lam0 @ gram @ lam0)

    v = np.abs(np.asarray(out_weights, dtype=float))
    p = points.T @ lam
    q = float(np.sum(lam))
    net = NetworkParams(np.outer(v, p), v * q, v)
    data = LabeledDataset(points, np.ones(n))
    alpha = gram @ lam
    assert np.allclose(alpha, alpha[0], rtol=1e-9)
    margin = float(np.sum(v * v) * alpha[0])
    return net, data, lam, margin


def construction_suite(count: int, seed: int = 0):
    """A mixed batch of exact constructions for batch testing."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            d = int(rng.integers(1, 8))
            k = int(rng.integers(1, 5))
            x = rng.normal(size=d)
            y = float(rng.choice([-1.0, 1.0]))
            out.append(single_point_network(x, y, rng.uniform(0.5, 2.0, size=k)))
        elif kind == 1:
            d = int(rng.integers(1, 8))
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            out.append(
                opposite_pair_network(
                    u, scale=float(rng.uniform(0.6, 1.8)),
                    k_pos=int(rng.integers(1, 4)), k_neg=int(rng.integers(1, 4)),
                    rng=rng,
                )
            )
        else:
            n = int(rng.integers(2, 6))
            d = int(rng.integers(8 * n, 16 * n))
            points = rng.normal(size=(n, d)) * rng.uniform(0.8, 1.2)
            try:
                out.append(shared_pattern_network(points, rng.uniform(0.5, 2.0, size=int(rng.integers(1, 6)))))
            except ValueError:
                continue
    return out


def _reference_gradient_matrix(net: NetworkParams, s_x, s_y, s_sigma, s_act) -> np.ndarray:
    """Columns y_i grad Phi(x_i), laid out like the parameter vector."""
    cols = []
    for x, y, sigma_row, act_row in zip(s_x, s_y, s_sigma, s_act):
        sv = net.out_weights * sigma_row
        cols.append(y * np.concatenate([np.outer(sv, x).ravel(), sv, act_row]))
    return np.column_stack(cols)


def _reference_refine(net: NetworkParams, s_x, s_y, sigma_work, kink, s_act, theta):
    """Per-neuron kink refinement on the materialized gradient matrix.

    Returns the best (lambdas, residual) over its passes: clipping a neuron's
    least-squares subgradients to [0, 1] can make a pass worse.
    """
    from marginleak.kkt import _REFINE_MAX_PASSES
    from marginleak.nnls import nnls_normal

    theta_norm = float(np.linalg.norm(theta))
    v = net.out_weights
    lam = np.zeros(s_y.size)
    residual = 1.0
    best = lam, np.inf
    for _ in range(_REFINE_MAX_PASSES):
        cols = _reference_gradient_matrix(net, s_x, s_y, sigma_work, s_act)
        lam = nnls_normal(cols.T @ cols, cols.T @ theta)
        new_residual = float(np.linalg.norm(theta - cols @ lam)) / theta_norm
        if new_residual <= best[1]:
            best = lam, new_residual
        converged = new_residual >= residual * (1.0 - 1e-3)
        residual = new_residual
        if converged:
            break
        for j in range(net.width):
            rows = np.nonzero(kink[:, j])[0]
            if rows.size == 0 or v[j] == 0.0:
                continue
            target = np.concatenate([net.weights[j], [net.biases[j]]]) / v[j]
            fixed = np.zeros(net.input_dim + 1)
            for t, x in enumerate(s_x):
                if kink[t, j]:
                    continue
                fixed += lam[t] * s_y[t] * sigma_work[t, j] * np.append(x, 1.0)
            basis = np.column_stack(
                [lam[t] * s_y[t] * np.append(s_x[t], 1.0) for t in rows]
            )
            sol, *_ = np.linalg.lstsq(basis, target - fixed, rcond=None)
            sigma_work[rows, j] = np.clip(sol, 0.0, 1.0)
    return best


def reference_estimate_lambdas(net: NetworkParams, data: LabeledDataset, support_slack: float = 0.1):
    """(lambdas, residual, refined) from the materialized-matrix estimator.

    The reference for ``marginleak.estimate_lambdas`` below its size gate:
    the gradient matrix is built column by column and every kinked neuron's
    subgradients are solved one at a time.
    """
    from marginleak.kkt import KINK_REL_TOL
    from marginleak.nnls import nnls_normal

    xs, ys = data.points, data.labels
    pre = xs @ net.weights.T + net.biases
    act = np.maximum(pre, 0.0)
    out = act @ net.out_weights
    m = float(np.min(np.abs(out)))
    support = np.abs(ys * out - m) <= support_slack * m
    idx = np.nonzero(support)[0]
    s_x, s_y, s_act = xs[idx], ys[idx], act[idx]
    s_sigma = (pre[idx] > 0.0).astype(float)
    theta = parameter_vector(net)
    v = net.out_weights
    gram = ((s_sigma * (v * v)) @ s_sigma.T) * (s_x @ s_x.T + 1.0) + s_act @ s_act.T
    lam = nnls_normal(gram * np.outer(s_y, s_y), s_y * (2.0 * s_act @ v))
    cols = _reference_gradient_matrix(net, s_x, s_y, s_sigma, s_act)
    residual = float(np.linalg.norm(theta - cols @ lam)) / float(np.linalg.norm(theta))
    kink_scale = np.maximum(np.max(np.abs(pre), axis=0), np.finfo(float).tiny)
    kink = np.abs(pre[idx]) <= KINK_REL_TOL * kink_scale
    if kink.any():
        lam_ref, res_ref = _reference_refine(net, s_x, s_y, s_sigma.copy(), kink, s_act, theta)
        if res_ref <= residual:
            lam, residual = lam_ref, res_ref
    lambdas = np.zeros(data.size)
    lambdas[idx] = lam
    return lambdas, residual, bool(kink.any())
