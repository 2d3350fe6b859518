"""Nonnegative least squares on the normal equations.

Active-set solver for min_{x >= 0} ||A x - b|| given only gram = A^T A and
rhs = A^T b.  Working from the normal equations lets callers with very tall,
structured A (gradients of wide networks) avoid materializing it.
"""
from __future__ import annotations

import numpy as np

# Outer (and per-pass inner) iteration cap of the active-set loop.
MAX_ITER = 10_000
# Relative to max(1, ||rhs||_inf): bounds the positive part of the dual
# vector at the returned solution, and zeroes entries of x at or below it.
TOL = 1e-12


def nnls_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve min_{x >= 0} ||A x - b|| from gram = A^T A, rhs = A^T b.

    ``TOL`` times max(1, ||rhs||_inf) bounds the positive part of the dual
    vector rhs - gram @ x at the returned solution.  Rank-deficient
    subproblems are handled with a least-squares solve.
    """
    gram = np.asarray(gram, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if gram.shape != (n, n):
        raise ValueError(f"gram must be ({n}, {n}), got {gram.shape}")

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    dual = rhs.copy()
    scale = max(1.0, float(np.max(np.abs(rhs))) if n else 1.0)

    def restricted_solve() -> np.ndarray:
        sub = gram[np.ix_(passive, passive)]
        target = rhs[passive]
        try:
            sol = np.linalg.solve(sub, target)
            if np.all(np.isfinite(sol)):
                return sol
        except np.linalg.LinAlgError:
            pass
        return np.linalg.lstsq(sub, target, rcond=None)[0]

    for _ in range(MAX_ITER):
        free = ~passive
        if not free.any():
            break
        j = int(np.argmax(np.where(free, dual, -np.inf)))
        if dual[j] <= TOL * scale:
            break
        passive[j] = True

        # Inner loop: retreat until the restricted solution is feasible.
        for _ in range(MAX_ITER):
            s = np.zeros(n)
            s[passive] = restricted_solve()
            if s[passive].min() > 0.0:
                x = s
                break
            shrink = passive & (s <= 0.0) & (x > s)
            alpha = float(np.min(x[shrink] / (x[shrink] - s[shrink])))
            x = x + alpha * (s - x)
            drop = passive & (x <= TOL * scale)
            x[drop] = 0.0
            passive[drop] = False
            if not passive.any():
                break
        dual = rhs - gram @ x

    return np.maximum(x, 0.0)
