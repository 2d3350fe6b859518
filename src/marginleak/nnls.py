"""Nonnegative least squares on the normal equations.

Active-set solver for min_{x >= 0} ||A x - b|| given only gram = A^T A and
rhs = A^T b.  Working from the normal equations lets callers with very tall,
structured A (gradients of wide networks) avoid materializing it.
"""
from __future__ import annotations

import numpy as np

# Outer (and per-pass inner) iteration cap of the active-set loop.
MAX_ITER = 10_000
# Relative tolerance.  Times ||rhs||_inf it bounds the positive part of the
# dual vector at the returned solution; times max|x| it zeroes the entries of
# x at or below it.  Both are relative, so the stops do not depend on the
# scale of (A, b).
TOL = 1e-12


def nnls_normal(gram: np.ndarray, rhs: np.ndarray, passive=None) -> np.ndarray:
    """Solve min_{x >= 0} ||A x - b|| from gram = A^T A, rhs = A^T b.

    ``TOL`` times ||rhs||_inf bounds the positive part of the dual vector
    rhs - gram @ x at the returned solution.  Rank-deficient subproblems are
    handled with a least-squares solve; when one leaves the entry just added
    at 0 with nothing to shrink (a Gram that underflowed to 0), the solver
    stops with the x it has.  The bool mask ``passive`` is a warm start (Van
    Benthem & Keenan, J. Chemometrics 2004), taken when the restricted solve
    on it is strictly positive; otherwise the solver starts cold.  x is the
    restricted solve on the final passive set, so a start equal to the cold
    start's final set gives its x bit for bit.
    """
    gram = np.asarray(gram, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if gram.shape != (n, n):
        raise ValueError(f"gram must be ({n}, {n}), got {gram.shape}")

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool) if passive is None else np.array(passive, bool).reshape(n)
    dual = rhs.copy()
    scale = float(np.max(np.abs(rhs))) if n else 0.0

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

    if passive.any() and (s := restricted_solve()).min() > 0.0:
        x[passive] = s
        dual = rhs - gram @ x
    else:
        passive[:] = False

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
            if not shrink.any():
                return np.maximum(x, 0.0)
            alpha = float(np.min(x[shrink] / (x[shrink] - s[shrink])))
            x = x + alpha * (s - x)
            drop = passive & (x <= TOL * np.max(np.abs(x)))
            x[drop] = 0.0
            passive[drop] = False
            if not passive.any():
                break
        dual = rhs - gram @ x

    return np.maximum(x, 0.0)
