"""Univariate training-data reconstruction from a margin-level piecewise form.

Given a univariate network near a max-margin stationary point and the margin
value m, every linear piece either crosses the levels +-m with nonzero slope
or sits flat at one of them.  Crossing points of windows with no flat piece,
and boundaries of flat pieces that alternate with a non-flat piece, form a
finite candidate set of which at least a quarter are training points (under
the stationarity and local-optimality premises).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNetworkError, DimensionMismatchError
from .model import NetworkParams, PiecewiseLinear, _write_csv

GUARANTEED_FRACTION = 0.25

# Relative tolerances for margin-level analysis of approximate networks: a
# segment is flat below FLATNESS_REL_TOL times the median absolute slope and
# at the margin within ON_MARGIN_REL_TOL times m; candidates closer than
# MERGE_REL_TOL times the breakpoint range are merged.
FLATNESS_REL_TOL = 1e-6
ON_MARGIN_REL_TOL = 1e-3
MERGE_REL_TOL = 1e-6


@dataclass(frozen=True)
class IntervalAnalysis:
    """One linear piece: bounds, slope, flat-at-margin flag, margin crossings."""

    left: float
    right: float
    slope: float
    is_on_margin: bool
    crossings: tuple[float, ...]


@dataclass(frozen=True)
class CandidateSet:
    """Finite candidate set with per-point provenance.

    ``degenerate`` marks inputs with fewer than three breakpoints, where the
    window iteration is empty.  ``window_crossing_counts`` records how many
    margin points each crossing-type window contributed (at most 4 each).
    ``ambiguous_windows`` lists windows where the flat-boundary rule fired
    although the middle interval was itself flat, i.e. the strictly
    alternating reading would not have fired.
    """

    points: tuple[float, ...]
    provenance: tuple[str, ...]
    guaranteed_fraction: float = GUARANTEED_FRACTION
    degenerate: bool = False
    window_crossing_counts: tuple[int, ...] = ()
    ambiguous_windows: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.points)


def recover_single(net: NetworkParams, m: float) -> float:
    """Recover the unique margin point of a single-neuron univariate network.

    With one neuron the function is zero on the inactive side and linear with
    nonzero slope on the active side, so |Phi(x)| = m has exactly one
    solution there.
    """
    if net.input_dim != 1 or net.width != 1:
        raise DimensionMismatchError("recover_single needs input_dim=1 and width=1")
    if not 0.0 < m < math.inf:
        raise ValueError("margin must be positive and finite")
    w = float(net.weights[0, 0])
    b = float(net.biases[0])
    v = float(net.out_weights[0])
    if w == 0.0 or v == 0.0:
        raise DegenerateNetworkError("single neuron has zero weight, no margin point")
    return (m / abs(v) - b) / w


def analyze_intervals(pl: PiecewiseLinear, m: float) -> list[IntervalAnalysis]:
    """Per-segment margin crossings and flat-at-margin flags."""
    if not 0.0 < m < math.inf:
        raise ValueError("margin must be positive and finite")
    flat_tol = FLATNESS_REL_TOL * float(np.median(np.abs(pl.slopes)))
    margin_tol = ON_MARGIN_REL_TOL * m

    out = []
    for i in range(pl.n_segments):
        left, right = pl.segment_bounds(i)
        slope = float(pl.slopes[i])
        intercept = float(pl.intercepts[i])

        crossings = []
        if slope != 0.0:
            for target in (m, -m):
                x = (target - intercept) / slope
                if left <= x <= right:
                    crossings.append(x)
        crossings.sort()

        if np.isfinite(left) and np.isfinite(right):
            probes = (left, right)
        elif np.isfinite(left):
            probes = (left + 1.0,)
        elif np.isfinite(right):
            probes = (right - 1.0,)
        else:
            probes = (0.0,)
        on_margin = abs(slope) <= flat_tol and all(
            abs(abs(slope * p + intercept) - m) <= margin_tol for p in probes
        )

        out.append(IntervalAnalysis(left, right, slope, on_margin, tuple(crossings)))
    return out


def _merge_candidates(
    items: list[tuple[float, str]], radius: float
) -> tuple[tuple[float, ...], tuple[str, ...]]:
    if not items:
        return (), ()
    # Prefer crossing provenance within a merge cluster: crossings carry the
    # |Phi| = m certificate.
    items.sort(key=lambda t: (t[0], t[1] != "crossing"))
    points, provenance = [items[0][0]], [items[0][1]]
    for x, prov in items[1:]:
        if x - points[-1] <= radius:
            if provenance[-1] != "crossing" and prov == "crossing":
                points[-1], provenance[-1] = x, prov
        else:
            points.append(x)
            provenance.append(prov)
    return tuple(points), tuple(provenance)


def build_candidate_set(pl: PiecewiseLinear, m: float) -> CandidateSet:
    """Candidate training points from consecutive-breakpoint windows.

    For each window (x, y, z) of consecutive breakpoints: if neither [x, y]
    nor [y, z] is flat at the margin, every margin point of both intervals is
    added; if [x, y] is flat at the margin and the look-ahead interval [z, t]
    is too, the boundaries y and z are added.  Networks with fewer than three
    breakpoints are degenerate for this construction.
    """
    bps = pl.breakpoints
    if bps.size < 3:
        return CandidateSet((), (), degenerate=True)

    analyses = analyze_intervals(pl, m)
    collected: list[tuple[float, str]] = []
    window_counts: list[int] = []
    ambiguous: list[int] = []

    # Segment i + 1 spans [bps[i], bps[i + 1]].
    for i in range(bps.size - 2):
        seg_xy = analyses[i + 1]
        seg_yz = analyses[i + 2]
        if not seg_xy.is_on_margin and not seg_yz.is_on_margin:
            pts = seg_xy.crossings + seg_yz.crossings
            collected.extend((p, "crossing") for p in pts)
            window_counts.append(len(pts))
        if seg_xy.is_on_margin and i < bps.size - 3:
            seg_zt = analyses[i + 3]
            if seg_zt.is_on_margin:
                collected.append((float(bps[i + 1]), "flat-boundary"))
                collected.append((float(bps[i + 2]), "flat-boundary"))
                if seg_yz.is_on_margin:
                    ambiguous.append(i)

    radius = MERGE_REL_TOL * float(bps[-1] - bps[0])
    points, provenance = _merge_candidates(collected, radius)
    return CandidateSet(
        points,
        provenance,
        degenerate=False,
        window_crossing_counts=tuple(window_counts),
        ambiguous_windows=tuple(ambiguous),
    )


def write_candidates_csv(candidates: CandidateSet, path) -> None:
    """Write the candidate set as CSV with columns x,provenance."""
    _write_csv(path, ["x", "provenance"], zip(candidates.points, candidates.provenance))
