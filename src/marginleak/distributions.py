"""Samplers for the attack-relevant data distributions and their audits.

The high-dimensional attacks rest on near-orthogonality: pairwise inner
products stay o(d) while squared norms stay Omega(d).  This module samples
the uniform sphere of radius sqrt(d), Gaussians, and Gaussian mixtures, and
measures how close a concrete sample comes to that regime.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError
from .model import LabeledDataset, _block_rows, _read_csv, _write_number_csv

KINDS = ("uniform-sphere", "gaussian", "gaussian-mixture")

WEIGHT_SUM_TOL = 1e-12

# Desk-scale stand-ins for the asymptotic thresholds: pairwise inner products
# are flagged above d^0.75, squared norms below d / 2.
PAIRWISE_THRESHOLD_EXPONENT = 0.75
NORM_THRESHOLD_FACTOR = 0.5


@dataclass(frozen=True)
class DistributionSpec:
    """Which distribution to draw from, in which dimension, with which seed."""

    kind: str
    dim: int
    means: tuple[tuple[float, ...], ...] = ()
    mixture_weights: tuple[float, ...] = ()
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        means = tuple(tuple(float(c) for c in mu) for mu in self.means)
        object.__setattr__(self, "means", means)
        for mu in means:
            if len(mu) != self.dim:
                raise ValueError("every mean must have length dim")
        if self.kind == "uniform-sphere" and means:
            raise ValueError("uniform-sphere takes no means")
        if self.kind == "gaussian" and len(means) > 1:
            raise ValueError("gaussian takes at most one mean (default zero)")
        if self.kind == "gaussian-mixture":
            if not means:
                raise ValueError("gaussian-mixture needs at least one mean")
            weights = tuple(float(w) for w in self.mixture_weights)
            if not weights:
                weights = tuple(1.0 / len(means) for _ in means)
            if len(weights) != len(means):
                raise ValueError("mixture_weights must match means")
            if any(w < 0 for w in weights):
                raise ValueError("mixture_weights must be nonnegative")
            if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
                raise ValueError("mixture_weights must sum to 1")
            object.__setattr__(self, "mixture_weights", weights)


def two_gaussian_mixture(dim: int, mean_coord: float = 1.0, rng_seed: int = 0) -> DistributionSpec:
    """Balanced mixture of two unit Gaussians at (+-mean_coord, 0, ..., 0)."""
    rest = (0.0,) * (dim - 1)
    means = ((mean_coord, *rest), (-mean_coord, *rest))
    return DistributionSpec("gaussian-mixture", dim, means, (0.5, 0.5), rng_seed)


@dataclass(frozen=True)
class SampleBatch:
    """Drawn points plus, for mixtures, the component of each draw."""

    points: np.ndarray
    components: np.ndarray | None = None


def sample(spec: DistributionSpec, n: int) -> SampleBatch:
    """Draw n i.i.d. points; deterministic given spec.rng_seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(spec.rng_seed)
    d = spec.dim

    # The sphere's scaling and the mixture's means go in row blocks, in
    # place: no second (n, d) array is formed, and each element still takes
    # the same operations on the same numbers as the whole-array expression.
    rows = _block_rows(d)
    if spec.kind == "uniform-sphere":
        points = rng.standard_normal((n, d))
        for i in range(0, n, rows):
            block = points[i:i + rows]
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            block *= np.sqrt(d)
            block /= norms
        return SampleBatch(points)

    if spec.kind == "gaussian":
        mu = np.array(spec.means[0]) if spec.means else np.zeros(d)
        return SampleBatch(mu + rng.standard_normal((n, d)))

    means = np.array(spec.means)
    comp = rng.choice(len(spec.means), size=n, p=np.array(spec.mixture_weights))
    points = rng.standard_normal((n, d))
    for i in range(0, n, rows):
        points[i:i + rows] += means[comp[i:i + rows]]
    return SampleBatch(points, comp)


def label_by_component(assignments) -> np.ndarray:
    """Labels for a 2-component mixture: component 0 -> +1, component 1 -> -1."""
    comp = np.asarray(assignments)
    if comp.size and int(comp.max()) > 1:
        raise ValueError(
            "labeling by component is only defined for 2-component mixtures"
        )
    return np.where(comp == 0, 1.0, -1.0)


@dataclass(frozen=True)
class AssumptionReport:
    """Near-orthogonality summary of a point set.

    ``ratio`` = n_effective * delta / Delta, where delta is the largest
    absolute pairwise inner product and Delta the smallest squared norm; the
    attacks need it well below 1.  A point at the origin (Delta = 0) breaks
    the norm condition whatever delta is, and gives ``ratio`` = inf.  The two
    fractions count threshold violations against the desk-scale stand-ins
    for o(d) and Omega(d).
    """

    n: int
    n_effective: int
    max_abs_inner: float
    min_sq_norm: float
    ratio: float
    pairwise_threshold: float
    norm_threshold: float
    frac_pairs_above_threshold: float
    frac_norms_below_threshold: float


def check_assumption(points: np.ndarray, n_effective: int | None = None) -> AssumptionReport:
    """Measure near-orthogonality of a sample (needs at least 2 points)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need at least two points of shape (n, d)")
    n, d = points.shape
    if n_effective is None:
        n_effective = n

    inner = points @ points.T
    norms = np.diag(inner).copy()
    off = ~np.eye(n, dtype=bool)
    delta = float(np.max(np.abs(inner[off])))
    dmin = float(np.min(norms))

    pairwise_threshold = d**PAIRWISE_THRESHOLD_EXPONENT
    norm_threshold = NORM_THRESHOLD_FACTOR * d
    return AssumptionReport(
        n=n,
        n_effective=n_effective,
        max_abs_inner=delta,
        min_sq_norm=dmin,
        ratio=n_effective * delta / dmin if dmin != 0.0 else math.inf,
        pairwise_threshold=pairwise_threshold,
        norm_threshold=norm_threshold,
        frac_pairs_above_threshold=float(
            np.mean(np.abs(inner[off]) > pairwise_threshold)
        ),
        frac_norms_below_threshold=float(np.mean(norms < norm_threshold)),
    )


def write_dataset_csv(data: LabeledDataset, path) -> None:
    """Write one point per row, label in the final column.

    The first line is a metadata comment carrying d and n; the second is the
    column header.
    """
    _write_number_csv(
        path,
        [f"x{i}" for i in range(data.dim)] + ["label"],
        (row.tolist() + [int(label)] for row, label in zip(data.points, data.labels)),
        f"labeled-dataset d={data.dim} n={data.size}",
    )


def read_dataset_csv(path) -> LabeledDataset:
    """Read a dataset written by :func:`write_dataset_csv`."""
    try:
        header, lines = _read_csv(path)
        if header is None:
            raise FileFormatError("dataset file has no rows")
        if not header or header[-1] != "label" or any(
            col != f"x{i}" for i, col in enumerate(header[:-1])
        ):
            raise FileFormatError(f"unexpected dataset header: {header}")
        first = next(lines, None)
        if first is None:  # checked here: loadtxt warns on an empty body
            raise FileFormatError("dataset file has no data rows")
        # numpy's C parser rejects every cell float() rejects, a "#" inside a
        # row and a row with another field count; quoted cells parse as the
        # csv module reads them.
        body = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None,
                          quotechar='"', ndmin=2)
    except ValueError as exc:  # a malformed row, or text that is not UTF-8
        raise FileFormatError(f"malformed dataset file: {exc}") from exc
    if body.shape[1] != len(header):
        raise FileFormatError(f"rows have {body.shape[1]} fields, expected {len(header)}")
    try:
        return LabeledDataset(body[:, :-1], body[:, -1])
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
