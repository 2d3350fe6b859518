"""End-to-end experiment harness: margin-fraction sweeps and reconstruction runs.

The margin experiment trains one network per (dimension, seed) cell on data
from a balanced two-Gaussian mixture, then compares train and test outputs to
the margin: the fraction of training points within the slack band around m,
and the fraction of test points at or above (1 - slack) m.  Cells are fully
deterministic given their seed.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import kkt, membership, reconstruct, training
from .errors import DegenerateNetworkError, FileFormatError, TrainingDivergedError
from .model import LabeledDataset, _write_csv, to_piecewise_linear
from .distributions import label_by_component, sample, two_gaussian_mixture

RECONSTRUCTION_MATCH_TOL = 1e-3

MARGIN_CSV_COLUMNS = (
    "d",
    "seed",
    "frac_train_on_margin",
    "frac_test_on_or_above_margin",
    "final_loss",
    "margin",
    "kkt_residual",
    "diverged",
    "auc",
    "accuracy",
)

RECON_CSV_COLUMNS = (
    "seed",
    "n_candidates",
    "n_matched",
    "matched_fraction",
    "margin",
    "final_loss",
    "kkt_residual",
    "degenerate",
)


RECON_DATA_SCHEMES = ("uniform-random", "two-clusters")


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep settings; ``train.width`` is the hidden width for every cell.

    The margin experiment draws from the balanced mixture of two unit
    Gaussians at (+-mixture_mean_coord, 0, ..., 0), labeled by component.
    The reconstruction pipeline samples per ``recon_data_scheme``:
    uniform-random points on [-2, 2] with random labels, or two separated
    clusters labeled by side.
    """

    dims: tuple[int, ...]
    seeds: tuple[int, ...]
    train: training.TrainConfig
    n_train: int = 20
    n_test: int = 1000
    margin_slack: float = 0.1
    mixture_mean_coord: float = 1.0
    recon_data_scheme: str = "uniform-random"
    recon_require_convergence: bool = False

    def __post_init__(self):
        try:
            dims = tuple(map(operator.index, self.dims))
            seeds = tuple(map(operator.index, self.seeds))
        except TypeError:
            raise ValueError("dims and seeds must be sequences of integers") from None
        if not dims or not seeds:
            raise ValueError("dims and seeds must be nonempty")
        if min(dims) < 1 or self.n_train < 1 or self.n_test < 1:
            raise ValueError("dims, n_train and n_test must be positive")
        if min(seeds) < 0:
            raise ValueError("seeds must be nonnegative")
        if not 0 < self.margin_slack < 1:
            raise ValueError("margin_slack must be in (0, 1)")
        if not math.isfinite(self.mixture_mean_coord):
            raise ValueError("mixture_mean_coord must be finite")
        if self.recon_data_scheme not in RECON_DATA_SCHEMES:
            raise ValueError(f"recon_data_scheme must be one of {RECON_DATA_SCHEMES}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "seeds", seeds)

    @property
    def width(self) -> int:
        return self.train.width


@dataclass(frozen=True)
class ExperimentRecord:
    """One (dimension, seed) cell of the margin experiment.

    ``auc`` and ``accuracy`` are the known-margin membership attack's, with
    the cell's training points as members and its test points as fresh.
    """

    dim: int
    seed: int
    frac_train_on_margin: float
    frac_test_on_or_above_margin: float
    final_loss: float
    margin: float
    kkt_residual: float
    auc: float
    accuracy: float
    wall_time_s: float
    diverged: bool = False


@dataclass(frozen=True)
class AggregateRecord:
    """Per-dimension means and stds over non-diverged seeds."""

    dim: int
    n_cells: int
    frac_train_on_margin_mean: float
    frac_train_on_margin_std: float
    frac_test_on_or_above_margin_mean: float
    frac_test_on_or_above_margin_std: float
    final_loss_mean: float
    margin_mean: float
    kkt_residual_mean: float
    auc_mean: float
    accuracy_mean: float


@dataclass(frozen=True)
class MarginExperimentResult:
    records: tuple[ExperimentRecord, ...]
    aggregates: tuple[AggregateRecord, ...]


def _cell_seeds(seed: int) -> tuple[int, int, int]:
    base = 3 * int(seed)
    return base, base + 1, base + 2


def _sample_labeled(dim: int, n: int, mean_coord: float, seed: int) -> LabeledDataset:
    batch = sample(two_gaussian_mixture(dim, mean_coord, rng_seed=seed), n)
    return LabeledDataset(batch.points, label_by_component(batch.components))


def margin_fractions(
    train_scores: np.ndarray, test_scores: np.ndarray, slack: float
) -> tuple[float, float, float]:
    """(margin, frac train within the slack band, frac test at or above it),
    from the |Phi| scores of the training and the test points."""
    train_abs, m = kkt._abs_and_margin(train_scores)
    band = train_abs <= (1.0 + slack) * m  # m is the least |score|: no lower edge
    above = test_scores >= (1.0 - slack) * m
    return m, float(np.mean(band)), float(np.mean(above))


def run_margin_cell(cfg: ExperimentConfig, dim: int, seed: int) -> ExperimentRecord:
    """Train and score one cell, then run the known-margin attack on it.

    A cell whose training diverges or never fits the data (see
    :func:`training.train_non_degenerate`) is recorded with the ``diverged``
    flag and excluded from aggregation.
    """
    train_seed, test_seed, init_seed = _cell_seeds(seed)
    data = _sample_labeled(dim, cfg.n_train, cfg.mixture_mean_coord, train_seed)
    test = sample(
        two_gaussian_mixture(dim, cfg.mixture_mean_coord, rng_seed=test_seed), cfg.n_test
    ).points

    t0 = time.perf_counter()
    try:
        net, trace, _ = training.train_non_degenerate(
            data, replace(cfg.train, rng_seed=init_seed)
        )
    except (TrainingDivergedError, DegenerateNetworkError):
        return ExperimentRecord(
            dim, seed, *[math.nan] * 7, time.perf_counter() - t0, diverged=True,
        )
    train_scores = membership.membership_scores(net, data.points)
    test_scores = membership.membership_scores(net, test)
    m, frac_train, frac_test = margin_fractions(train_scores, test_scores, cfg.margin_slack)
    _, verdicts = membership.membership_verdicts(
        "known-margin", np.concatenate([train_scores, test_scores]), margin=m
    )
    accuracy = float(np.mean(verdicts == (np.arange(verdicts.size) < cfg.n_train)))
    final = trace.final()
    return ExperimentRecord(
        dim, seed, frac_train, frac_test, final.loss, m, final.kkt_residual,
        membership.score_auc(train_scores, test_scores), accuracy,
        time.perf_counter() - t0,
    )


def run_margin_experiment(cfg: ExperimentConfig, log=None) -> MarginExperimentResult:
    """All (dim, seed) cells, sorted by dimension then seed, plus aggregates."""
    records = []
    for dim in sorted(cfg.dims):
        for seed in sorted(cfg.seeds):
            rec = run_margin_cell(cfg, dim, seed)
            records.append(rec)
            if log is not None:
                log(
                    f"d={rec.dim} seed={rec.seed} "
                    f"frac_train={rec.frac_train_on_margin:.3f} "
                    f"frac_test={rec.frac_test_on_or_above_margin:.3f} "
                    f"loss={rec.final_loss:.3e} residual={rec.kkt_residual:.3e} "
                    f"({rec.wall_time_s:.1f}s)"
                    if not rec.diverged
                    else f"d={rec.dim} seed={rec.seed} DIVERGED"
                )

    aggregates = []
    for dim in sorted(cfg.dims):
        cells = [r for r in records if r.dim == dim and not r.diverged]
        if not cells:
            continue
        ft = np.array([r.frac_train_on_margin for r in cells])
        fx = np.array([r.frac_test_on_or_above_margin for r in cells])
        aggregates.append(
            AggregateRecord(
                dim=dim,
                n_cells=len(cells),
                frac_train_on_margin_mean=float(np.mean(ft)),
                frac_train_on_margin_std=float(np.std(ft)),
                frac_test_on_or_above_margin_mean=float(np.mean(fx)),
                frac_test_on_or_above_margin_std=float(np.std(fx)),
                final_loss_mean=float(np.mean([r.final_loss for r in cells])),
                margin_mean=float(np.mean([r.margin for r in cells])),
                kkt_residual_mean=float(np.mean([r.kkt_residual for r in cells])),
                auc_mean=float(np.mean([r.auc for r in cells])),
                accuracy_mean=float(np.mean([r.accuracy for r in cells])),
            )
        )
    return MarginExperimentResult(tuple(records), tuple(aggregates))


@dataclass(frozen=True)
class ReconstructionReport:
    """Candidate set and its match against the true training points."""

    seed: int
    candidates: reconstruct.CandidateSet
    true_points: tuple[float, ...]
    n_matched: int
    matched_fraction: float
    margin: float
    final_loss: float
    kkt_residual: float
    used_single_recovery: bool
    retries: int
    degenerate: bool


def _uniform_1d_dataset(n: int, seed: int) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2.0, 2.0, size=(n, 1))
    ys = rng.choice([-1.0, 1.0], size=n)
    return LabeledDataset(xs, ys)


# The two-clusters scheme: each cluster spans CLUSTER_SPREAD, and the
# clusters sit CLUSTER_GAP apart, symmetric about 0.
CLUSTER_GAP = 1.5
CLUSTER_SPREAD = 0.4


def _two_cluster_1d_dataset(n: int, seed: int) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    n_left = n // 2
    left = rng.uniform(-CLUSTER_GAP / 2 - CLUSTER_SPREAD, -CLUSTER_GAP / 2, size=n_left)
    right = rng.uniform(CLUSTER_GAP / 2, CLUSTER_GAP / 2 + CLUSTER_SPREAD, size=n - n_left)
    xs = np.concatenate([left, right]).reshape(-1, 1)
    ys = np.concatenate([-np.ones(n_left), np.ones(n - n_left)])
    return LabeledDataset(xs, ys)


def _recon_dataset(cfg: ExperimentConfig, seed: int) -> LabeledDataset:
    if cfg.recon_data_scheme == "two-clusters":
        return _two_cluster_1d_dataset(cfg.n_train, seed)
    return _uniform_1d_dataset(cfg.n_train, seed)


def match_candidates(points, true_points) -> int:
    """How many candidates sit within RECONSTRUCTION_MATCH_TOL of some true point."""
    points, true_arr = np.asarray(points, dtype=float), np.asarray(true_points, dtype=float)
    if points.size == 0 or true_arr.size == 0:
        return 0
    gaps = np.abs(points[:, None] - true_arr[None, :]).min(axis=1)
    return int(np.count_nonzero(gaps <= RECONSTRUCTION_MATCH_TOL))


def run_reconstruction_pipeline(
    cfg: ExperimentConfig, seed: int | None = None, data: LabeledDataset | None = None
) -> ReconstructionReport:
    """Train on univariate data, self-derive the margin, run the attack.

    Default data is uniform on [-2, 2] with random labels.  For a one-point
    dataset and width 1 the closed-form single-neuron recovery is used.
    Dead random inits (possible at tiny widths) are retried with a shifted
    seed, deterministically.  With ``recon_require_convergence`` a run that
    did not stop at ``targets-met`` raises :class:`DegenerateNetworkError`.
    """
    if cfg.dims != (1,):
        raise ValueError("reconstruction pipeline needs dims == (1,)")
    if seed is None:
        seed = cfg.seeds[0]
    data_seed, _, init_seed = _cell_seeds(seed)
    if data is None:
        data = _recon_dataset(cfg, data_seed)
    if data.dim != 1:
        raise ValueError("reconstruction pipeline needs univariate data")

    net, trace, retries = training.train_non_degenerate(
        data, replace(cfg.train, rng_seed=init_seed)
    )
    if cfg.recon_require_convergence and trace.stop_reason != "targets-met":
        raise DegenerateNetworkError(f"training stopped at {trace.stop_reason}, not targets-met")
    m, _ = kkt.margin(net, data)
    true_points = tuple(float(x) for x in data.points[:, 0])
    final = trace.final()

    single = data.size == 1 and cfg.train.width == 1
    if single:
        candidates = reconstruct.CandidateSet(
            (reconstruct.recover_single(net, m),), ("crossing",)
        )
    else:
        candidates = reconstruct.build_candidate_set(to_piecewise_linear(net), m)
    n_matched = match_candidates(candidates.points, true_points)
    return ReconstructionReport(
        seed=seed,
        candidates=candidates,
        true_points=true_points,
        n_matched=n_matched,
        matched_fraction=n_matched / len(candidates) if len(candidates) else 0.0,
        margin=m,
        final_loss=final.loss,
        kkt_residual=final.kkt_residual,
        used_single_recovery=single,
        retries=retries,
        degenerate=candidates.degenerate,
    )


def run_reconstruction_sweep(cfg: ExperimentConfig, log=None) -> list[ReconstructionReport]:
    reports = []
    for seed in sorted(cfg.seeds):
        rep = run_reconstruction_pipeline(cfg, seed)
        reports.append(rep)
        if log is not None:
            log(
                f"seed={rep.seed} candidates={len(rep.candidates)} "
                f"matched={rep.n_matched} fraction={rep.matched_fraction:.2f} "
                f"margin={rep.margin:.3e}"
            )
    return reports


def write_margin_results_csv(
    result: MarginExperimentResult, path, metadata: str = ""
) -> None:
    """Cells sorted by (d, seed), then per-d aggregate rows with seed='mean'.

    Timestamps and timings appear only on the leading metadata comment line,
    so reruns with identical inputs produce byte-identical bodies.
    """
    rows = [
        [r.dim, r.seed, r.frac_train_on_margin, r.frac_test_on_or_above_margin,
         r.final_loss, r.margin, r.kkt_residual, int(r.diverged), r.auc, r.accuracy]
        for r in result.records
    ] + [
        [a.dim, "mean", a.frac_train_on_margin_mean, a.frac_test_on_or_above_margin_mean,
         a.final_loss_mean, a.margin_mean, a.kkt_residual_mean, 0, a.auc_mean,
         a.accuracy_mean]
        for a in result.aggregates
    ]
    _write_csv(path, MARGIN_CSV_COLUMNS, rows, f"margin-experiment {metadata}")


def write_margin_plot_csv(result: MarginExperimentResult, path, metadata: str = "") -> None:
    """Plot-ready CSV: x = d, mean fractions, std over seeds as y_err."""
    _write_csv(
        path,
        ["d", "frac_train_on_margin_mean", "frac_train_on_margin_std",
         "frac_test_on_or_above_margin_mean", "frac_test_on_or_above_margin_std"],
        ([a.dim, a.frac_train_on_margin_mean, a.frac_train_on_margin_std,
          a.frac_test_on_or_above_margin_mean, a.frac_test_on_or_above_margin_std]
         for a in result.aggregates),
        f"margin-experiment-plot {metadata}",
    )


def write_reconstruction_csv(
    reports: list[ReconstructionReport], path, metadata: str = ""
) -> None:
    """Per-seed reconstruction outcomes plus a success-rate summary row."""
    ok = [r for r in reports if r.matched_fraction >= reconstruct.GUARANTEED_FRACTION]
    rows = [
        [r.seed, len(r.candidates), r.n_matched, r.matched_fraction, r.margin,
         r.final_loss, r.kkt_residual, int(r.degenerate)]
        for r in reports
    ] + [["success-rate", len(reports), len(ok), len(ok) / len(reports), "", "", "", ""]]
    _write_csv(path, RECON_CSV_COLUMNS, rows, f"reconstruction-experiment {metadata}")


# --- TOML config files -------------------------------------------------------

# Per field annotation of the two config dataclasses: the TOML value types it
# accepts (exact types, so a bool is not an int), what they are called, and the
# conversion to the field's type.
_TOML_FIELD_TYPES = {
    "int": ((int,), "an integer", int),
    "float": ((int, float), "a number", float),
    "str": ((str,), "a string", str),
    "bool": ((bool,), "a boolean", bool),
    "tuple[int, ...]": ((list,), "an array of integers", tuple),
}


def config_from_file(path, overrides: dict | None = None) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a TOML file.

    The keys are the fields of :class:`training.TrainConfig` except
    ``rng_seed``, which each cell derives, and the fields of
    :class:`ExperimentConfig` except ``train``; a field without a default
    (``dims``, ``seeds``, ``width``) is required and the others keep their
    defaults.  ``overrides`` hold typed field values and replace the file's
    after its types are checked.  Malformed TOML, an unknown key, a value of
    the wrong type and a value the dataclasses reject all raise
    :class:`FileFormatError`.
    """
    import tomllib  # only here, so that importing marginleak does not load it

    try:
        values = tomllib.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a TOMLDecodeError, or bytes that are not UTF-8
        raise FileFormatError(f"{path}: {exc}") from exc
    train_fields = {f.name: f for f in fields(training.TrainConfig) if f.name != "rng_seed"}
    accepted = train_fields | {f.name: f for f in fields(ExperimentConfig) if f.name != "train"}
    for key, value in values.items():
        if key not in accepted:
            raise FileFormatError(f"unknown config key {key!r}")
        types, kind, convert = _TOML_FIELD_TYPES[accepted[key].type]
        if type(value) not in types or (
            type(value) is list and any(type(x) is not int for x in value)
        ):
            raise FileFormatError(f"config key {key!r} must be {kind}, got {value!r}")
        values[key] = convert(value)
    values.update(overrides or {})
    missing = [k for k, f in accepted.items() if f.default is MISSING and k not in values]
    if missing:
        raise FileFormatError(f"config must set {', '.join(missing)}")

    train_kwargs = {k: values.pop(k) for k in list(values) if k in train_fields}
    try:
        return ExperimentConfig(train=training.TrainConfig(**train_kwargs), **values)
    except ValueError as exc:
        raise FileFormatError(f"invalid config: {exc}") from exc
