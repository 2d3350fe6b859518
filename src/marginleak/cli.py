"""Command-line interface.

Subcommands: train, verify-kkt, attack reconstruct, attack membership,
check-dist, sample-dataset, experiment margin, experiment reconstruct.  Exit
codes: 0 on success, 2 for usage errors and malformed files, 1 for runtime
failures.  A command that writes one file names it with --out, by default its
usual file name in the working directory (check-dist writes one only when
given --out).  The commands that write several files, train and the
experiments, take --out-dir, by default the working directory.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import experiment, kkt, membership, reconstruct, training
from .distributions import (
    DistributionSpec,
    check_assumption,
    read_dataset_csv,
    sample,
    write_dataset_csv,
)
from .errors import DegenerateNetworkError, FileFormatError, MarginLeakError
from .model import (
    _read_csv, _write_csv, _write_json, load_network, save_network, to_piecewise_linear,
)

def _out_dir(given) -> Path:
    """``given``, else ".", created if missing."""
    path = Path(given or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise FileFormatError(f"output directory {path} is not a directory") from exc
    return path


def _positive_finite(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _nonnegative_finite(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be nonnegative and finite, got {text!r}")
    return value


# CLI flags whose names differ from the TrainConfig field they set.
_TRAIN_FLAG_NAMES = {"loss_kind": "--loss", "kkt_residual_target": "--kkt-target",
                     "rng_seed": "--seed"}


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    # One flag per TrainConfig field, defaulting to the field's default.
    for f in dataclasses.fields(training.TrainConfig):
        flag = _TRAIN_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        if f.name == "width":
            p.add_argument(flag, type=int, default=64)
        elif f.name == "loss_kind":
            p.add_argument(flag, dest=f.name, choices=training.LOSS_KINDS, default=f.default)
        else:
            p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default)


def _train_config(args) -> training.TrainConfig:
    fields = dataclasses.fields(training.TrainConfig)
    try:
        return training.TrainConfig(**{f.name: getattr(args, f.name) for f in fields})
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def _cmd_train(args) -> int:
    data = read_dataset_csv(args.data)
    net, trace = training.train(data, _train_config(args))
    model_path = Path(args.out_model or _out_dir(args.out_dir) / "model.json")
    trace_path = Path(args.out_trace or _out_dir(args.out_dir) / "trace.csv")
    save_network(net, model_path)
    training.write_trace_csv(trace, trace_path)
    final = trace.final()
    print(
        f"trained {net.width} neurons for {final.step} steps: "
        f"loss={final.loss:.3e} min_margin={final.min_margin:.4g} "
        f"kkt_residual={final.kkt_residual:.3e} stop={trace.stop_reason}"
    )
    print(f"wrote {model_path} and {trace_path}")
    return 0


def _cmd_verify_kkt(args) -> int:
    net = load_network(args.model)
    data = read_dataset_csv(args.data)
    report = kkt.analyze(net, data, support_slack=args.slack, loss_kind=args.loss)
    kkt.write_report(report, args.out)
    print(
        f"margin={report.margin:.6g} support={len(report.support_indices)}/{data.size} "
        f"stationarity_residual={report.stationarity_residual:.3e}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_attack_reconstruct(args) -> int:
    net = load_network(args.model)
    if args.margin is not None:
        m = args.margin
    elif args.data is not None:
        m, _ = kkt.margin(net, read_dataset_csv(args.data))
        if m == 0.0:
            raise DegenerateNetworkError(
                "margin derived from --data is 0: a data point sits at output 0"
            )
    else:
        raise FileFormatError("attack reconstruct needs --margin or --data")
    pl = to_piecewise_linear(net)
    candidates = reconstruct.build_candidate_set(pl, m)
    reconstruct.write_candidates_csv(candidates, args.out)
    note = " (degenerate: fewer than 3 breakpoints)" if candidates.degenerate else ""
    print(f"margin={m:.6g} candidates={len(candidates)}{note}")
    print(f"wrote {args.out}")
    return 0


def _read_scores_csv(path) -> tuple[list[str], np.ndarray]:
    """(point ids, scores) of a scores file; scores are |Phi(x)|: finite, nonnegative."""
    try:
        header, lines = _read_csv(path)
        rows = list(csv.reader(lines))
    except ValueError as exc:  # text that is not UTF-8
        raise FileFormatError(f"unreadable scores file: {exc}") from exc
    if header is None or header[:2] != ["point_id", "score"]:
        raise FileFormatError("scores file must have header point_id,score")
    if not rows:
        raise FileFormatError("scores file has no rows")
    try:
        scores = np.array([row[1] for row in rows], dtype=float)
    except (IndexError, ValueError) as exc:
        raise FileFormatError(f"bad scores row: {exc}") from exc
    ok = (scores >= 0.0) & (scores < math.inf)
    if not ok.all():
        raise FileFormatError(f"score must be finite and nonnegative in row {rows[ok.argmin()]!r}")
    return [row[0] for row in rows], scores


def _cmd_attack_membership(args) -> int:
    if args.scores is not None:
        point_ids, scores = _read_scores_csv(args.scores)
    elif args.model is not None and args.points is not None:
        net = load_network(args.model)
        scores = membership.membership_scores(net, read_dataset_csv(args.points).points)
        point_ids = [f"point-{i}" for i in range(len(scores))]
    else:
        raise FileFormatError(
            "attack membership needs --scores, or --model with --points"
        )

    try:
        threshold, verdicts = membership.membership_verdicts(
            args.rule, scores, margin=args.margin, threshold=args.threshold
        )
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc

    _write_csv(
        args.out,
        ["point_id", "score", "verdict", "rule", "threshold"],
        ([pid, score, verdict, args.rule, threshold] for pid, score, verdict
         in zip(point_ids, scores.tolist(), verdicts.astype(int).tolist())),
    )
    print(
        f"rule={args.rule} threshold={threshold:.6g} "
        f"members={int(verdicts.sum())}/{len(point_ids)}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_check_dist(args) -> int:
    try:
        means = tuple(
            tuple(float(tok) for tok in chunk.split(",")) for chunk in (args.mean or [])
        )
        weights = (
            tuple(float(tok) for tok in args.weights.split(",")) if args.weights else ()
        )
        spec = DistributionSpec(args.kind, args.dim, means, weights, args.seed)
        report = check_assumption(sample(spec, args.n).points)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    doc = dataclasses.asdict(report)
    print(json.dumps(doc, indent=1))
    if args.out:
        _write_json(args.out, doc)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_experiment_margin(args) -> int:
    cfg = experiment.config_from_file(args.config)
    out = _out_dir(args.out_dir)
    t0 = time.perf_counter()
    result = experiment.run_margin_experiment(cfg, log=print)
    meta = (
        f"generated={time.strftime('%Y-%m-%dT%H:%M:%S')} "
        f"wall_time_s={time.perf_counter() - t0:.1f} "
        f"dims={list(cfg.dims)} seeds={list(cfg.seeds)} width={cfg.width} "
        f"n_train={cfg.n_train} n_test={cfg.n_test} slack={cfg.margin_slack} "
        f"train={cfg.train}"
    )
    experiment.write_margin_results_csv(result, out / "results.csv", meta)
    experiment.write_margin_plot_csv(result, out / "plot_margin.csv", meta)
    print(f"wrote {out / 'results.csv'} and {out / 'plot_margin.csv'}")
    return 0


def _cmd_experiment_reconstruct(args) -> int:
    cfg = experiment.config_from_file(args.config, overrides={"dims": (1,)})
    out = _out_dir(args.out_dir)
    t0 = time.perf_counter()
    reports = experiment.run_reconstruction_sweep(cfg, log=print)
    meta = (
        f"generated={time.strftime('%Y-%m-%dT%H:%M:%S')} "
        f"wall_time_s={time.perf_counter() - t0:.1f} "
        f"seeds={list(cfg.seeds)} n_train={cfg.n_train} train={cfg.train}"
    )
    experiment.write_reconstruction_csv(reports, out / "recon_results.csv", meta)
    for rep in reports:
        reconstruct.write_candidates_csv(
            rep.candidates, out / f"candidates_seed{rep.seed}.csv"
        )
    print(f"wrote {out / 'recon_results.csv'}")
    return 0


def _cmd_sample_dataset(args) -> int:
    # Convenience for producing CLI inputs: sample a labeled mixture dataset.
    try:
        data = experiment._sample_labeled(args.dim, args.n, args.mean_coord, args.seed)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    write_dataset_csv(data, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginleak",
        description="Margin-level privacy attacks on two-layer ReLU networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network on a dataset CSV")
    p.add_argument("--data", required=True)
    _add_train_flags(p)
    p.add_argument("--out-model")
    p.add_argument("--out-trace")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("verify-kkt", help="estimate duals and stationarity residual")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--slack", type=_nonnegative_finite, default=kkt.DEFAULT_SUPPORT_SLACK)
    p.add_argument("--loss", choices=training.LOSS_KINDS, default="exponential")
    p.add_argument("--out", default="kkt_report.json")
    p.set_defaults(func=_cmd_verify_kkt)

    attack = sub.add_parser("attack", help="run a privacy attack")
    attack_sub = attack.add_subparsers(dest="attack_kind", required=True)

    p = attack_sub.add_parser("reconstruct", help="univariate candidate-set attack")
    p.add_argument("--model", required=True)
    p.add_argument("--margin", type=_positive_finite)
    p.add_argument("--data", help="derive the margin from this dataset instead")
    p.add_argument("--out", default="candidates.csv")
    p.set_defaults(func=_cmd_attack_reconstruct)

    p = attack_sub.add_parser("membership", help="threshold |Phi(x)| verdicts")
    p.add_argument("--rule", choices=membership.RULES, required=True)
    p.add_argument("--model")
    p.add_argument("--points", help="dataset CSV of query points")
    p.add_argument("--scores", help="CSV point_id,score of precomputed scores")
    p.add_argument("--margin", type=_positive_finite)
    p.add_argument("--threshold", type=_positive_finite)
    p.add_argument("--out", default="verdicts.csv")
    p.set_defaults(func=_cmd_attack_membership)

    p = sub.add_parser("check-dist", help="near-orthogonality report for a sampler")
    p.add_argument("--kind", choices=("uniform-sphere", "gaussian", "gaussian-mixture"),
                   required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mean", action="append",
                   help="comma-separated mean vector; repeat for mixtures")
    p.add_argument("--weights", help="comma-separated mixture weights")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_dist)

    p = sub.add_parser("sample-dataset", help="write a labeled two-Gaussian dataset")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mean-coord", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="dataset.csv")
    p.set_defaults(func=_cmd_sample_dataset)

    exp = sub.add_parser("experiment", help="run a configured sweep")
    exp_sub = exp.add_subparsers(dest="experiment_kind", required=True)

    p = exp_sub.add_parser("margin", help="margin-fraction sweep over dimensions")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_experiment_margin)

    p = exp_sub.add_parser("reconstruct", help="univariate reconstruction sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_experiment_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MarginLeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
