"""The four benchmark workloads.

Each workload has a fixed catalogue of unit inputs, numbered 0..size-1, whose
reference outputs were recorded at the seed commit (``reference.json``).  The
workload seed picks the order in which a run visits the catalogue, so the
same seed always gives the same inputs and every input has a reference.

A unit's outputs are a flat dict.  Keys in ``EXACT`` must match the
reference exactly; float values must match to ``RTOL``; the rest of the keys
are quality figures the run summarises.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import marginleak as ml
from marginleak import cli, experiment, reconstruct, training

RTOL = 1e-6
EXACT = (
    "diverged", "stop_reason", "steps", "retries", "support",
    "n_candidates", "n_matched", "members", "exit_codes",
)
CHECKED_FLOATS = (
    "margin", "kkt_residual", "final_loss", "frac_train_on_margin",
    "frac_test_on_or_above_margin", "auc", "accuracy", "matched_fraction",
)

OUT_DIR = Path(".perfbench_out")


def _entry_seeds(entry: int) -> tuple[int, int, int]:
    # Data, test and init seeds of catalogue entry ``entry``.
    return 3 * entry, 3 * entry + 1, 3 * entry + 2


class _LastResult:
    """Keeps the last value ``training.train_non_degenerate`` returned.

    Cells and reconstruction runs return records without the stop reason
    and step count the output check needs; this reads them off the call.
    """

    def __init__(self):
        self.value = None
        original = training.train_non_degenerate

        @functools.wraps(original)
        def capture(*args, **kwargs):
            self.value = original(*args, **kwargs)
            return self.value

        training.train_non_degenerate = capture


class Workload:
    name = ""
    catalogue_size = 0
    traced_units = 1
    # Units run and checked, but not timed, before an untraced run measures.
    warmup_units = 0

    def __init__(self, seed: int):
        order = list(range(self.catalogue_size))
        random.Random(seed).shuffle(order)
        self.order = order

    def entry(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def run_unit(self, entry: int) -> dict:
        raise NotImplementedError


class MarginD100(Workload):
    """Margin-sweep cells at d=100 with the margin_desk.toml settings."""

    name = "margin-d100"
    # A run has room for about three ~11 s cells.  With three cells in the
    # catalogue a run nearly always covers each once, so which cells a seed
    # drew does not add to the spread between seeds.
    catalogue_size = 3
    traced_units = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        train = training.TrainConfig(
            width=1000, loss_kind="exponential", init_scale=1e-2,
            learning_rate=1e-2, lr_growth=1.02, max_steps=2500,
            loss_target=1e-8, kkt_residual_target=5e-3, checkpoint_every=100,
        )
        self.cfg = experiment.ExperimentConfig(
            dims=(100,), seeds=(0,), train=train, n_train=20, n_test=1000,
            margin_slack=0.1, mixture_mean_coord=1.0,
        )
        self.last = _LastResult()

    def run_unit(self, entry: int) -> dict:
        self.last.value = None
        rec = experiment.run_margin_cell(self.cfg, 100, entry)
        out = {
            "diverged": rec.diverged,
            "frac_train_on_margin": rec.frac_train_on_margin,
            "frac_test_on_or_above_margin": rec.frac_test_on_or_above_margin,
            "final_loss": rec.final_loss,
            "margin": rec.margin,
            "kkt_residual": rec.kkt_residual,
        }
        if self.last.value is not None:
            _, trace, retries = self.last.value
            out.update(stop_reason=trace.stop_reason, steps=trace.final().step,
                       retries=retries)
        return out


class AttackD1000(Workload):
    """Train at n=20, k=256, d=1000, then the known-margin attack on 1000 fresh points."""

    name = "attack-d1000"
    catalogue_size = 8
    traced_units = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.train_cfg = training.TrainConfig(
            width=256, loss_kind="exponential", init_scale=1e-4,
            learning_rate=1e-2, lr_growth=1.02, max_steps=2500,
            loss_target=1e-8, kkt_residual_target=5e-3, checkpoint_every=100,
        )
        self.inputs = {}
        for entry in self.order:
            data_seed, test_seed, _ = _entry_seeds(entry)
            train = ml.sample(ml.two_gaussian_mixture(1000, 1.0, rng_seed=data_seed), 20)
            fresh = ml.sample(ml.two_gaussian_mixture(1000, 1.0, rng_seed=test_seed), 1000)
            data = ml.LabeledDataset(train.points, ml.label_by_component(train.components))
            self.inputs[entry] = (data, fresh.points)

    def run_unit(self, entry: int) -> dict:
        data, fresh = self.inputs[entry]
        cfg = replace(self.train_cfg, rng_seed=_entry_seeds(entry)[2])
        net, trace = ml.train(data, cfg)
        m, support = ml.margin(net, data)
        ev = ml.evaluate_attack(net, data.points, fresh, "known-margin", margin=m)
        return {
            "stop_reason": trace.stop_reason,
            "steps": trace.final().step,
            "support": list(support),
            "members": [i for i, row in enumerate(ev.rows) if row.verdict],
            "margin": m,
            "kkt_residual": trace.final().kkt_residual,
            "final_loss": trace.final().loss,
            "auc": ev.auc,
            "accuracy": ev.accuracy,
        }


def two_cluster_dataset(n: int, seed: int, gap: float = 1.5,
                        spread: float = 0.4) -> ml.LabeledDataset:
    """Two separated univariate clusters labeled by side."""
    rng = np.random.default_rng(seed)
    n_left = n // 2
    left = rng.uniform(-gap / 2 - spread, -gap / 2, size=n_left)
    right = rng.uniform(gap / 2, gap / 2 + spread, size=n - n_left)
    xs = np.concatenate([left, right]).reshape(-1, 1)
    ys = np.concatenate([-np.ones(n_left), np.ones(n - n_left)])
    return ml.LabeledDataset(xs, ys)


class Recon1D(Workload):
    """Reconstruction pipeline at n=6, k=64, d=1 on two-cluster data."""

    name = "recon-1d"
    # Seeds differ in cost up to 7x; a run covers about five whole cycles of
    # the catalogue, so the partial last cycle barely moves the unit count.
    catalogue_size = 16
    traced_units = 16
    warmup_units = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        train = training.TrainConfig(
            width=64, loss_kind="exponential", init_scale=1e-4,
            learning_rate=5e-2, lr_growth=1.02, max_steps=30_000,
            loss_target=1e-9, kkt_residual_target=1e-3, checkpoint_every=2000,
        )
        self.cfg = experiment.ExperimentConfig(
            dims=(1,), seeds=(0,), train=train, n_train=6, n_test=10,
            recon_data_scheme="two-clusters", recon_require_convergence=True,
        )
        self.inputs = {
            entry: two_cluster_dataset(6, _entry_seeds(entry)[0]) for entry in self.order
        }
        self.last = _LastResult()

    def run_unit(self, entry: int) -> dict:
        self.last.value = None
        rep = experiment.run_reconstruction_pipeline(
            self.cfg, seed=entry, data=self.inputs[entry]
        )
        _, trace, _ = self.last.value
        return {
            "stop_reason": trace.stop_reason,
            "steps": trace.final().step,
            "retries": rep.retries,
            "n_candidates": len(rep.candidates),
            "n_matched": rep.n_matched,
            "matched_fraction": rep.matched_fraction,
            "margin": rep.margin,
            "kkt_residual": rep.kkt_residual,
            "final_loss": rep.final_loss,
            "success": rep.matched_fraction >= reconstruct.GUARANTEED_FRACTION,
        }


class CliIO(Workload):
    """In-process CLI pipeline: sample-dataset, train, verify-kkt, attack membership."""

    name = "cli-io"
    catalogue_size = 8
    traced_units = 4
    warmup_units = 1
    # Small enough that a run holds about a dozen passes, so one slow stretch
    # of the host moves the run's median little; the files are still
    # megabytes and file I/O is still most of a pass.
    FRESH_POINTS = 250
    TRAIN_FLAGS = (
        "--width", "256", "--init-scale", "1e-4", "--learning-rate", "1e-2",
        "--max-steps", "100", "--loss-target", "1e-8", "--kkt-target", "5e-3",
        "--checkpoint-every", "100",
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.work = OUT_DIR / "cli-io-work"

    def _main(self, argv, log) -> int:
        with contextlib.redirect_stdout(log):
            return cli.main(argv)

    def run_unit(self, entry: int) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        w = str(self.work)
        data_seed, test_seed, init_seed = _entry_seeds(entry)
        log = io.StringIO()
        codes = [
            self._main(["sample-dataset", "--dim", "1000", "--n", "20",
                        "--seed", str(data_seed), "--out", f"{w}/train.csv"], log),
            self._main(["sample-dataset", "--dim", "1000", "--n", str(self.FRESH_POINTS),
                        "--seed", str(test_seed), "--out", f"{w}/fresh.csv"], log),
            self._main(["train", "--data", f"{w}/train.csv", *self.TRAIN_FLAGS,
                        "--seed", str(init_seed), "--out-model", f"{w}/model.json",
                        "--out-trace", f"{w}/trace.csv"], log),
            self._main(["verify-kkt", "--model", f"{w}/model.json",
                        "--data", f"{w}/train.csv", "--loss", "exponential",
                        "--out", f"{w}/kkt_report.json"], log),
        ]
        report = json.loads((self.work / "kkt_report.json").read_text())
        codes.append(
            self._main(["attack", "membership", "--rule", "known-margin",
                        "--model", f"{w}/model.json", "--points", f"{w}/fresh.csv",
                        "--margin", repr(report["margin"]),
                        "--out", f"{w}/verdicts.csv"], log)
        )
        trained = next(ln for ln in log.getvalue().splitlines() if ln.startswith("trained "))
        verdicts = (self.work / "verdicts.csv").read_text().splitlines()[1:]
        return {
            "exit_codes": codes,
            "stop_reason": trained.rsplit("stop=", 1)[1],
            "steps": int(trained.split(" for ", 1)[1].split(" steps", 1)[0]),
            "support": report["support_indices"],
            "members": [i for i, ln in enumerate(verdicts) if ln.split(",")[2] == "1"],
            "margin": report["margin"],
            "kkt_residual": report["stationarity_residual"],
        }


WORKLOADS = {w.name: w for w in (MarginD100, AttackD1000, Recon1D, CliIO)}


def check(out: dict, ref: dict) -> list[str]:
    """Mismatches between a unit's outputs and its reference (empty if none)."""
    out = json.loads(json.dumps(out))
    problems = []
    for key in EXACT + CHECKED_FLOATS:
        if key not in ref:
            continue
        got, want = out.get(key), ref[key]
        if key in CHECKED_FLOATS:
            same = (isinstance(got, float) and (
                math.isclose(got, want, rel_tol=RTOL)
                or (math.isnan(got) and math.isnan(want))))
        else:
            same = got == want
        if not same:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems
