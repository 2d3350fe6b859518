"""One measuring process: set up a workload, run its units, print the result.

Started by ``run.py`` with the BLAS thread count pinned in the environment.
It prints ``READY`` once imports and input generation are done, then, unless
``--setup-only``, runs units closed-loop (each unit starts when the previous
one ends) and prints one ``RESULT <json>`` line.

Untraced (``--trace 0``): after the workload's untimed warm-up units, units
run until ``--seconds`` have passed.
Traced (``--trace 1``): the workload's first ``traced_units`` units run
twice each, untraced and then traced, so the tracing overhead is measured on
the same inputs and the per-layer counts repeat exactly for a given seed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import marginleak
from tracer import IO_FUNCTIONS, READS, Tracer
from workloads import OUT_DIR, WORKLOADS, check

HERE = Path(__file__).resolve().parent

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "marginleak": marginleak.__version__,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no such percentile exists; the maximum is
    returned as percentile 100.
    """
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return 100.0, max(samples)


class Run:
    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.outputs: list[dict] = []

    def unit(self, i: int) -> float:
        """Run and check unit i; returns its wall seconds."""
        entry = self.workload.entry(i)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.workload.run_unit(entry)
        except Exception:  # a failed unit is counted, the run goes on
            traceback.print_exc()
            out = None
        wall = time.perf_counter() - t0
        problems = ["raised"] if out is None else check(out, self.reference[str(entry)])
        if out is not None and out.get("diverged"):
            problems.append("diverged")
        if problems:
            self.failed += 1
            print(f"unit {i} (entry {entry}) failed: {'; '.join(problems)}",
                  file=sys.stderr)
        else:
            self.outputs.append(out)
        return wall

    def quality(self) -> dict:
        outs = self.outputs
        q = {"error_rate": (self.failed / self.attempted, "ratio")}
        if outs:
            q["kkt_residual.median"] = (
                statistics.median(o["kkt_residual"] for o in outs), "1")
        if outs and "frac_train_on_margin" in outs[0]:
            q["frac_train_on_margin.mean"] = (
                statistics.fmean(o["frac_train_on_margin"] for o in outs), "ratio")
        if outs and "auc" in outs[0]:
            q["attack_auc.mean"] = (statistics.fmean(o["auc"] for o in outs), "1")
        if outs and "success" in outs[0]:
            q["recon_success_rate"] = (
                statistics.fmean(o["success"] for o in outs), "ratio")
        return q


def measure(run: Run, seconds: float) -> dict:
    for i in range(run.workload.warmup_units):
        run.unit(i)
    failed_before = run.failed
    walls = []
    start = time.perf_counter()
    i = run.workload.warmup_units
    while True:
        walls.append(run.unit(i))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    p, tail_value = tail(walls)
    metrics = {
        "units_per_s": ((len(walls) - (run.failed - failed_before)) / elapsed, "1/s"),
        "unit_s.p50": (statistics.median(walls), "s"),
        "unit_s.tail": (tail_value, "s"),
        "unit_s.tail_percentile": (p, "%"),
        "unit_s.samples": (len(walls), "count"),
    }
    metrics.update(run.quality())
    return metrics


def measure_traced(run: Run, tracer: Tracer, spans_path: Path) -> tuple[dict, dict]:
    n = run.workload.traced_units
    plain, traced = [], []
    for i in range(n):
        plain.append(run.unit(i))
        tracer.unit_id = i
        tracer.enable()
        try:
            traced.append(run.unit(i))
        finally:
            tracer.disable()
    tracer.write(spans_path)

    st = tracer.self_times()
    c = tracer.counts
    per_name = defaultdict(float)
    for (_, name), v in st.items():
        per_name[name] += v
    calls = defaultdict(int)
    for span in tracer.spans:
        calls[span[1]] += 1
    breakdown = {name: (per_name[name] / n, "s/unit") for name in sorted(per_name)}

    def self_s(name):
        return (per_name[name] / n, "s/unit")

    io_self = sum(per_name[name] for name in IO_FUNCTIONS)
    bytes_read = sum(c[f"{name}.bytes"] for name in IO_FUNCTIONS if name in READS)
    bytes_written = sum(c[f"{name}.bytes"] for name in IO_FUNCTIONS if name not in READS)
    train_self = per_name["training.train"]
    wall = sum(traced)
    kkt_nnls = sum(v for name, v in per_name.items() if name.startswith(("kkt.", "nnls.")))
    attributed = [sum(v for (u, _), v in st.items() if u == i) for i in range(n)]
    runs = c["training.runs"]
    checkpoints = c["kkt.checkpoints"]
    candidates = c["reconstruct.candidates"]

    metrics = {
        "training.train.self_s": self_s("training.train"),
        "training.steps": (int(c["training.steps"]), "count"),
        "training.step_us": (1e6 * train_self / c["training.steps"]
                             if c["training.steps"] else 0.0, "us"),
        "training.retries": (int(c["training.retries"]), "count"),
        "training.targets_met_frac": (c["training.targets_met"] / runs if runs else 0.0,
                                      "ratio"),
        "training.step_gflops": (c["training.step_flops"] / 1e9 / train_self
                                 if train_self else 0.0, "GFLOP/s"),
        "kkt.estimate_lambdas.calls": (calls["kkt.estimate_lambdas"], "count"),
        "kkt.estimate_lambdas.self_s": self_s("kkt.estimate_lambdas"),
        "kkt.residual_below_target_frac": (
            c["kkt.checkpoints_below_target"] / checkpoints if checkpoints else 0.0,
            "ratio"),
        "kkt.analyze.self_s": self_s("kkt.analyze"),
        "nnls.nnls_normal.calls": (calls["nnls.nnls_normal"], "count"),
        "nnls.nnls_normal.self_s": self_s("nnls.nnls_normal"),
        "model.forward_batch.self_s": self_s("model.forward_batch"),
        "model.to_piecewise_linear.self_s": self_s("model.to_piecewise_linear"),
        "model.save_network.self_s": self_s("model.save_network"),
        "model.save_network.bytes": (int(c["model.save_network.bytes"]), "bytes"),
        "model.load_network.self_s": self_s("model.load_network"),
        "model.load_network.bytes": (int(c["model.load_network.bytes"]), "bytes"),
        "reconstruct.build_candidate_set.self_s": self_s("reconstruct.build_candidate_set"),
        "reconstruct.candidates": (int(c["reconstruct.candidates"]), "count"),
        "reconstruct.matched_frac": (c["reconstruct.matched"] / candidates
                                     if candidates else 0.0, "ratio"),
        "membership.evaluate_attack.self_s": self_s("membership.evaluate_attack"),
        "membership.points_scored": (int(c["membership.points_scored"]), "count"),
        "distributions.sample.self_s": self_s("distributions.sample"),
        "distributions.write_dataset_csv.self_s": self_s("distributions.write_dataset_csv"),
        "distributions.write_dataset_csv.bytes": (
            int(c["distributions.write_dataset_csv.bytes"]), "bytes"),
        "distributions.read_dataset_csv.self_s": self_s("distributions.read_dataset_csv"),
        "distributions.read_dataset_csv.bytes": (
            int(c["distributions.read_dataset_csv.bytes"]), "bytes"),
        "experiment.run_margin_cell.self_s": self_s("experiment.run_margin_cell"),
        "experiment.run_reconstruction_pipeline.self_s":
            self_s("experiment.run_reconstruction_pipeline"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.sample-dataset.self_s": self_s("cli.sample-dataset"),
        "cli.train.self_s": self_s("cli.train"),
        "cli.verify-kkt.self_s": self_s("cli.verify-kkt"),
        "cli.attack-membership.self_s": self_s("cli.attack-membership"),
        "io.bytes_written": (int(bytes_written), "bytes"),
        "io.bytes_read": (int(bytes_read), "bytes"),
        "io.mb_per_s": ((bytes_read + bytes_written) / 1e6 / io_self
                        if io_self else 0.0, "MB/s"),
        "share.kkt_nnls": (kkt_nnls / wall, "ratio"),
        "share.training_train": (train_self / wall, "ratio"),
        "share.io": (io_self / wall, "ratio"),
        "unattributed_s": (sum(t - a for t, a in zip(traced, attributed)) / n, "s/unit"),
        "trace.unit_s.untraced": (sum(plain) / n, "s/unit"),
        "trace.unit_s.traced": (wall / n, "s/unit"),
        "trace.overhead_frac": ((wall - sum(plain)) / sum(plain), "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    metrics.update(run.quality())
    return metrics, breakdown


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    run = Run(workload, reference["workloads"][args.workload])
    OUT_DIR.mkdir(exist_ok=True)
    breakdown = {}
    if args.trace:
        tracer = Tracer()
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        metrics, breakdown = measure_traced(run, tracer, spans_path)
    else:
        metrics = measure(run, args.seconds)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB")
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "self_time_breakdown": breakdown,
        "fingerprint": fingerprint(),
        "catalogue_order": workload.order,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
