"""Span tracing of calls into marginleak's public functions.

The tracer wraps every public function of every marginleak module, plus the
CLI subcommand handlers, and replaces each reference to the original in every
marginleak module namespace, so calls through a by-name import
(``kkt.nnls_normal``, ``experiment.forward_batch``) are caught too.  Nothing
in the package changes on disk; ``enable``/``disable`` swap the references.

Spans are kept in memory as (span id, name, start, end, parent id, unit id)
and written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import csv
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# Per-step helpers called from inside the gradient-descent loop.  Wrapping
# them would add two spans per step (hundreds of thousands per run on the
# univariate workload), inflate the traced GD loop, and split the loop's own
# time across helpers.  Their time stays in ``training.train``'s self time.
EXCLUDED = frozenset({"training.loss_values"})

# Functions whose wall time is file I/O.
IO_FUNCTIONS = (
    "distributions.write_dataset_csv",
    "distributions.read_dataset_csv",
    "model.save_network",
    "model.load_network",
    "training.write_trace_csv",
    "kkt.write_report",
)
READS = frozenset({"distributions.read_dataset_csv", "model.load_network"})


def _span_name(module_name: str, func_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    if short == "cli" and func_name.startswith("_cmd_"):
        return "cli." + func_name[len("_cmd_"):].replace("_", "-")
    return f"{short}.{func_name}"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Wraps marginleak's public functions and records spans and counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.unit_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if not mod_name.startswith("marginleak.") or module is None:
                continue
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod_name:
                    continue
                if attr.startswith("_") and not (
                    mod_name.endswith(".cli") and attr.startswith("_cmd_")
                ):
                    continue
                name = _span_name(mod_name, attr)
                if name not in EXCLUDED:
                    wrappers[obj] = self._wrap(obj, name)
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "marginleak" and not mod_name.startswith("marginleak."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj, wrappers[obj]))

    def enable(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        observe = _OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, self.unit_id)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> dict[tuple[int, str], float]:
        """Self seconds per (unit id, span name)."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[int, str], float] = defaultdict(float)
        for span_id, name, start, end, _, unit in self.spans:
            out[unit, name] += end - start - child_time[span_id]
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "name", "start", "end", "parent_id", "unit_id"])
            for span_id, name, start, end, parent, unit in self.spans:
                writer.writerow([span_id, name, repr(start), repr(end), parent, unit])


# --- counts read from the arguments and results of traced calls ------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _observe_train(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    trace = result[1]
    counts["training.runs"] += 1
    counts["training.steps"] += trace.final().step
    counts["training.targets_met"] += trace.stop_reason == "targets-met"
    counts["training.step_flops"] += trace.final().step * _step_flops(
        _arg(args, kwargs, 0, "data"), cfg.width
    )
    counts["kkt.checkpoints"] += len(trace.records)
    counts["kkt.checkpoints_below_target"] += sum(
        r.kkt_residual <= cfg.kkt_residual_target for r in trace.records
    )


def _step_flops(data, width: int) -> int:
    # Per step: the forward pass of the candidate parameters (xs @ w.T, then
    # act @ v) and the gradient (weighted.T @ xs, act.T @ coeff).
    n, d = data.points.shape
    return 2 * (2 * n * d * width + 2 * n * width)


def _observe_retries(counts, args, kwargs, result):
    counts["training.retries"] += result[2]


def _observe_candidates(counts, args, kwargs, result):
    counts["reconstruct.candidates"] += len(result)


def _observe_recon(counts, args, kwargs, result):
    counts["reconstruct.matched"] += result.n_matched


def _observe_scores(counts, args, kwargs, result):
    counts["membership.points_scored"] += len(result)


def _observe_read(name):
    def observe(counts, args, kwargs, result):
        counts[f"{name}.bytes"] += _file_size(_arg(args, kwargs, 0, "path"))
    return observe


def _observe_write(name):
    def observe(counts, args, kwargs, result):
        counts[f"{name}.bytes"] += _file_size(_arg(args, kwargs, 1, "path"))
    return observe


_OBSERVERS = {
    "training.train": _observe_train,
    "training.train_non_degenerate": _observe_retries,
    "reconstruct.build_candidate_set": _observe_candidates,
    "experiment.run_reconstruction_pipeline": _observe_recon,
    "membership.membership_scores": _observe_scores,
}
for _name in IO_FUNCTIONS:
    _OBSERVERS[_name] = _observe_read(_name) if _name in READS else _observe_write(_name)
