"""marginleak benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each run starts fresh worker
processes (``worker.py``) with the BLAS pinned to one thread and
``src`` on the import path.  One of them measures; the others only set up,
half of them before it and half after, so ``setup_s``, the median over
``SETUP_SAMPLES`` set-ups, samples the host over the whole run.  Every
metric the worker reports is printed as ``name value unit``, together with
the machine fingerprint; the last line of standard output is the JSON object
with the ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  The full result, and with
``--trace 1`` the spans, are written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = Path(".perfbench_out")
SETUP_SAMPLES = 7
TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker; returns (seconds until READY, its remaining stdout)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not set up: {line!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="marginleak benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = Path("BENCHMARK.json")
    if not Path("src/marginleak/__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a marginleak checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIMEOUT_S
    try:
        setups = [_worker(args, deadline, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES // 2)]
        setup, rest = _worker(args, deadline, setup_only=False)
        setups.append(setup)
        setups += [_worker(args, deadline, setup_only=True)[0]
                   for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(next(
        ln for ln in reversed(rest.splitlines()) if ln.startswith("RESULT ")
    )[len("RESULT "):])
    metrics = result["metrics"]
    metrics["setup_s"] = (statistics.median(setups), "s")
    result["setup_samples_s"] = setups

    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{key} {value!r} {unit}")
    for key, (value, unit) in result["self_time_breakdown"].items():
        print(f"self_s.{key} {value!r} {unit}")

    section = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[section] if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in spec[section]
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
