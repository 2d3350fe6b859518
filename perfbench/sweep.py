"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workload <name> ...] [--trace 1]
                               [--out <summary.json>]

Run from the root of the checkout.  For every workload and metric it prints
the median over seeds, the quartiles from ``statistics.quantiles(n=4)``, and
the spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json,
and the mean wall time of one run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=_seeds, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    section = spec["per_layer" if args.trace else "end_to_end"]
    summary = {}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.splitlines()[-1])
            line["wall_s"] = time.perf_counter() - t0
            runs.append(line)
            print(workload, seed, f"wall {line['wall_s']:.1f} s", json.dumps(
                {k: v["value"] for k, v in line["metrics"].items()}), flush=True)
        summary[workload] = {"seeds": args.seeds, "runs": runs, "metrics": {}}
        for m in section:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            summary[workload]["metrics"][m["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
            }
            print(f"  {workload} {m['name']}: median {median:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
                  + (f" (bound {m['bound']})" if "bound" in m else ""), flush=True)
        failed = sum(r["failed"] for r in runs)
        print(f"  {workload}: failed {failed} of {sum(r['attempted'] for r in runs)}; "
              f"mean run wall {statistics.fmean(r['wall_s'] for r in runs):.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
