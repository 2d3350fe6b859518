"""Record the reference outputs of every catalogue entry into reference.json.

    python3 perfbench/record_reference.py [--workload <name> ...]

Run from the root of the checkout whose outputs are the reference (the
benchmark's outputs were recorded at the commit that added it).  Entries of
the named workloads are replaced; the others are kept.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from run import BLAS_THREAD_VARS

# The BLAS reads its thread count when numpy is first imported.
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path("src").resolve()))

from workloads import RTOL, WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)

    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    doc["rtol"] = RTOL
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name](0)
        entries = {}
        for entry in range(workload.catalogue_size):
            t0 = time.perf_counter()
            entries[str(entry)] = workload.run_unit(entry)
            print(f"{name} entry {entry}: {time.perf_counter() - t0:.2f} s "
                  f"{json.dumps(entries[str(entry)])[:160]}", flush=True)
        doc["workloads"][name] = entries
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
