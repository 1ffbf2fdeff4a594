"""Record reference.json: every output of one pass of each workload at the
default seed.  Run it only on a commit whose outputs are trusted (the
file in the repository was recorded on the commit that added the
benchmark); the benchmark compares every later pass against it.

Usage: python3 bench/record_reference.py
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)


def main() -> int:
    out = {
        "default_seed": workloads.DEFAULT_SEED,
        "rel_tol": workloads.REL_TOL,
        "verify_trials": workloads.VERIFY_TRIALS,
        "workloads": {},
    }
    for name, wl in workloads.WORKLOADS.items():
        prepared = workloads.prepare(wl.corpus(workloads.DEFAULT_SEED))
        ops = wl.run_pass(prepared, workloads.DEFAULT_SEED)
        problems = [p for op in ops for p in op.problems]
        if problems:
            print(f"{name}: {problems[:5]}", file=sys.stderr)
            return 1
        out["workloads"][name] = workloads.reference_rows(ops)
        print(f"{name}: {len(out['workloads'][name])} rows")
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
