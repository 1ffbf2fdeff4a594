"""Run the benchmark once per seed on every workload and summarise each
end-to-end metric: median, quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median, next to the bound BENCHMARK.json
fixes for it.

    python3 bench/repeat.py --seeds 1-10
    python3 bench/repeat.py --seeds 11-20 --out bench/baseline.json

Runs are sequential, so they do not compete for the processor.  A spread
below a third of the bound is the steadiness target; a spread above the
bound makes the exit code 3.  With ``--out`` the set is added to that file
under its seed range, next to the sets already there, and each median is
compared with the same metric's median in the file's first set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def _about(run_seconds: int) -> str:
    import numpy

    return (
        f"End-to-end metrics from python3 bench/repeat.py --seeds <set> --out bench/baseline.json: "
        f"one run per seed and workload, run_seconds {run_seconds}, one run at a time, on "
        f"{platform.system()} {platform.machine()} with {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()} and numpy {numpy.__version__}. "
        "median, q1 and q3 are statistics.quantiles(values, n=4); spread is (q3 - q1) / median; "
        "values are the runs in seed order."
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", help="add this set to a baseline file such as bench/baseline.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    label = f"seeds {args.seeds}"
    out = Path(args.out) if args.out else None
    baseline = (
        json.loads(out.read_text(encoding="utf-8"))
        if out is not None and out.exists()
        else {"workloads": {}}
    )
    baseline["about"] = _about(spec["run_seconds"])

    within = True
    for workload in spec["workloads"]:
        name = workload["name"]
        runs: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            # the same arguments the benchmark contract passes
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            for key, metric in result["metrics"].items():
                runs.setdefault(key, []).append(metric["value"])
        sets = baseline["workloads"].setdefault(name, {})
        for key, values in runs.items():
            summary = summarise(values)
            earlier = sets.setdefault(key, {})
            first = next((s for s_label, s in earlier.items() if s_label != label), None)
            earlier[label] = summary
            bound = bounds[key]
            verdict = "ok" if summary["spread"] < bound / 3 else "wide"
            if summary["spread"] >= bound:
                verdict = "OVER BOUND"
                within = False
            shift = ""
            if first is not None:
                change = summary["median"] / first["median"] - 1.0
                shift = f" median {change:+.3f} vs first set"
                if change > bound:
                    shift += " OVER BOUND"
                    within = False
            print(f"{name:<12} {key:<12} median {summary['median']:10.4f} "
                  f"q1 {summary['q1']:10.4f} q3 {summary['q3']:10.4f} "
                  f"spread {summary['spread']:.4f} (bound {bound}) {verdict}{shift}",
                  flush=True)
    if out is not None:
        out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if within else 3


if __name__ == "__main__":
    sys.exit(main())
