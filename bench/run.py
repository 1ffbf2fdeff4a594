"""tailbound benchmark: one command for the figure1, bound_sweep and verify
workloads.

    python3 bench/run.py --workload figure1 --seed 0 --trace 0
    python3 bench/run.py                    # every workload, each in its own process

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory and nowhere else.  With ``--trace 0`` the
last stdout line is a JSON object carrying the end-to-end metrics, with
times scaled to the reference host speed that ``pace.py`` measures (the raw
times are printed above it); with ``--trace 1`` it carries the per-layer
metrics of one traced pass.  Every
pass is checked against ``reference.json`` and the invariants in
``workloads.check``; the exit code is 1 when an op failed.  See README.md
for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("figure1", "bound_sweep", "verify")
#: fresh processes timed for setup_s after the warm-up pass and after each
#: timed pass; spreading them over the run keeps one slow moment of the host
#: from setting the median of all of them
SETUP_PROBES_PER_PASS = 4
#: pace kernel calls right before and right after each set-up probe
SETUP_KERNEL_CALLS = 60
#: threads the numeric libraries may start; every workload is single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"wall_s": "s", "setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "trace.coverage":
        return "ratio"
    return "count"


def measure_setup(corpus, samples: list[tuple[float, float]], pace) -> None:
    """Append SETUP_PROBES_PER_PASS samples of the seconds from spawning a
    fresh interpreter until it has imported tailbound, parsed the corpus
    and expanded its tasks, each with the host-speed factor of the pace
    kernel run right before and right after it."""
    payload = json.dumps([inst.text for inst in corpus]).encode()
    for _ in range(SETUP_PROBES_PER_PASS):
        pace.start_pass()
        pace.block(SETUP_KERNEL_CALLS)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or not line.startswith(b"ready"):
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        pace.block(SETUP_KERNEL_CALLS)
        samples.append((seconds, pace.factor()))


def _op_figures(passes, latencies, scaled: bool) -> dict:
    """wall_s, op_ms_p50 and op_ms_p90 from (seconds, host-speed factor)
    samples, raw or scaled to the reference host speed."""
    def pick(samples):
        return [s * f if scaled else s for s, f in samples]

    deciles = statistics.quantiles(pick(latencies), n=10, method="inclusive")
    return {
        "wall_s": statistics.median(pick(passes)),
        "op_ms_p50": deciles[4] * 1e3,
        "op_ms_p90": deciles[8] * 1e3,
    }


class Ledger:
    """Checks every pass and counts attempted and failed ops."""

    def __init__(self, check, reference: dict, seed: int) -> None:
        self.check = check
        self.reference = reference
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def record(self, ops) -> None:
        self.check(ops, self.reference, self.seed)
        for op in ops:
            if op.timed or op.problems:
                self.attempted += 1
            if op.problems:
                self.failed += 1
                if self.reported < 10:
                    self.reported += 1
                    print(f"failed op {op.key}: {'; '.join(op.problems)}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    import workloads
    from pace import Pace

    wl = workloads.WORKLOADS[name]
    corpus = wl.corpus(seed)
    ledger = Ledger(workloads.check, workloads.load_reference(name), seed)
    prepared = workloads.prepare(corpus)
    setup_samples: list[tuple[float, float]] = []

    pace = Pace()
    pace.start_pass()
    ledger.record(wl.run_pass(prepared, seed, pace.mark))  # untimed warm-up pass
    passes: list[tuple[float, float]] = []  # (seconds, host-speed factor)
    latencies: list[tuple[float, float]] = []
    # the set-up probes between passes do not count towards the seconds
    while not passes or sum(s for s, _ in passes) * (1 + 1 / len(passes)) <= seconds:
        if not trace:
            measure_setup(corpus, setup_samples, pace)
        pace.start_pass()
        t0 = time.perf_counter()
        ops = wl.run_pass(prepared, seed, pace.mark)
        elapsed = time.perf_counter() - t0 - pace.kernel_s
        factor = pace.factor()
        passes.append((elapsed, factor))
        ledger.record(ops)
        latencies.extend(
            (op.seconds, pace.factor_near(pace.op_start[i] + op.seconds / 2))
            for i, op in enumerate(ops)
            if op.timed
        )
    raw = _op_figures(passes, latencies, scaled=False)
    scaled = _op_figures(passes, latencies, scaled=True)
    if setup_samples:
        raw["setup_s"] = statistics.median(s for s, _ in setup_samples)
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    beyond = sum(s * f > scaled["op_ms_p90"] / 1e3 for s, f in latencies)

    print(f"workload={name} seed={seed} passes={len(passes)} "
          f"ops_per_pass={len(latencies) // len(passes)} "
          f"host_speed={statistics.median(f for _, f in passes):.3f} of reference")
    if trace:
        metrics = traced_pass(wl, corpus, seed, ledger, raw["wall_s"], name)
    else:
        metrics = {
            "wall_s": scaled["wall_s"],
            "setup_s": statistics.median(s * f for s, f in setup_samples),
            "op_ms_p50": scaled["op_ms_p50"],
            "op_ms_p90": scaled["op_ms_p90"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        notes = {
            "wall_s": f"median of {len(passes)} passes after a warm-up pass",
            "setup_s": f"median of {len(setup_samples)} fresh processes",
            "op_ms_p90": f"{len(latencies)} samples, {beyond} beyond p90",
        }
        print(f"  {'metric':<16}{'value':>12}     {'raw':>10}")
        for key, value in metrics.items():
            print(f"  {key:<16}{value:12.4f} {UNITS[key]:<3} {raw[key]:10.4f}  "
                  f"{notes.get(key, '')}")
    frac = ledger.failed / ledger.attempted
    print(f"  {'ops_failed_frac':<16}{frac:12.4f} ratio ({ledger.failed} of {ledger.attempted} ops)")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            key: {"value": value, "unit": UNITS.get(key) or _layer_unit(key)}
            for key, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


def traced_pass(wl, corpus, seed: int, ledger: Ledger, untraced_s: float, name: str) -> dict:
    """Set up and run one pass with every layer wrapped; returns the
    per-layer metrics and writes the spans to out/."""
    import spans
    import workloads

    rec = spans.Recorder()
    origin = time.perf_counter()
    with spans.traced(rec):
        prepared = workloads.prepare(corpus)
        pass_start = time.perf_counter()
        ops = wl.run_pass(prepared, seed, rec.mark)
        traced_s = time.perf_counter() - pass_start
    ledger.record(ops)
    metrics = spans.layer_metrics(rec)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.coverage"] = spans.root_busy(rec, pass_start) / traced_s
    metrics["trace.spans"] = len(rec)
    OUT_DIR.mkdir(exist_ok=True)
    spans.write_spans(rec, OUT_DIR / f"spans-{name}-seed{seed}.csv", origin)
    top = sorted(spans.SPAN_NAMES, key=lambda s: -metrics[f"{s}.self_s"])[:8]
    print(f"  traced pass {traced_s:.3f} s, untraced {untraced_s:.3f} s, "
          f"coverage {metrics['trace.coverage']:.3f}, {len(rec)} spans")
    for span in top:
        print(f"  {span:<52} calls={metrics[f'{span}.calls']:<8} "
              f"self={metrics[f'{span}.self_s']:.3f} s busy={metrics[f'{span}.busy_s']:.3f} s")
    return metrics


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process; prints one table at the end.  A
    failed workload does not stop the others; the exit code is 1 if any
    failed."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        try:
            results[name] = json.loads(lines[-1])
            lines.pop()
        except (IndexError, ValueError):
            results[name] = None
        sys.stdout.write("".join(line + "\n" for line in lines))
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
    names = [n for n in WORKLOAD_NAMES if results[n] is not None]
    if not trace and names:
        print(f"\n{'metric':<18}" + "".join(f"{n:>14}" for n in names))
        for key, unit in UNITS.items():
            cells = "".join(f"{results[n]['metrics'][key]['value']:14.4f}" for n in names)
            print(f"{key + ' (' + unit + ')':<18}{cells}")
        cells = "".join(f"{results[n]['failed'] / results[n]['attempted']:14.4f}" for n in names)
        print(f"{'ops_failed_frac':<18}{cells}")
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=int,
                        help="seconds of timed passes after the warm-up pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from one traced pass")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC_PATH.read_text(encoding="utf-8"))["run_seconds"]
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "tailbound" / "__init__.py").is_file():
        print(f"error: no tailbound sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import tailbound

    if Path(tailbound.__file__).resolve().parent != SRC / "tailbound":
        print(f"error: imported tailbound from {tailbound.__file__}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
