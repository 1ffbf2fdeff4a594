"""Self-test of the benchmark's outside trace wrappers.

Checks that
* ``tailbound bound`` output (CSV on stdout, notes on stderr) over both
  bound workloads' corpora and the ``tailbound figure1`` CSV files are
  byte-identical with the wrappers installed and removed;
* every wrapped attribute holds its original object afterwards, and each
  traced layer was bound in its defining module;
* the figure1 workload reproduces the figure1 CLI files byte for byte.

Usage: python3 bench/selftest.py      (exit code 0 when every check holds)
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import spans  # noqa: E402  (needs the source path above)
import workloads  # noqa: E402
from tailbound import cli  # noqa: E402


def _bound_output(paths: list[Path]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for path in paths:
            if cli.main(["bound", str(path)]) != 0:
                raise RuntimeError(f"tailbound bound {path.name} failed: {err.getvalue()}")
    return (out.getvalue() + "\0" + err.getvalue()).encode()


def _figure1_output(outdir: Path) -> dict[str, bytes]:
    if cli.main(["figure1", "--out", str(outdir)]) != 0:
        raise RuntimeError("tailbound figure1 failed")
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every tailbound module and traced class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "tailbound" or name.startswith("tailbound."):
            out.update({(name, key): value for key, value in vars(module).items()})
    for module_name, path, _, _ in spans.TARGETS:
        owner_name, _, _ = path.rpartition(".")
        if owner_name:
            owner = getattr(importlib.import_module(f"tailbound.{module_name}"), owner_name)
            out.update({(owner.__qualname__, k): v for k, v in vars(owner).items()})
    return out


def main() -> int:
    failures = []
    corpus = (
        workloads.bound_sweep_corpus(workloads.DEFAULT_SEED)
        + workloads.verify_corpus(workloads.DEFAULT_SEED)
    )
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        tmp = Path(tmp)
        paths = []
        for inst in corpus:
            paths.append(tmp / f"{inst.name}.json")
            paths[-1].write_text(inst.text, encoding="utf-8")

        before = _bindings()
        plain_bound = _bound_output(paths)
        plain_figure = _figure1_output(tmp / "plain")
        rec = spans.Recorder()
        with spans.traced(rec) as patched:
            traced_bound = _bound_output(paths)
            traced_figure = _figure1_output(tmp / "traced")
        after = _bindings()

    if traced_bound != plain_bound:
        failures.append("bound output differs with tracing on")
    if traced_figure != plain_figure:
        failures.append("figure1 files differ with tracing on")
    changed = [key for key in before if after.get(key) is not before[key]]
    if changed or set(after) != set(before):
        failures.append(f"bindings not restored: {changed[:5]}")
    patched_modules = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in patched}
    for module_name, path, name, _ in spans.TARGETS:
        if "." not in path and (f"tailbound.{module_name}", path) not in patched_modules:
            failures.append(f"{name} was not wrapped in its defining module")
    called = {rec.names[rec.name_of[i]] for i in range(len(rec))}
    for name in ("cli.compute_bounds", "instance_io.emit_results", "distributions.convolve",
                 "mixture_bounds.xi_sum_bound", "bernstein_moments.z_nm_bound"):
        if name not in called:
            failures.append(f"no {name} span recorded while traced")

    wl = workloads.WORKLOADS["figure1"]
    prepared = workloads.prepare(wl.corpus(workloads.DEFAULT_SEED))
    ops = wl.run_pass(prepared, workloads.DEFAULT_SEED)
    if {k: v.encode() for k, v in workloads.figure1_csv(prepared, ops).items()} != plain_figure:
        failures.append("the figure1 workload does not reproduce the figure1 CLI files")

    print(f"{len(patched)} bindings wrapped, {len(rec)} spans, "
          f"{len(plain_bound)} bytes of bound output, {len(plain_figure)} figure1 files")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
