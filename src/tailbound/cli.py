"""Command-line surface: compute bounds, verify them adversarially, and
emit the variance-sweep comparison panels as CSV files.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile
from typing import Callable, Sequence

from .bernstein_moments import (
    MomentVector,
    exp_moment_bound,
    refined_binomial_bound,
    z_nm_bound,
)
from .classic_bounds import (
    BoundReport,
    VarianceClassSpec,
    bennett_bound,
    hoeffding_bound,
    hoeffding_exp_bound,
    markov_bound,
)
from .convex_opt_bounds import (
    bentkus_linear_bound,
    binomial_comparison_bound,
    missing_factor_bound,
)
from .errors import DomainError, ResourceLimitError, TailboundError, ValidationError
from .instance_io import (
    BoundTask,
    InstanceFile,
    ResultRow,
    SkippedMethod,
    emit_results,
    format_field,
    parse_instance,
)
from .mixture_bounds import (
    conditional_means_bound,
    conditional_probs_bound,
    xi_sum_bound,
)
from .order_oracle import ClassSpec, validate_bound

FIGURE_PANELS = (
    (0.25, (6, 7, 8, 9)),
    (0.50, (11, 12, 13, 14)),
    (0.75, (16, 17, 18, 19)),
)
FIGURE_N = 20
FIGURE_GRID_POINTS = 50
#: the panels' columns: bennett, momopt and xitheorem
FIGURE_METHODS = ("bennett", "z_nm", "xi_sum")


def _variance_moment_vectors(task: BoundTask) -> list[MomentVector]:
    # variance tasks feed the lattice machinery through (p, sigma2 + p^2)
    return [MomentVector((s.p, s.sigma2 + s.p * s.p)) for s in task.specs]


def _bennett(task: BoundTask) -> BoundReport:
    if len(set(task.specs)) != 1:
        raise DomainError(
            "the variance-aware exponential bound requires a shared (p, sigma2) pair"
        )
    return bennett_bound(task.n, task.specs[0], task.t)


#: the methods each information level adds; every level fixes the means,
#: so the ``mean`` level's methods apply to all of them.  Each row looks its
#: bound up in this module when called, so a rebound name (a trace wrapper)
#: is the one that runs.
_LEVELS: dict[str, dict[str, Callable[[BoundTask], BoundReport]]] = {
    "mean": {
        "markov": lambda task: markov_bound(task.specs, task.t),
        "hoeffding": lambda task: hoeffding_bound(task.specs, task.t),
        "hoeffding_exp": lambda task: hoeffding_exp_bound(task.specs, task.t),
        "bentkus_linear": lambda task: bentkus_linear_bound(task.specs, task.t),
        "missing_factor": lambda task: missing_factor_bound(task.specs, task.t),
        "binomial_comparison": lambda task: binomial_comparison_bound(task.specs, task.t),
    },
    "moments": {
        "exp_moment": lambda task: exp_moment_bound(task.specs, task.t),
        "z_nm": lambda task: z_nm_bound(task.specs, task.t),
        "refined_binomial": lambda task: refined_binomial_bound(task.specs, task.t),
    },
    "variance": {
        "bennett": _bennett,
        "z_nm": lambda task: z_nm_bound(_variance_moment_vectors(task), task.t),
        "xi_sum": lambda task: xi_sum_bound(task.specs, task.t),
    },
    "conditional-means": {
        "conditional_means": lambda task: conditional_means_bound(task.specs, task.t),
    },
    "conditional-probs": {
        "conditional_probs": lambda task: conditional_probs_bound(task.specs, task.t),
    },
}


def compute_bounds(
    task: BoundTask, methods: Sequence[str] | None = None
) -> list[ResultRow]:
    """Every applicable bound for one task; inapplicable methods become
    :class:`SkippedMethod` rows carrying the reason.  Every row, computed
    or skipped, is labelled with the task's n, average mean, sigma2 label
    and threshold."""
    available = {**_LEVELS["mean"], **_LEVELS[task.information]}
    selected = list(available) if methods is None else list(methods)
    unknown = [m for m in selected if m not in available]
    if unknown:
        raise DomainError(
            f"unknown method(s) {', '.join(unknown)}; "
            f"available for {task.information}: {', '.join(available)}"
        )
    if not selected:
        raise DomainError("no method selected")
    repeated = [m for i, m in enumerate(selected) if m in selected[:i]]
    if repeated:
        raise DomainError(f"method(s) {', '.join(repeated)} selected more than once")
    context = {
        "n": task.n,
        "p_or_q1": math.fsum(task.means) / task.n,
        "sigma2": task.sigma2_label,
        "t": task.t,
    }
    rows: list[ResultRow] = []
    for name in selected:
        try:
            rows.append(dataclasses.replace(available[name](task), **context))
        except (DomainError, ResourceLimitError) as exc:
            rows.append(SkippedMethod(name, str(exc), **context))
    return rows


def class_specs_for_task(task: BoundTask) -> tuple[ClassSpec, ...]:
    """Per-variable class specs the oracle samples from."""
    return task.specs


def _read_instance(path: str) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def cmd_bound(path: str, methods: Sequence[str] | None, fmt: str) -> int:
    try:
        instance = _read_instance(path)
        all_rows: list[ResultRow] = []
        for task in instance.tasks():
            all_rows.extend(compute_bounds(task, methods))
        output = emit_results(all_rows, fmt)
    except (ValidationError, TailboundError, OSError) as exc:
        _print_input_error(exc)
        return 2
    for row in all_rows:
        if isinstance(row, SkippedMethod):
            print(f"note: {row.method} skipped: {row.reason}", file=sys.stderr)
    sys.stdout.write(output)
    return 0


def cmd_verify(path: str, trials: int, seed: int) -> int:
    import numpy as np
    try:
        instance = _read_instance(path)
        if instance.n > 8:
            raise DomainError("exact verification is limited to n <= 8 variables")
        if trials < 0:
            raise DomainError("trials must be nonnegative")
        tasks = instance.tasks()
    except (ValidationError, TailboundError, OSError) as exc:
        _print_input_error(exc)
        return 2
    total_violations = 0
    lines = ["method,t,sigma2,bound,max_tail,violations"]
    for task_index, task in enumerate(tasks):
        rows = compute_bounds(task)
        for method_index, row in enumerate(rows):
            if isinstance(row, SkippedMethod):
                continue
            child = np.random.SeedSequence(
                [seed, task_index, method_index]
            ).generate_state(1)[0]
            try:
                report = validate_bound(task.specs, task.t, row.value, trials, int(child))
            except TailboundError as exc:
                _print_input_error(exc)
                return 2
            total_violations += len(report.violations)
            fields = (row.method, task.t, task.sigma2_label, row.value, report.max_tail)
            lines.append(",".join(map(format_field, (*fields, len(report.violations)))))
            for violation in report.violations:
                members = "; ".join(
                    f"support={tuple(round(s, 6) for s in m.support.tolist())} "
                    f"probs={tuple(round(q, 6) for q in m.probs.tolist())}"
                    for m in violation.members
                )
                print(
                    f"counterexample: method={row.method} trial={violation.trial} "
                    f"tail={violation.tail:.12g} > bound={row.value:.12g} [{members}]",
                    file=sys.stderr,
                )
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if total_violations else 0


def _figure_rows(p: float, thresholds: Sequence[int]) -> dict[int, list[tuple[float, ...]]]:
    # each (p, sigma2) row serves all its thresholds in turn, so the
    # methods' memos build its sum distributions once
    cap = p * (1.0 - p)
    rows: dict[int, list[tuple[float, ...]]] = {t: [] for t in thresholds}
    for k in range(1, FIGURE_GRID_POINTS + 1):
        s2 = cap * k / FIGURE_GRID_POINTS
        specs = (VarianceClassSpec(p, s2),) * FIGURE_N
        for t in thresholds:
            task = BoundTask("variance", float(t), specs)
            reports = compute_bounds(task, FIGURE_METHODS)
            for report in reports:
                if isinstance(report, SkippedMethod):
                    raise DomainError(
                        f"figure1 p={p} t={t} sigma2={s2!r}: "
                        f"{report.method} skipped: {report.reason}"
                    )
            rows[t].append((s2, *(report.value for report in reports)))
    return rows


def cmd_figure1(outdir: str) -> int:
    try:
        os.makedirs(outdir, exist_ok=True)
        for p, thresholds in FIGURE_PANELS:
            for t, rows in _figure_rows(p, thresholds).items():
                name = f"fig1_p{int(round(p * 100))}_t{t}.csv"
                lines = ["sigma2,bennett,momopt,xitheorem"]
                for row in rows:
                    lines.append(",".join(format_field(v) for v in row))
                content = "\n".join(lines) + "\n"
                fd, tmp_path = tempfile.mkstemp(dir=outdir, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                        handle.write(content)
                    os.replace(tmp_path, os.path.join(outdir, name))
                except BaseException:
                    if os.path.exists(tmp_path):
                        os.unlink(tmp_path)
                    raise
    except (OSError, TailboundError) as exc:
        _print_input_error(exc)
        return 2
    return 0


def _print_input_error(exc: Exception) -> None:
    if isinstance(exc, ValidationError):
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tailbound",
        description=(
            "Tail-probability bounds for sums of independent bounded random "
            "variables, with exact small-instance verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute every applicable bound for an instance")
    p_bound.add_argument("instance", help="path to a JSON instance file")
    p_bound.add_argument(
        "--methods",
        help="comma-separated subset of methods to compute (default: all applicable)",
    )
    p_bound.add_argument(
        "--format", choices=("csv", "table"), default="csv", help="output format"
    )

    p_verify = sub.add_parser(
        "verify", help="validate the computed bounds against exact adversarial tails"
    )
    p_verify.add_argument("instance", help="path to a JSON instance file (n <= 8)")
    p_verify.add_argument("--trials", type=int, required=True, help="member tuples per bound")
    p_verify.add_argument("--seed", type=int, required=True, help="root seed")

    p_fig = sub.add_parser(
        "figure1", help="emit the 12 variance-sweep comparison panels as CSV files"
    )
    p_fig.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    if args.command == "bound":
        methods = None
        if args.methods is not None:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        return cmd_bound(args.instance, methods, args.format)
    if args.command == "verify":
        return cmd_verify(args.instance, args.trials, args.seed)
    if args.command == "figure1":
        return cmd_figure1(args.out)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
