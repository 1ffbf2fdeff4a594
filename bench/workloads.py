"""The three benchmark workloads: their seeded corpora, one pass each, and
the output checks run on every pass.

A workload sees the library only through the instance documents it
generates here, parsed with ``parse_instance`` exactly as the CLI does.
Library functions are looked up as module attributes at call time (never
bound at import), so the trace wrappers in ``spans.py`` see every call.

Op definitions (one latency sample each):

* ``figure1``: one sigma^2 grid point of one panel (bennett, z_nm, xi_sum).
* ``bound_sweep``: one ``cli.compute_bounds(task)`` call.
* ``verify``: one ``validate_bound`` call for one (task, method) row.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import tailbound
from tailbound import cli

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: the seed whose outputs were recorded in reference.json
DEFAULT_SEED = 0
#: relative tolerance of the comparison against reference.json
REL_TOL = 1e-9
#: slack of the "linear cut <= Markov" invariant (the cut at 0 is Markov)
MARKOV_SLACK = 1e-9
#: methods whose optimal linear cut includes the cut at 0, i.e. Markov
LINEAR_CUT_METHODS = ("bentkus_linear", "z_nm", "xi_sum")
#: member tuples per verified row
VERIFY_TRIALS = 8


@dataclass(frozen=True)
class Instance:
    """One generated instance document.  ``seeded`` marks documents whose
    parameters come from the seed; their values are compared with the
    reference only at DEFAULT_SEED, everything else at every seed."""

    name: str
    doc: dict
    seeded: bool = False

    @property
    def text(self) -> str:
        return json.dumps(self.doc)


@dataclass
class Op:
    """One timed operation and the outputs the checks look at.

    ``values`` maps row keys ``<instance>/<task>/<method>`` to bound values
    (None for a skipped method); ``seeded_values`` holds outputs that
    depend on the seed even for a fixed instance (verify's ``max_tail``).
    """

    key: str
    seconds: float
    seeded: bool
    values: dict[str, float | None] = field(default_factory=dict)
    seeded_values: dict[str, float] = field(default_factory=dict)
    markov: float | None = None
    problems: list[str] = field(default_factory=list)
    #: False for a row the CLI skips without an op (verify's skipped methods)
    timed: bool = True


Prepared = list[tuple[Instance, list]]
NO_MARK: Callable[[int], None] = lambda op_index: None


def _doc(information: str, n: int, **blocks) -> dict:
    return {"schema_version": 1, "information": information, "n": n, **blocks}


def _timed(op: Op, call: Callable[[], object]):
    """Run ``call`` as the op's timed region; an uncaught exception becomes a
    problem of the op, and the pass goes on."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # the benchmark loop must keep running
        op.seconds = time.perf_counter() - start
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
        return None
    op.seconds = time.perf_counter() - start
    return result


# -- figure1 ------------------------------------------------------------------

#: the paper's 12 panels: (p, thresholds), n = 20, 50 sigma^2 points each
FIGURE_PANELS = ((0.25, (6, 7, 8, 9)), (0.50, (11, 12, 13, 14)), (0.75, (16, 17, 18, 19)))
FIGURE_N = 20
FIGURE_GRID_POINTS = 50


def figure1_corpus(seed: int) -> list[Instance]:
    # the paper's figure has no free parameters: every seed gives this corpus
    out = []
    for p, thresholds in FIGURE_PANELS:
        cap = p * (1.0 - p)
        grid = [cap * k / FIGURE_GRID_POINTS for k in range(1, FIGURE_GRID_POINTS + 1)]
        for t in thresholds:
            out.append(
                Instance(
                    f"p{int(round(p * 100))}_t{t}",
                    _doc("variance", FIGURE_N, p=p, t=t, sweep={"sigma2": grid}),
                )
            )
    return out


def _figure_point(task) -> tuple[float, float, float]:
    """The three values the figure1 CLI computes for one sigma^2 point."""
    p, s2, n, t = task.means[0], task.sigma2s[0], task.n, task.t
    vclass = tailbound.VarianceClassSpec(p, s2)
    return (
        tailbound.bennett_bound(n, vclass, t).value,
        tailbound.z_nm_bound([tailbound.MomentVector((p, s2 + p * p))] * n, t).value,
        tailbound.xi_sum_bound([vclass] * n, t).value,
    )


def figure1_pass(prepared: Prepared, seed: int, mark=NO_MARK) -> list[Op]:
    ops = []
    for inst, tasks in prepared:
        for ti, task in enumerate(tasks):
            mark(len(ops))
            op = Op(f"{inst.name}/{ti}", 0.0, inst.seeded)
            row = _timed(op, lambda: _figure_point(task))
            if row is not None:
                for method, value in zip(("bennett", "z_nm", "xi_sum"), row):
                    op.values[f"{op.key}/{method}"] = value
            op.markov = task.n * task.means[0] / task.t
            ops.append(op)
    mark(-1)
    return ops


def figure1_csv(prepared: Prepared, ops: list[Op]) -> dict[str, str]:
    """The pass's rows in the figure1 CLI's file layout, keyed by file name."""
    by_key = {op.key: op for op in ops}
    files = {}
    for inst, tasks in prepared:
        lines = ["sigma2,bennett,momopt,xitheorem"]
        for ti, task in enumerate(tasks):
            op = by_key[f"{inst.name}/{ti}"]
            row = [task.sigma2s[0]] + [op.values[f"{op.key}/{m}"] for m in ("bennett", "z_nm", "xi_sum")]
            lines.append(",".join(f"{v:.12g}" for v in row))
        files[f"fig1_{inst.name}.csv"] = "\n".join(lines) + "\n"
    return files


# -- bound_sweep ----------------------------------------------------------------


def heterogeneous_variance(seed: int, n: int = 20) -> dict:
    """A variance instance whose xi sum is not a lattice: half the variables
    share one mean, half another, and every variance differs.

    Two distinct means keep the xi support near (n/2 + 1)^3 points (1331
    at n = 20); a third would multiply it past the convolution limit.  The
    narrow draw ranges keep the number of cut candidates below t, and so
    the pass time, nearly independent of the seed; the thresholds lie above
    the missing-factor threshold for every draw, so the set of skipped
    methods does not depend on the seed either.
    """
    rng = random.Random(seed)
    low = round(rng.uniform(0.19, 0.21), 6)
    high = round(rng.uniform(0.29, 0.31), 6)
    p_list = [low] * (n // 2) + [high] * (n - n // 2)
    rng.shuffle(p_list)
    sigma2_list = [round(p * (1.0 - p) * rng.uniform(0.3, 0.9), 6) for p in p_list]
    return _doc("variance", n, p_list=p_list, sigma2_list=sigma2_list, sweep={"t": [12, 14, 16]})


def bound_sweep_corpus(seed: int) -> list[Instance]:
    return [
        # bentkus_linear: O(n t) binomial pmf sums per threshold
        Instance("mean_n1000", _doc("mean", 1000, p=0.3, sweep={"t": [330, 420]})),
        # z_nm with m=4 on the 401-point grid; at n=500 it refuses only after 15-45 s
        Instance(
            "moments_m4_n100",
            _doc("moments", 100, moments=[0.3, 0.15, 0.09, 0.06], sweep={"t": [40, 50, 60]}),
        ),
        # z_nm plus a lattice xi sum over a sigma^2 x t grid
        Instance(
            "variance_n100",
            _doc(
                "variance", 100, p=0.25,
                sweep={"sigma2": [0.04, 0.08, 0.12, 0.16], "t": [35, 45]},
            ),
        ),
        # exponential-rate search on the four-point mixture, many cheap tasks
        Instance(
            "cond_means_n200",
            _doc(
                "conditional-means", 200, p=0.3, breakpoints=[0, 0.2, 0.5, 1],
                mu=[0.1, 0.35, 0.7], sweep={"t": list(range(61, 106))},
            ),
        ),
        # closed-form greedy LP, many cheap tasks
        Instance(
            "cond_probs_n200",
            _doc(
                "conditional-probs", 200, p=0.3, breakpoints=[0, 0.2, 0.5, 1],
                q=[0.4, 0.3, 0.3], sweep={"t": list(range(62, 107))},
            ),
        ),
        # non-lattice xi sum: the O(N^2) cut scan over ~1300 points
        Instance("variance_het_n20", heterogeneous_variance(seed), seeded=True),
    ]


def _record_rows(op: Op, rows) -> None:
    for row in rows:
        value = row.value if isinstance(row, tailbound.BoundReport) else None
        op.values[f"{op.key}/{row.method}"] = value
        if row.method == "markov":
            op.markov = value


def bound_sweep_pass(prepared: Prepared, seed: int, mark=NO_MARK) -> list[Op]:
    ops = []
    for inst, tasks in prepared:
        all_rows = []
        inst_ops = []
        for ti, task in enumerate(tasks):
            mark(len(ops))
            op = Op(f"{inst.name}/{ti}", 0.0, inst.seeded)
            rows = _timed(op, lambda: cli.compute_bounds(task))
            if rows is not None:
                _record_rows(op, rows)
                all_rows.extend(rows)
            ops.append(op)
            inst_ops.append(op)
        mark(-1)
        # serialization, as `tailbound bound` does once per instance file
        try:
            csv = tailbound.emit_results(all_rows, "csv")
        except Exception as exc:  # counted against the instance's last op
            inst_ops[-1].problems.append(f"emit_results raised {type(exc).__name__}: {exc}")
        else:
            if csv.count("\n") != len(all_rows) + 1:
                inst_ops[-1].problems.append("emit_results: wrong number of CSV lines")
    return ops


# -- verify ---------------------------------------------------------------------


def verify_corpus(seed: int) -> list[Instance]:
    # n <= 8 as the oracle requires; conditional classes (members with up to
    # 6 support points) stay at n = 4, see README.md on the n = 8 crash
    return [
        Instance("mean_n8", _doc("mean", 8, p=0.3, sweep={"t": [4, 5, 6]})),
        Instance(
            "moments_m3_n6",
            _doc("moments", 6, moments=[0.3, 0.15, 0.09], sweep={"t": [3, 4, 5]}),
        ),
        Instance(
            "variance_n8",
            _doc("variance", 8, p=0.3, sweep={"sigma2": [0.05, 0.15], "t": [4, 6]}),
        ),
        Instance(
            "cond_means_n4",
            _doc(
                "conditional-means", 4, p=0.3, breakpoints=[0, 0.2, 0.5, 1],
                mu=[0.1, 0.35, 0.7], sweep={"t": [2, 3]},
            ),
        ),
        Instance(
            "cond_probs_n4",
            _doc(
                "conditional-probs", 4, p=0.3, breakpoints=[0, 0.2, 0.5, 1],
                q=[0.4, 0.3, 0.3], sweep={"t": [2, 3]},
            ),
        ),
    ]


def verify_pass(prepared: Prepared, seed: int, mark=NO_MARK) -> list[Op]:
    """`tailbound verify --trials VERIFY_TRIALS --seed <seed>` on each instance."""
    ops = []
    for inst, tasks in prepared:
        for ti, task in enumerate(tasks):
            try:
                specs = cli.class_specs_for_task(task)
                rows = cli.compute_bounds(task)
            except Exception as exc:  # counted as one failed row; the pass goes on
                ops.append(Op(f"{inst.name}/{ti}", 0.0, inst.seeded, timed=False,
                              problems=[f"raised {type(exc).__name__}: {exc}"]))
                continue
            markov = next(
                (r.value for r in rows if r.method == "markov" and isinstance(r, tailbound.BoundReport)),
                None,
            )
            for mi, row in enumerate(rows):
                key = f"{inst.name}/{ti}/{row.method}"
                if not isinstance(row, tailbound.BoundReport):
                    # not an op: the CLI skips such rows; the check still
                    # catches a skip the reference does not expect
                    ops.append(Op(key, 0.0, inst.seeded, values={key: None}, timed=False))
                    continue
                mark(len(ops))
                op = Op(key, 0.0, inst.seeded, values={key: row.value}, markov=markov)
                child = int(np.random.SeedSequence([seed, ti, mi]).generate_state(1)[0])
                report = _timed(
                    op,
                    lambda: tailbound.validate_bound(specs, task.t, row.value, VERIFY_TRIALS, child),
                )
                if report is not None:
                    op.seeded_values[f"{key}/max_tail"] = report.max_tail
                    if report.violations:
                        op.problems.append(f"{len(report.violations)} violation(s)")
                    if report.trials != VERIFY_TRIALS:
                        op.problems.append(f"ran {report.trials} trials")
                ops.append(op)
        mark(-1)
    return ops


# -- registry, set-up and checks --------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int], list[Instance]]
    run_pass: Callable[..., list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("figure1", figure1_corpus, figure1_pass),
        Workload("bound_sweep", bound_sweep_corpus, bound_sweep_pass),
        Workload("verify", verify_corpus, verify_pass),
    )
}


def prepare(corpus: list[Instance]) -> Prepared:
    """Parse every document and expand its tasks, as the CLI does."""
    return [(inst, tailbound.parse_instance(inst.text).tasks()) for inst in corpus]


def load_reference(workload: str) -> dict[str, float | None]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


def reference_rows(ops: list[Op]) -> dict[str, float | None]:
    """Every output of a pass, in the layout of reference.json."""
    rows: dict[str, float | None] = {}
    for op in ops:
        rows.update(op.values)
        rows.update(op.seeded_values)
    return rows


def _close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=0.0)


def check(ops: list[Op], reference: dict, seed: int) -> None:
    """Append to each op's ``problems`` every check it fails."""
    for op in ops:
        compare = not op.seeded or seed == DEFAULT_SEED
        for key, value in op.values.items():
            method = key.split("/")[2]
            if key not in reference:
                op.problems.append(f"{key}: row not in the reference")
                continue
            expected = reference[key]
            if value is None:
                if expected is not None:
                    op.problems.append(f"{key}: skipped, reference has {expected!r}")
                continue
            if not (0.0 <= value <= 1.0):
                op.problems.append(f"{key}: value {value!r} outside [0, 1]")
            if method in LINEAR_CUT_METHODS and op.markov is not None:
                if value > op.markov * (1.0 + MARKOV_SLACK):
                    op.problems.append(f"{key}: {value!r} above markov {op.markov!r}")
            if compare and expected is not None and not _close(value, expected):
                op.problems.append(f"{key}: {value!r} != reference {expected!r}")
        for key, value in op.seeded_values.items():
            if not (0.0 <= value <= 1.0):
                op.problems.append(f"{key}: {value!r} outside [0, 1]")
            if seed == DEFAULT_SEED:
                expected = reference.get(key)
                if expected is None or not _close(value, expected):
                    op.problems.append(f"{key}: {value!r} != reference {expected!r}")
