"""Span tracing from outside the library.

``traced(recorder)`` rebinds each layer's public function to a wrapper,
in its defining module and in every ``tailbound`` module that imported it
by name (``bernstein_moments.convolve``, ``cli.z_nm_bound``, ...), and
restores every binding on exit.  Each wrapper records one span: name,
start, end, parent span and op id.  Spans stay in memory in flat arrays
until the run ends.

The linear cut has no public function (it is inlined four times), so it
is measured through its per-candidate primitives, whose call count is the
number of candidates scanned.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

import tailbound


def _count_tasks(rec, args, result):
    rec.counts["instance_io.InstanceFile.tasks.tasks"] += len(result)


def _count_emit(rec, args, result):
    rec.counts["instance_io.emit_results.rows"] += len(args[0])


def _count_compute(rec, args, result):
    rec.counts["cli.compute_bounds.rows"] += len(result)
    rec.counts["cli.compute_bounds.skipped"] += sum(
        isinstance(r, tailbound.SkippedMethod) for r in result
    )


def _count_convolve(rec, args, result):
    rec.counts["distributions.convolve.in_points"] += sum(d.n_points for d in args[0])
    rec.counts["distributions.convolve.out_points"] += result.n_points
    key = "distributions.convolve.max_out_points"
    rec.counts[key] = max(rec.counts[key], result.n_points)


def _count_validate(rec, args, result):
    rec.counts["order_oracle.validate_bound.trials"] += result.trials
    rec.counts["order_oracle.validate_bound.violations"] += len(result.violations)


#: (module, attribute path, span name, counter) for every traced layer
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    # parse/validation, task expansion, serialization, dispatch
    ("instance_io", "parse_instance", "instance_io.parse_instance", None),
    ("instance_io", "InstanceFile.tasks", "instance_io.InstanceFile.tasks", _count_tasks),
    ("instance_io", "emit_results", "instance_io.emit_results", _count_emit),
    ("cli", "compute_bounds", "cli.compute_bounds", _count_compute),
    # envelope construction
    ("bernstein_moments", "bernstein_weights", "bernstein_moments.bernstein_weights", None),
    ("bernstein_moments", "t_nm_distribution", "bernstein_moments.t_nm_distribution", None),
    ("mixture_bounds", "xi_distribution", "mixture_bounds.xi_distribution", None),
    # exact convolution
    ("distributions", "convolve", "distributions.convolve", _count_convolve),
    # linear-cut search, through its per-candidate primitives
    (
        "distributions",
        "DiscreteDist.expected_positive_part",
        "distributions.DiscreteDist.expected_positive_part",
        None,
    ),
    ("binomial_core", "expected_positive_part", "binomial_core.expected_positive_part", None),
    # exponential-rate search (metric names may not start with "_")
    ("_search", "minimize_exp_tail", "search.minimize_exp_tail", None),
    # binomial tails
    ("binomial_core", "upper_tail", "binomial_core.upper_tail", None),
    # the 13 methods
    ("classic_bounds", "markov_bound", "classic_bounds.markov_bound", None),
    ("classic_bounds", "hoeffding_bound", "classic_bounds.hoeffding_bound", None),
    ("classic_bounds", "hoeffding_exp_bound", "classic_bounds.hoeffding_exp_bound", None),
    ("classic_bounds", "bennett_bound", "classic_bounds.bennett_bound", None),
    ("convex_opt_bounds", "bentkus_linear_bound", "convex_opt_bounds.bentkus_linear_bound", None),
    ("convex_opt_bounds", "missing_factor_bound", "convex_opt_bounds.missing_factor_bound", None),
    (
        "convex_opt_bounds",
        "binomial_comparison_bound",
        "convex_opt_bounds.binomial_comparison_bound",
        None,
    ),
    ("bernstein_moments", "exp_moment_bound", "bernstein_moments.exp_moment_bound", None),
    ("bernstein_moments", "z_nm_bound", "bernstein_moments.z_nm_bound", None),
    ("bernstein_moments", "refined_binomial_bound", "bernstein_moments.refined_binomial_bound", None),
    ("mixture_bounds", "xi_sum_bound", "mixture_bounds.xi_sum_bound", None),
    ("mixture_bounds", "conditional_means_bound", "mixture_bounds.conditional_means_bound", None),
    ("mixture_bounds", "conditional_probs_bound", "mixture_bounds.conditional_probs_bound", None),
    # member sampling, exact tail, oracle
    ("order_oracle", "sample_class_member", "order_oracle.sample_class_member", None),
    ("distributions", "DiscreteDist.upper_tail", "distributions.DiscreteDist.upper_tail", None),
    ("order_oracle", "validate_bound", "order_oracle.validate_bound", _count_validate),
)

SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS)
#: extra counters, all reported even when zero
COUNT_NAMES = (
    "instance_io.InstanceFile.tasks.tasks",
    "instance_io.emit_results.rows",
    "cli.compute_bounds.rows",
    "cli.compute_bounds.skipped",
    "distributions.convolve.in_points",
    "distributions.convolve.out_points",
    "distributions.convolve.max_out_points",
    "order_oracle.sample_class_member.exhausted",
    "order_oracle.validate_bound.trials",
    "order_oracle.validate_bound.violations",
)


class Recorder:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counts: Counter = Counter()

    def mark(self, op_index: int) -> None:
        """Tag later spans with an op id (-1: outside any op)."""
        self.current_op = op_index

    def intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.start)


def _wrap(fn: Callable, name_id: int, rec: Recorder, counter: Callable | None) -> Callable:
    exhausted = rec.names[name_id] == "order_oracle.sample_class_member"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(rec.start)
        rec.name_of.append(name_id)
        rec.parent.append(rec.stack[-1])
        rec.op.append(rec.current_op)
        rec.end.append(0.0)
        rec.stack.append(idx)
        rec.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except tailbound.SamplingExhaustedError:
            if exhausted:
                rec.counts["order_oracle.sample_class_member.exhausted"] += 1
            raise
        finally:
            rec.end[idx] = time.perf_counter()
            rec.stack.pop()
        if counter is not None:
            counter(rec, args, result)
        return result

    return wrapper


def _library_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "tailbound" or name.startswith("tailbound.")
    ]


@contextmanager
def traced(rec: Recorder) -> Iterator[list[tuple[object, str, object]]]:
    """Install every wrapper; yields the (owner, attribute, original) list
    and restores each binding on exit, also after an exception."""
    patched: list[tuple[object, str, object]] = []
    try:
        for module_name, path, name, counter in TARGETS:
            module = importlib.import_module(f"tailbound.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            wrapper_id = rec.intern(name)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, _wrap(original, wrapper_id, rec, counter))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(original, wrapper_id, rec, counter)
            for mod in _library_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield patched
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """calls, busy_s and self_s per span name, plus the extra counters.

    Self time is a span's duration minus the time its direct children
    cover; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(rec)
    for idx in range(len(rec)):
        parent = rec.parent[idx]
        if parent >= 0:
            child[parent] += rec.end[idx] - rec.start[idx]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for idx in range(len(rec)):
        name = rec.names[rec.name_of[idx]]
        duration = rec.end[idx] - rec.start[idx]
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += duration
        out[f"{name}.self_s"] += duration - child[idx]
    for name in COUNT_NAMES:
        out[name] = rec.counts[name]
    return out


def root_busy(rec: Recorder, since: float) -> float:
    """Seconds covered by top-level spans that started at or after ``since``."""
    return sum(
        rec.end[i] - rec.start[i]
        for i in range(len(rec))
        if rec.parent[i] < 0 and rec.start[i] >= since
    )


def write_spans(rec: Recorder, path, origin: float) -> None:
    """All spans as CSV, times in seconds from ``origin``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("id,parent,op,name,start_s,end_s\n")
        for i in range(len(rec)):
            handle.write(
                f"{i},{rec.parent[i]},{rec.op[i]},{rec.names[rec.name_of[i]]},"
                f"{rec.start[i] - origin:.9f},{rec.end[i] - origin:.9f}\n"
            )
