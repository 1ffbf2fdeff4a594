"""Instance-file schema, parsing, and result serialization.

Instances are JSON documents with a top-level ``schema_version``.  The
``information`` tag selects which parameter blocks must be present;
validation re-checks every cross-field constraint on load and reports all
violations at once rather than stopping at the first.

Results serialize to CSV (comma separator, ``.`` decimal point, LF line
endings, mandatory header) or an aligned table sorted by value.  Every
numeric field is written with 12 significant digits.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence, Union

from .bernstein_moments import MomentVector
from .classic_bounds import BoundReport, VarianceClassSpec, require_regime
from .errors import DomainError, ValidationError
from .mixture_bounds import ConditionalMeansSpec, ConditionalProbsSpec, PartitionSpec
from .order_oracle import ClassSpec

SCHEMA_VERSION = 1
INFORMATION_LEVELS = (
    "mean",
    "moments",
    "variance",
    "conditional-means",
    "conditional-probs",
)

CSV_COLUMNS = (
    "method",
    "value",
    "witness_h",
    "witness_eps",
    "witness_s",
    "clamped",
    "n",
    "p_or_q1",
    "sigma2",
    "t",
)


@dataclass(frozen=True)
class SkippedMethod:
    """A method that did not apply to an instance, with the reason."""

    method: str
    reason: str
    n: int | None = None
    p_or_q1: float | None = None
    sigma2: float | None = None
    t: float | None = None


ResultRow = Union[BoundReport, SkippedMethod]


@dataclass(frozen=True)
class BoundTask:
    """One fully resolved computation input (a single grid point of an
    instance's sweep axes): a threshold and the class spec of each
    variable."""

    information: str
    t: float
    specs: tuple[ClassSpec, ...]

    @property
    def n(self) -> int:
        return len(self.specs)

    @property
    def means(self) -> tuple[float, ...]:
        return tuple(spec.mean for spec in self.specs)

    @property
    def sigma2s(self) -> tuple[float, ...] | None:
        if self.information != "variance":
            return None
        return tuple(spec.sigma2 for spec in self.specs)

    @property
    def sigma2_label(self) -> float | None:
        sigma2s = self.sigma2s
        if sigma2s is None:
            return None
        if len(set(sigma2s)) == 1:
            return sigma2s[0]
        return math.fsum(sigma2s) / len(sigma2s)


@dataclass(frozen=True)
class InstanceFile:
    """A validated instance document: its thresholds and the class specs of
    its variables, one row per sigma2 sweep point (a single row for every
    other level)."""

    information: str
    t_values: tuple[float, ...]
    spec_rows: tuple[tuple[ClassSpec, ...], ...]

    @property
    def n(self) -> int:
        return len(self.spec_rows[0])

    def tasks(self) -> list[BoundTask]:
        return [
            BoundTask(self.information, t, row)
            for row in self.spec_rows
            for t in self.t_values
        ]


# -- parsing ---------------------------------------------------------------------


class _Collector:
    def __init__(self) -> None:
        self.violations: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.violations.append(f"{path}: {message}")


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _number_list(doc: dict, key: str, errors: _Collector) -> list[float] | None:
    if key not in doc:
        return None
    value = doc[key]
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        errors.add(key, "must be an array of numbers")
        return None
    return [float(v) for v in value]


def _parse_t_values(doc: dict, sweep: dict, errors: _Collector) -> list[float]:
    has_t = "t" in doc
    has_sweep_t = "t" in sweep
    if has_t and has_sweep_t:
        errors.add("t", "given both at top level and as a sweep axis")
        return []
    if has_sweep_t:
        values = sweep["t"]
        if not isinstance(values, list) or not values or not all(_is_number(v) for v in values):
            errors.add("sweep.t", "must be a nonempty array of numbers")
            return []
        return [float(v) for v in values]
    if not has_t:
        errors.add("t", "required (either top-level or sweep.t)")
        return []
    if not _is_number(doc["t"]):
        errors.add("t", "must be a number")
        return []
    return [float(doc["t"])]


def _parse_sigma2_axis(sweep: dict, errors: _Collector) -> list[float] | None:
    axis = sweep["sigma2"]
    if isinstance(axis, list):
        if not axis or not all(_is_number(v) for v in axis):
            errors.add("sweep.sigma2", "must be a nonempty array of numbers")
            return None
        return [float(v) for v in axis]
    if isinstance(axis, dict):
        missing = {"start", "stop", "points"} - set(axis)
        if missing or not all(_is_number(axis[k]) for k in ("start", "stop", "points")):
            errors.add("sweep.sigma2", "grid form needs numeric start, stop, points")
            return None
        points = axis["points"]
        if not float(points).is_integer() or points < 1:
            errors.add("sweep.sigma2.points", "must be a positive integer")
            return None
        points = int(points)
        start, stop = float(axis["start"]), float(axis["stop"])
        if points == 1:
            return [stop]
        step = (stop - start) / (points - 1)
        return [start + k * step for k in range(points)]
    errors.add("sweep.sigma2", "must be an array or a {start, stop, points} object")
    return None


def _probability(value: Any) -> float:
    if not _is_number(value):
        raise DomainError("must be a number")
    if not 0.0 < value < 1.0:
        raise DomainError(f"must lie in (0, 1), got {float(value)!r}")
    return float(value)


def _number_row(value: Any) -> tuple[float, ...]:
    if not isinstance(value, list) or not value or not all(_is_number(v) for v in value):
        raise DomainError("must be a nonempty array of numbers")
    return tuple(float(v) for v in value)


def _shared_or_per_var(
    doc: dict,
    shared_key: str,
    list_key: str,
    n: int,
    errors: _Collector,
    entry: Callable[[Any], Any],
) -> list | None:
    """Resolve a parameter given either once or per variable into n values.

    ``entry`` converts one variable's raw value or raises DomainError; the
    first failure is recorded under ``shared_key[i]`` and None returned.  A
    shared value is converted once and repeated.
    """
    has_shared = shared_key in doc
    has_list = list_key in doc
    if has_shared and has_list:
        errors.add(shared_key, f"give either {shared_key} or {list_key}, not both")
        return None
    if has_shared:
        raw = [doc[shared_key]]
    elif has_list:
        raw = doc[list_key]
        if not isinstance(raw, list) or len(raw) != n:
            errors.add(list_key, f"must be an array of exactly n={n} entries")
            return None
    else:
        errors.add(shared_key, f"required ({shared_key} or {list_key})")
        return None
    values = []
    for i, value in enumerate(raw):
        try:
            values.append(entry(value))
        except DomainError as exc:
            errors.add(f"{shared_key}[{i}]", str(exc))
            return None
    return values if has_list else values * n


def parse_instance(text: str) -> InstanceFile:
    """Parse and validate an instance document.

    Raises :class:`ValidationError` carrying every violation found.
    """
    errors = _Collector()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"document: not valid JSON ({exc.msg} at line {exc.lineno})"])
    if not isinstance(doc, dict):
        raise ValidationError(["document: top level must be an object"])

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.add("schema_version", f"must be {SCHEMA_VERSION}, got {version!r}")

    information = doc.get("information")
    if information not in INFORMATION_LEVELS:
        errors.add(
            "information", f"must be one of {', '.join(INFORMATION_LEVELS)}, got {information!r}"
        )
        raise ValidationError(errors.violations)

    n_raw = doc.get("n")
    if not isinstance(n_raw, int) or isinstance(n_raw, bool) or n_raw < 1:
        errors.add("n", f"must be a positive integer, got {n_raw!r}")
        raise ValidationError(errors.violations)
    n = n_raw

    sweep = doc.get("sweep", {})
    if not isinstance(sweep, dict):
        errors.add("sweep", "must be an object")
        sweep = {}
    t_values = _parse_t_values(doc, sweep, errors)

    # each spec is built once per distinct value and shared by every
    # variable that has it
    means = None
    spec_rows = None

    if information in ("mean", "variance", "conditional-means", "conditional-probs"):
        if information == "conditional-probs" and "p_list" in doc:
            errors.add("p_list", "conditional-probs instances use a single shared p")
        means = _shared_or_per_var(doc, "p", "p_list", n, errors, _probability)

    if information == "mean" and means is not None:
        mean_spec = functools.cache(MomentVector)
        spec_rows = [tuple(mean_spec((p,)) for p in means)]

    if information == "moments":
        rows = _shared_or_per_var(doc, "moments", "moments_list", n, errors, _number_row)
        if rows and len({len(r) for r in rows}) != 1:
            errors.add("moments_list", "all variables must share the same moment order")
            rows = None
        if rows:
            moment_spec = functools.cache(MomentVector)
            specs = []
            for i, row in enumerate(rows):
                try:
                    specs.append(moment_spec(row))
                except DomainError as exc:
                    errors.add(f"moments[{i}]" if "moments_list" in doc else "moments", str(exc))
                    break
            else:
                spec_rows = [tuple(specs)]

    if information == "variance":
        sigma2_values: list[float] = []
        per_var_sigma2 = None
        sources = [k for k in ("sigma2", "sigma2_list") if k in doc]
        if isinstance(sweep, dict) and "sigma2" in sweep:
            sources.append("sweep.sigma2")
        if len(sources) > 1:
            errors.add("sigma2", f"given more than once ({', '.join(sources)})")
        elif sources == ["sweep.sigma2"]:
            sigma2_values = _parse_sigma2_axis(sweep, errors) or []
        elif sources == ["sigma2_list"]:
            values = _number_list(doc, "sigma2_list", errors)
            if values is not None and len(values) != n:
                errors.add("sigma2_list", f"must have exactly n={n} entries")
            elif values is not None:
                per_var_sigma2 = values
        elif sources == ["sigma2"]:
            if not _is_number(doc["sigma2"]):
                errors.add("sigma2", "must be a number")
            else:
                sigma2_values = [float(doc["sigma2"])]
        else:
            errors.add("sigma2", "required (sigma2, sigma2_list, or sweep.sigma2)")
        if means is not None:
            variance_spec = functools.cache(VarianceClassSpec)
            if per_var_sigma2 is not None:
                sigma2_rows = [per_var_sigma2]
                pairs = [(p, s2, i) for i, (p, s2) in enumerate(zip(means, per_var_sigma2))]
            else:
                sigma2_rows = [[s2] * n for s2 in sigma2_values]
                pairs = [
                    (p, s2, i)
                    for i, s2 in enumerate(sigma2_values)
                    for p in set(means)
                ]
            failed = False
            for p, s2, i in pairs:
                try:
                    variance_spec(p, s2)
                except DomainError as exc:
                    errors.add(f"sigma2[{i}]", str(exc))
                    failed = True
            if sigma2_rows and not failed:
                spec_rows = [tuple(map(variance_spec, means, row)) for row in sigma2_rows]

    partition = None
    if information in ("conditional-means", "conditional-probs"):
        row = _number_list(doc, "breakpoints", errors)
        if row is None:
            if "breakpoints" not in doc:
                errors.add("breakpoints", "required")
        else:
            try:
                partition = PartitionSpec(tuple(row))
            except DomainError as exc:
                errors.add("breakpoints", str(exc))

    if information == "conditional-means" and partition is not None and means is not None:
        m = partition.n_cells
        rows = _shared_or_per_var(doc, "mu", "mu_list", n, errors, _number_row)
        if rows:
            cond_means_spec = functools.cache(ConditionalMeansSpec)
            specs = []
            for i, row in enumerate(rows):
                if len(row) != m:
                    errors.add(f"mu[{i}]", f"must have one entry per cell (m={m})")
                    break
                try:
                    specs.append(cond_means_spec(partition, row, means[i]))
                except DomainError as exc:
                    errors.add(f"mu[{i}]", str(exc))
                    break
            else:
                spec_rows = [tuple(specs)]

    if information == "conditional-probs" and partition is not None and means is not None:
        row = _number_list(doc, "q", errors)
        if row is None:
            if "q" not in doc:
                errors.add("q", "required")
        elif len(row) != partition.n_cells:
            errors.add("q", f"must have one entry per cell (m={partition.n_cells})")
        else:
            try:
                spec_rows = [(ConditionalProbsSpec(partition, tuple(row), means[0]),) * n]
            except DomainError as exc:
                errors.add("q", str(exc))

    # threshold regime: n*p < t < n for every threshold in the grid
    p_bar = None
    if means is not None:
        p_bar = math.fsum(means) / n
    elif spec_rows is not None:
        p_bar = math.fsum(spec.mean for spec in spec_rows[0]) / n
    for i, t in enumerate(t_values):
        label = "t" if len(t_values) == 1 and "t" in doc else f"sweep.t[{i}]"
        if p_bar is None:
            if not t < n:
                errors.add(label, f"t must be below n = {n}, got {t!r}")
            continue
        try:
            require_regime(n, p_bar, t)
        except DomainError as exc:
            errors.add(label, str(exc))

    if errors.violations:
        raise ValidationError(errors.violations)
    return InstanceFile(information, tuple(t_values), tuple(spec_rows))


# -- serialization -----------------------------------------------------------------


def format_field(value: Any) -> str:
    """Serialize one CSV field; 12 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _row_fields(row: ResultRow) -> dict[str, Any]:
    computed = isinstance(row, BoundReport)
    witness = (row.witness or {}) if computed else {}
    return {
        "method": row.method,
        "value": row.value if computed else None,
        "witness_h": witness.get("h"),
        "witness_eps": witness.get("epsilon"),
        "witness_s": witness.get("s"),
        "clamped": row.clamped if computed else None,
        "n": row.n,
        "p_or_q1": row.p_or_q1,
        "sigma2": row.sigma2,
        "t": row.t,
    }


def _sort_key(row: ResultRow):
    sigma2 = row.sigma2 if row.sigma2 is not None else -math.inf
    return (sigma2, row.method)


def emit_results(reports: Sequence[ResultRow], format: str = "csv") -> str:
    """Serialize result rows.

    CSV rows are stably ordered by (sigma2, method); the table format
    aligns columns and sorts computed rows by value ascending, with
    skipped methods listed last.
    """
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in sorted(reports, key=_sort_key):
            fields = _row_fields(row)
            lines.append(",".join(format_field(fields[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    if format == "table":
        computed = sorted(
            (r for r in reports if isinstance(r, BoundReport)), key=lambda r: r.value
        )
        skipped = [r for r in reports if isinstance(r, SkippedMethod)]
        rows = [("method", "value", "clamped", "notes")]
        for r in computed:
            witness = r.witness or {}
            notes = " ".join(
                f"{k}={format_field(v)}" for k, v in witness.items() if isinstance(v, (int, float))
            )
            rows.append((r.method, format_field(r.value), "yes" if r.clamped else "", notes))
        for r in skipped:
            rows.append((r.method, "skipped", "", r.reason))
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown format {format!r} (expected csv or table)")


def _round12(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _shared_or_list(doc: dict[str, Any], key: str, values: Sequence[Any]) -> None:
    """Write a per-variable value once as ``key`` when every variable
    shares it, else as ``<key>_list``."""
    if len(set(values)) == 1:
        doc[key] = _round12(values[0])
    else:
        doc[f"{key}_list"] = _round12(list(values))


def emit_instance(inst: InstanceFile) -> str:
    """Serialize an instance back to canonical JSON (12 significant digits)."""
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "information": inst.information,
        "n": inst.n,
    }
    if len(inst.t_values) == 1:
        doc["t"] = _round12(inst.t_values[0])
    else:
        doc.setdefault("sweep", {})["t"] = _round12(list(inst.t_values))
    row = inst.spec_rows[0]
    if inst.information == "moments":
        _shared_or_list(doc, "moments", [spec.mu for spec in row])
    else:
        _shared_or_list(doc, "p", [spec.mean for spec in row])
    if inst.information == "variance":
        if len(inst.spec_rows) > 1:
            sweep = [specs[0].sigma2 for specs in inst.spec_rows]
            doc.setdefault("sweep", {})["sigma2"] = _round12(sweep)
        else:
            _shared_or_list(doc, "sigma2", [spec.sigma2 for spec in row])
    if inst.information in ("conditional-means", "conditional-probs"):
        doc["breakpoints"] = _round12(list(row[0].partition.breakpoints))
    if inst.information == "conditional-means":
        _shared_or_list(doc, "mu", [spec.mu for spec in row])
    if inst.information == "conditional-probs":
        doc["q"] = _round12(list(row[0].q))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
