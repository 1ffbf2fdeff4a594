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

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence, Union

from .bernstein_moments import MomentVector
from .classic_bounds import BoundReport, VarianceClassSpec, require_regime
from .errors import DomainError, ValidationError
from .mixture_bounds import ConditionalMeansSpec, ConditionalProbsSpec, PartitionSpec

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
    instance's sweep axes)."""

    information: str
    n: int
    t: float
    means: tuple[float, ...] | None = None
    sigma2s: tuple[float, ...] | None = None
    moments: tuple[tuple[float, ...], ...] | None = None
    breakpoints: tuple[float, ...] | None = None
    cond_means: tuple[tuple[float, ...], ...] | None = None
    cell_probs: tuple[float, ...] | None = None

    @property
    def sigma2_label(self) -> float | None:
        if self.sigma2s is None:
            return None
        if len(set(self.sigma2s)) == 1:
            return self.sigma2s[0]
        return math.fsum(self.sigma2s) / len(self.sigma2s)


@dataclass(frozen=True)
class InstanceFile:
    """A validated instance document."""

    schema_version: int
    information: str
    n: int
    t_values: tuple[float, ...]
    means: tuple[float, ...] | None = None
    sigma2_values: tuple[float, ...] | None = None
    per_var_sigma2: tuple[float, ...] | None = None
    moments: tuple[tuple[float, ...], ...] | None = None
    breakpoints: tuple[float, ...] | None = None
    cond_means: tuple[tuple[float, ...], ...] | None = None
    cell_probs: tuple[float, ...] | None = None

    def tasks(self) -> list[BoundTask]:
        out = []
        if self.information == "variance":
            if self.per_var_sigma2 is not None:
                sigma2_rows = [self.per_var_sigma2]
            else:
                sigma2_rows = [(s2,) * self.n for s2 in self.sigma2_values]
        else:
            sigma2_rows = [None]
        for sigma2s in sigma2_rows:
            for t in self.t_values:
                out.append(
                    BoundTask(
                        information=self.information,
                        n=self.n,
                        t=t,
                        means=self.means,
                        sigma2s=sigma2s,
                        moments=self.moments,
                        breakpoints=self.breakpoints,
                        cond_means=self.cond_means,
                        cell_probs=self.cell_probs,
                    )
                )
        return out


# -- parsing ---------------------------------------------------------------------


class _Collector:
    def __init__(self) -> None:
        self.violations: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.violations.append(f"{path}: {message}")


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number_list(doc: dict, key: str, errors: _Collector) -> list[float] | None:
    value = doc.get(key)
    if value is None:
        return None
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
    axis = sweep.get("sigma2")
    if axis is None:
        return None
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
        points = int(axis["points"])
        if points < 1:
            errors.add("sweep.sigma2.points", "must be at least 1")
            return None
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
    first failure is recorded under ``shared_key[i]`` and None returned.
    """
    has_shared = shared_key in doc
    has_list = list_key in doc
    if has_shared and has_list:
        errors.add(shared_key, f"give either {shared_key} or {list_key}, not both")
        return None
    if has_shared:
        raw = [doc[shared_key]] * n
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
    return values


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

    means = None
    sigma2_values = None
    per_var_sigma2 = None
    moments = None
    breakpoints = None
    cond_means = None
    cell_probs = None

    if information in ("mean", "variance", "conditional-means", "conditional-probs"):
        if information == "conditional-probs" and "p_list" in doc:
            errors.add("p_list", "conditional-probs instances use a single shared p")
        resolved = _shared_or_per_var(doc, "p", "p_list", n, errors, _probability)
        means = tuple(resolved) if resolved is not None else None

    if information == "moments":
        rows = _shared_or_per_var(doc, "moments", "moments_list", n, errors, _number_row)
        if rows and len({len(r) for r in rows}) != 1:
            errors.add("moments_list", "all variables must share the same moment order")
            rows = None
        if rows:
            for i, row in enumerate(rows):
                try:
                    MomentVector(row)
                except DomainError as exc:
                    errors.add(f"moments[{i}]" if "moments_list" in doc else "moments", str(exc))
                    rows = None
                    break
        moments = tuple(rows) if rows else None

    if information == "variance":
        sources = [k for k in ("sigma2", "sigma2_list") if k in doc]
        if isinstance(sweep, dict) and "sigma2" in sweep:
            sources.append("sweep.sigma2")
        if len(sources) > 1:
            errors.add("sigma2", f"given more than once ({', '.join(sources)})")
        elif sources == ["sweep.sigma2"]:
            axis = _parse_sigma2_axis(sweep, errors)
            sigma2_values = tuple(axis) if axis else None
        elif sources == ["sigma2_list"]:
            values = _number_list(doc, "sigma2_list", errors)
            if values is not None and len(values) != n:
                errors.add("sigma2_list", f"must have exactly n={n} entries")
            elif values is not None:
                per_var_sigma2 = tuple(values)
        elif sources == ["sigma2"]:
            if not _is_number(doc["sigma2"]):
                errors.add("sigma2", "must be a number")
            else:
                sigma2_values = (float(doc["sigma2"]),)
        else:
            errors.add("sigma2", "required (sigma2, sigma2_list, or sweep.sigma2)")
        if means is not None:
            if per_var_sigma2 is not None:
                pairs = [(p, s2, i) for i, (p, s2) in enumerate(zip(means, per_var_sigma2))]
            elif sigma2_values is not None:
                pairs = [
                    (p, s2, i)
                    for i, s2 in enumerate(sigma2_values)
                    for p in set(means)
                ]
            else:
                pairs = []
            for p, s2, i in pairs:
                try:
                    VarianceClassSpec(p, s2)
                except DomainError as exc:
                    errors.add(f"sigma2[{i}]", str(exc))

    if information in ("conditional-means", "conditional-probs"):
        row = _number_list(doc, "breakpoints", errors)
        if row is None:
            if "breakpoints" not in doc:
                errors.add("breakpoints", "required")
        else:
            try:
                breakpoints = PartitionSpec(tuple(row)).breakpoints
            except DomainError as exc:
                errors.add("breakpoints", str(exc))

    if information == "conditional-means" and breakpoints is not None and means is not None:
        m = len(breakpoints) - 1
        rows = _shared_or_per_var(doc, "mu", "mu_list", n, errors, _number_row)
        if rows:
            partition = PartitionSpec(breakpoints)
            for i, row in enumerate(rows):
                if len(row) != m:
                    errors.add(f"mu[{i}]", f"must have one entry per cell (m={m})")
                    rows = None
                    break
                try:
                    ConditionalMeansSpec(partition, row, means[i])
                except DomainError as exc:
                    errors.add(f"mu[{i}]", str(exc))
                    rows = None
                    break
        cond_means = tuple(rows) if rows else None

    if information == "conditional-probs" and breakpoints is not None and means is not None:
        row = _number_list(doc, "q", errors)
        if row is None:
            if "q" not in doc:
                errors.add("q", "required")
        elif len(row) != len(breakpoints) - 1:
            errors.add("q", f"must have one entry per cell (m={len(breakpoints) - 1})")
        else:
            try:
                ConditionalProbsSpec(PartitionSpec(breakpoints), tuple(row), means[0])
                cell_probs = tuple(row)
            except DomainError as exc:
                errors.add("q", str(exc))

    # threshold regime: n*p < t < n for every threshold in the grid
    p_bar = None
    if means is not None:
        p_bar = math.fsum(means) / n
    elif moments is not None:
        p_bar = math.fsum(row[0] for row in moments) / n
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
    return InstanceFile(
        schema_version=SCHEMA_VERSION,
        information=information,
        n=n,
        t_values=tuple(t_values),
        means=means,
        sigma2_values=sigma2_values,
        per_var_sigma2=per_var_sigma2,
        moments=moments,
        breakpoints=breakpoints,
        cond_means=cond_means,
        cell_probs=cell_probs,
    )


# -- serialization -----------------------------------------------------------------


def _fmt(value: Any) -> str:
    """Serialize one CSV field; 12 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _row_fields(row: ResultRow) -> dict[str, Any]:
    if isinstance(row, SkippedMethod):
        return {
            "method": row.method,
            "value": None,
            "witness_h": None,
            "witness_eps": None,
            "witness_s": None,
            "clamped": None,
            "n": row.n,
            "p_or_q1": row.p_or_q1,
            "sigma2": row.sigma2,
            "t": row.t,
        }
    witness = row.witness or {}
    return {
        "method": row.method,
        "value": row.value,
        "witness_h": witness.get("h"),
        "witness_eps": witness.get("epsilon"),
        "witness_s": witness.get("s"),
        "clamped": row.clamped,
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
            lines.append(",".join(_fmt(fields[c]) for c in CSV_COLUMNS))
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
                f"{k}={_fmt(v)}" for k, v in witness.items() if isinstance(v, (int, float))
            )
            rows.append((r.method, _fmt(r.value), "yes" if r.clamped else "", notes))
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


def emit_instance(inst: InstanceFile) -> str:
    """Serialize an instance back to canonical JSON (12 significant digits)."""
    doc: dict[str, Any] = {
        "schema_version": inst.schema_version,
        "information": inst.information,
        "n": inst.n,
    }
    if len(inst.t_values) == 1:
        doc["t"] = _round12(inst.t_values[0])
    else:
        doc.setdefault("sweep", {})["t"] = _round12(list(inst.t_values))
    if inst.means is not None:
        if len(set(inst.means)) == 1:
            doc["p"] = _round12(inst.means[0])
        else:
            doc["p_list"] = _round12(list(inst.means))
    if inst.moments is not None:
        if len(set(inst.moments)) == 1:
            doc["moments"] = _round12(list(inst.moments[0]))
        else:
            doc["moments_list"] = _round12([list(r) for r in inst.moments])
    if inst.per_var_sigma2 is not None:
        doc["sigma2_list"] = _round12(list(inst.per_var_sigma2))
    elif inst.sigma2_values is not None:
        if len(inst.sigma2_values) == 1:
            doc["sigma2"] = _round12(inst.sigma2_values[0])
        else:
            doc.setdefault("sweep", {})["sigma2"] = _round12(list(inst.sigma2_values))
    if inst.breakpoints is not None:
        doc["breakpoints"] = _round12(list(inst.breakpoints))
    if inst.cond_means is not None:
        if len(set(inst.cond_means)) == 1:
            doc["mu"] = _round12(list(inst.cond_means[0]))
        else:
            doc["mu_list"] = _round12([list(r) for r in inst.cond_means])
    if inst.cell_probs is not None:
        doc["q"] = _round12(list(inst.cell_probs))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
