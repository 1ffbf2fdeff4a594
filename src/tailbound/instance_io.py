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
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence, Union

from .bernstein_moments import MomentVector
from .classic_bounds import BoundReport, VarianceClassSpec, require_regime
from .errors import DomainError, ValidationError
from .mixture_bounds import ConditionalMeansSpec, ConditionalProbsSpec, PartitionSpec
from .order_oracle import ClassSpec

SCHEMA_VERSION = 1
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


def _number(value: Any) -> float:
    if not _is_number(value):
        raise DomainError("must be a number")
    return float(value)


def _probability(value: Any) -> float:
    p = _number(value)
    if not 0.0 < p < 1.0:
        raise DomainError(f"must lie in (0, 1), got {p!r}")
    return p


def _number_row(value: Any) -> tuple[float, ...]:
    if not isinstance(value, list) or not value or not all(_is_number(v) for v in value):
        raise DomainError("must be an array of one or more numbers")
    return tuple(float(v) for v in value)


def _n_entries(row: Sequence, n: int) -> Sequence:
    if not isinstance(row, (list, tuple)) or len(row) != n:
        raise DomainError(f"must be an array of exactly n={n} entries")
    return row


def _checked(errors: _Collector, path: str, convert: Callable, *args: Any) -> Any:
    """``convert(*args)``, or None once its DomainError is recorded under
    ``path``."""
    try:
        return convert(*args)
    except DomainError as exc:
        errors.add(path, str(exc))
        return None


def _one_of(doc: dict, sweep: dict, errors: _Collector, *paths: str) -> tuple[str, Any] | None:
    """The path and value of the one of ``paths`` the document gives (a
    ``sweep.`` path names a key of the sweep object).  Giving none of them,
    or more than one, is a single violation under the first path."""
    given = {}
    for path in paths:
        source, key = (sweep, path[len("sweep."):]) if path.startswith("sweep.") else (doc, path)
        if key in source:
            given[path] = source[key]
    if len(given) == 1:
        return next(iter(given.items()))
    if given:
        errors.add(paths[0], f"given more than once ({', '.join(given)})")
    else:
        errors.add(paths[0], "required" + (f" ({' or '.join(paths)})" if len(paths) > 1 else ""))
    return None


def _per_variable(
    doc: dict, sweep: dict, errors: _Collector, n: int, entry: Callable, shared: str, listed: str
) -> list | None:
    """n values of a parameter given once as ``shared`` or per variable as
    ``listed``.  ``entry`` converts one raw value (a shared one once); its
    first failure is recorded under ``shared[i]``."""
    found = _one_of(doc, sweep, errors, shared, listed)
    if found is None:
        return None
    path, raw = found
    if path == shared:
        value = _checked(errors, f"{shared}[0]", entry, raw)
        return None if value is None else [value] * n
    if _checked(errors, listed, _n_entries, raw, n) is None:
        return None
    values = []
    for i, value in enumerate(raw):
        value = _checked(errors, f"{shared}[{i}]", entry, value)
        if value is None:
            return None
        values.append(value)
    return values


def _spec_row(errors: _Collector, label: str, spec: Callable, *columns: Sequence) -> tuple | None:
    """One class spec per variable, ``spec`` applied to the variable's entry
    in each column and called once per distinct argument tuple.  The first
    failure is recorded under ``label`` formatted with the variable's index,
    and None returned."""
    built: dict[tuple, Any] = {}
    for i, args in enumerate(zip(*columns)):
        if args not in built:
            built[args] = _checked(errors, label.format(i), spec, *args)
            if built[args] is None:
                return None
    return tuple(built[args] for args in zip(*columns))


def _thresholds(doc: dict, sweep: dict, errors: _Collector) -> list[tuple[str, float]]:
    """Each threshold with the path its violations are reported under."""
    found = _one_of(doc, sweep, errors, "t", "sweep.t")
    if found is None:
        return []
    path, raw = found
    if path == "t":
        t = _checked(errors, path, _number, raw)
        return [] if t is None else [(path, t)]
    ts = _checked(errors, path, _number_row, raw) or ()
    return [(f"{path}[{i}]", t) for i, t in enumerate(ts)]


def _sigma2_axis(axis: Any, errors: _Collector) -> tuple[float, ...] | None:
    if isinstance(axis, list):
        return _checked(errors, "sweep.sigma2", _number_row, axis)
    if not isinstance(axis, dict):
        errors.add("sweep.sigma2", "must be an array or a {start, stop, points} object")
        return None
    start, stop, points = (axis.get(key) for key in ("start", "stop", "points"))
    if not all(map(_is_number, (start, stop, points))):
        errors.add("sweep.sigma2", "grid form needs numeric start, stop, points")
        return None
    if not float(points).is_integer() or points < 1:
        errors.add("sweep.sigma2.points", "must be a positive integer")
        return None
    if points == 1:
        return (float(stop),)
    step = (float(stop) - float(start)) / (int(points) - 1)
    return tuple(float(start) + k * step for k in range(int(points)))


def _partition(doc: dict, sweep: dict, errors: _Collector) -> PartitionSpec | None:
    found = _one_of(doc, sweep, errors, "breakpoints")
    return found and _checked(errors, found[0], lambda v: PartitionSpec(_number_row(v)), found[1])


# Each level's spec rows from the document and the validated means (None for
# the moments level, or when p is invalid), or None once a violation is
# recorded: a variance row per sigma2 sweep point, a single row otherwise.


def _mean_rows(doc, sweep, errors, n, means):
    row = means and _spec_row(errors, "p[{}]", lambda p: MomentVector((p,)), means)
    return row and [row]


def _moment_rows(doc, sweep, errors, n, means):
    moments = _per_variable(doc, sweep, errors, n, _number_row, "moments", "moments_list")
    if moments and len(set(map(len, moments))) > 1:
        errors.add("moments_list", "all variables must share the same moment order")
        return None
    label = "moments[{}]" if "moments_list" in doc else "moments"
    row = moments and _spec_row(errors, label, MomentVector, moments)
    return row and [row]


def _variance_rows(doc, sweep, errors, n, means):
    found = _one_of(doc, sweep, errors, "sigma2", "sigma2_list", "sweep.sigma2")
    if found is None:
        return None
    path, raw = found
    if path == "sigma2_list":
        per_var = _checked(errors, path, lambda v: _n_entries(_number_row(v), n), raw)
        if not means or per_var is None:
            return None
        rows = [_spec_row(errors, "sigma2[{}]", VarianceClassSpec, means, per_var)]
    else:
        # a row per sweep point, each variable sharing its sigma2
        if path == "sweep.sigma2":
            shared = _sigma2_axis(raw, errors)
        else:
            shared = _checked(errors, path, lambda v: (_number(v),), raw)
        if not means or not shared:
            return None
        rows = [
            _spec_row(errors, f"sigma2[{k}]", VarianceClassSpec, means, [s2] * n)
            for k, s2 in enumerate(shared)
        ]
    return None if None in rows else rows


def _cond_means_rows(doc, sweep, errors, n, means):
    partition = _partition(doc, sweep, errors)
    if partition is None or means is None:
        return None
    mus = _per_variable(doc, sweep, errors, n, _number_row, "mu", "mu_list")
    row = mus and _spec_row(errors, "mu[{}]", ConditionalMeansSpec, [partition] * n, mus, means)
    return row and [row]


def _cond_probs_rows(doc, sweep, errors, n, means):
    partition = _partition(doc, sweep, errors)
    if partition is None or means is None:
        return None
    found = _one_of(doc, sweep, errors, "q")
    q = found and _checked(errors, found[0], _number_row, found[1])
    # the class carries one shared p
    row = q and _spec_row(
        errors, "q", ConditionalProbsSpec, [partition] * n, [q] * n, [means[0]] * n
    )
    return row and [row]


_LEVEL_ROWS = {
    "mean": _mean_rows,
    "moments": _moment_rows,
    "variance": _variance_rows,
    "conditional-means": _cond_means_rows,
    "conditional-probs": _cond_probs_rows,
}
INFORMATION_LEVELS = tuple(_LEVEL_ROWS)


def parse_instance(text: str) -> InstanceFile:
    """Parse and validate an instance document.

    Raises :class:`ValidationError` carrying every violation found.
    """
    errors = _Collector()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"document: not valid JSON ({exc.msg} at line {exc.lineno})"])
    except ValueError as exc:  # an integer literal past the int-conversion digit limit
        raise ValidationError([f"document: not valid JSON ({exc})"])
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

    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        errors.add("n", f"must be a positive integer, got {n!r}")
        raise ValidationError(errors.violations)
    if n > sys.maxsize:
        errors.add("n", f"must be at most {sys.maxsize}, got {n!r}")
        raise ValidationError(errors.violations)

    sweep = doc.get("sweep", {})
    if not isinstance(sweep, dict):
        errors.add("sweep", "must be an object")
        sweep = {}
    thresholds = _thresholds(doc, sweep, errors)

    means = None
    if information != "moments":
        if information == "conditional-probs" and "p_list" in doc:
            errors.add("p_list", "conditional-probs instances use a single shared p")
        means = _per_variable(doc, sweep, errors, n, _probability, "p", "p_list")
    spec_rows = _LEVEL_ROWS[information](doc, sweep, errors, n, means)

    # threshold regime: n*p < t < n for every threshold in the grid
    if means is None and spec_rows is not None:
        means = [spec.mean for spec in spec_rows[0]]
    p_bar = None if means is None else math.fsum(means) / n
    for path, t in thresholds:
        if p_bar is not None:
            _checked(errors, path, require_regime, n, p_bar, t)
        elif not t < n:
            errors.add(path, f"t must be below n = {n}, got {t!r}")

    if errors.violations:
        raise ValidationError(errors.violations)
    return InstanceFile(information, tuple(t for _, t in thresholds), tuple(spec_rows))


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
