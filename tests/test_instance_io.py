"""Instance parsing, validation-error collection, and result serialization."""

import json
import math
from pathlib import Path

import pytest

from tailbound import (
    BoundReport,
    ConditionalMeansSpec,
    ConditionalProbsSpec,
    MomentVector,
    SkippedMethod,
    ValidationError,
    VarianceClassSpec,
    emit_instance,
    emit_results,
    hoeffding_bound,
    instance_io,
    parse_instance,
    xi_sum_bound,
)
from tailbound.cli import class_specs_for_task, compute_bounds

GOLDEN = Path(__file__).resolve().parent / "golden"
#: the class spec every variable of a task has, per information level
LEVEL_SPEC = {
    "mean": MomentVector,
    "moments": MomentVector,
    "variance": VarianceClassSpec,
    "conditional-means": ConditionalMeansSpec,
    "conditional-probs": ConditionalProbsSpec,
}

MEAN_INSTANCE = json.dumps(
    {"schema_version": 1, "information": "mean", "n": 10, "p": 0.5, "t": 8}
)


def test_minimal_mean_instance():
    inst = parse_instance(MEAN_INSTANCE)
    assert inst.n == 10
    assert inst.t_values == (8.0,)
    tasks = inst.tasks()
    assert len(tasks) == 1 and tasks[0].t == 8.0
    assert tasks[0].means == (0.5,) * 10
    assert tasks[0].specs == (MomentVector((0.5,)),) * 10


def test_threshold_must_exceed_mean():
    doc = json.dumps(
        {"schema_version": 1, "information": "mean", "n": 10, "p": 0.5, "t": 5}
    )
    with pytest.raises(ValidationError) as err:
        parse_instance(doc)
    assert any("t must exceed n*p" in v for v in err.value.violations)


def test_moment_monotonicity_checked_on_load():
    doc = json.dumps(
        {
            "schema_version": 1,
            "information": "moments",
            "n": 10,
            "moments": [0.5, 0.55],
            "t": 8,
        }
    )
    with pytest.raises(ValidationError) as err:
        parse_instance(doc)
    assert any("nonincreasing" in v for v in err.value.violations)


def test_all_violations_reported_together():
    doc = json.dumps(
        {"schema_version": 2, "information": "mean", "n": 10, "p": 1.5, "t": 20}
    )
    with pytest.raises(ValidationError) as err:
        parse_instance(doc)
    joined = "\n".join(err.value.violations)
    assert "schema_version" in joined
    assert "p[0]" in joined
    # t cannot be checked without a valid p, so two violations minimum
    assert len(err.value.violations) >= 2


def test_invalid_json_is_a_validation_error():
    with pytest.raises(ValidationError) as err:
        parse_instance("{not json")
    assert "not valid JSON" in err.value.violations[0]


def test_unknown_information_level():
    doc = json.dumps({"schema_version": 1, "information": "median", "n": 3, "t": 2})
    with pytest.raises(ValidationError):
        parse_instance(doc)


def test_variance_sweep_parses_to_tasks():
    doc = json.dumps(
        {
            "schema_version": 1,
            "information": "variance",
            "n": 20,
            "p": 0.5,
            "t": 12,
            "sweep": {"sigma2": [0.05, 0.15, 0.25]},
        }
    )
    inst = parse_instance(doc)
    assert [row[0].sigma2 for row in inst.spec_rows] == [0.05, 0.15, 0.25]
    tasks = inst.tasks()
    assert [task.sigma2_label for task in tasks] == [0.05, 0.15, 0.25]
    assert all(task.t == 12.0 for task in tasks)
    for task, row in zip(tasks, inst.spec_rows):
        assert task.specs is row
        assert set(task.specs) == {VarianceClassSpec(0.5, task.sigma2_label)}
        assert task.n == 20 and task.sigma2s == (task.sigma2_label,) * 20


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_tasks_carry_level_specs(name):
    inst = parse_instance((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    tasks = inst.tasks()
    assert len(tasks) == len(inst.spec_rows) * len(inst.t_values)
    for task in tasks:
        assert task.information == inst.information
        assert len(task.specs) == inst.n
        assert all(type(spec) is LEVEL_SPEC[task.information] for spec in task.specs)
        assert class_specs_for_task(task) is task.specs
        assert task.means == tuple(spec.mean for spec in task.specs)
        # compute_bounds labels every row, computed or skipped, with the task
        context = (task.n, math.fsum(task.means) / task.n, task.sigma2_label, task.t)
        for row in compute_bounds(task):
            assert (row.n, row.p_or_q1, row.sigma2, row.t) == context, row.method
        # the bound functions themselves return no context
        direct = [hoeffding_bound(task.specs, task.t)]
        if task.information == "variance":
            direct.append(xi_sum_bound(task.specs, task.t))
        for report in direct:
            assert (report.n, report.p_or_q1, report.sigma2, report.t) == (None,) * 4


def test_conditional_instances_validated():
    doc = json.dumps(
        {
            "schema_version": 1,
            "information": "conditional-means",
            "n": 4,
            "p": 0.5,
            "breakpoints": [0.0, 0.25, 0.75, 1.0],
            "mu": [0.2, 0.5, 0.8],
            "t": 3,
        }
    )
    (task,) = parse_instance(doc).tasks()
    assert [spec.mu for spec in task.specs] == [(0.2, 0.5, 0.8)] * 4
    assert task.means == (0.5,) * 4

    bad = json.dumps(
        {
            "schema_version": 1,
            "information": "conditional-probs",
            "n": 4,
            "p": 0.8,
            "breakpoints": [0.0, 0.2, 1.0],
            "q": [0.9, 0.1],
            "t": 3.5,
        }
    )
    with pytest.raises(ValidationError) as err:
        parse_instance(bad)
    assert any("unreachable" in v for v in err.value.violations)


def test_null_arrays_are_violations():
    docs = [
        ("sigma2_list", {"information": "variance", "n": 3, "p": 0.2, "sigma2_list": None}),
        ("sweep.sigma2", {"information": "variance", "n": 3, "p": 0.2, "sweep": {"sigma2": None}}),
        (
            "breakpoints",
            {"information": "conditional-means", "n": 3, "p": 0.3, "breakpoints": None, "mu": [0.1, 0.7]},
        ),
        (
            "q",
            {"information": "conditional-probs", "n": 3, "p": 0.3, "breakpoints": [0, 0.4, 1], "q": None},
        ),
    ]
    for path, doc in docs:
        with pytest.raises(ValidationError) as err:
            parse_instance(json.dumps({"schema_version": 1, "t": 2, **doc}))
        assert any(v.startswith(f"{path}: must be an array") for v in err.value.violations), path


_MEAN_DOC = {"information": "mean", "n": 5, "p": 0.3, "t": 3}
_COND_DOC = {"n": 3, "p": 0.3, "breakpoints": [0, 0.4, 1], "t": 2}
_COND_MEANS_DOC = {"information": "conditional-means", "mu": [0.1, 0.7], **_COND_DOC}
#: key -> (a valid document, the index the bad value replaces or None for
#: the whole value, the path of the expected violation)
_NUMBER_SLOTS = {
    "p": (_MEAN_DOC, None, "p[0]"),
    "t": (_MEAN_DOC, None, "t"),
    "moments": ({"information": "moments", "n": 5, "moments": [0.3, 0.15], "t": 3}, 1, "moments[0]"),
    "sigma2": ({"information": "variance", "n": 5, "p": 0.3, "sigma2": 0.1, "t": 3}, None, "sigma2"),
    "mu": (_COND_MEANS_DOC, 1, "mu[0]"),
    "breakpoints": (_COND_MEANS_DOC, 1, "breakpoints"),
    "q": ({"information": "conditional-probs", "q": [0.5, 0.5], **_COND_DOC}, 0, "q"),
}


@pytest.mark.parametrize("key", sorted(_NUMBER_SLOTS))
@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"]
)
def test_non_finite_numbers_are_violations(key, bad):
    # json.loads accepts NaN, Infinity and -Infinity, and integers beyond the float range
    doc, index, path = _NUMBER_SLOTS[key]
    doc = json.loads(json.dumps({"schema_version": 1, **doc}))
    if index is None:
        doc[key] = bad
    else:
        doc[key][index] = bad
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    (violation,) = err.value.violations
    assert violation.startswith(f"{path}: must be ") and "number" in violation


def report(method, value, sigma2=None, **kw):
    return BoundReport(method=method, value=value, sigma2=sigma2, **kw)


def test_shared_value_validated_once(monkeypatch):
    calls = []
    probability = instance_io._probability

    def counting(value):
        calls.append(value)
        return probability(value)

    monkeypatch.setattr(instance_io, "_probability", counting)
    doc = {"schema_version": 1, "information": "mean", "n": 1000, "p": 0.3, "t": 400}
    (task,) = parse_instance(json.dumps(doc)).tasks()
    assert calls == [0.3]
    assert task.means == (0.3,) * 1000
    doc["p"] = 1.5
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.violations == ("p[0]: must lie in (0, 1), got 1.5",)


@pytest.mark.parametrize("points", [2.9, 0.5, 0, -3])
def test_sigma2_grid_points_must_be_positive_integer(points):
    doc = {
        "schema_version": 1,
        "information": "variance",
        "n": 20,
        "p": 0.5,
        "t": 12,
        "sweep": {"sigma2": {"start": 0.05, "stop": 0.2, "points": points}},
    }
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.violations == ("sweep.sigma2.points: must be a positive integer",)


def test_emit_single_row():
    text = emit_results([report("markov", 0.5, n=10, p_or_q1=0.5, t=8.0)])
    lines = text.splitlines()
    assert lines[0] == "method,value,witness_h,witness_eps,witness_s,clamped,n,p_or_q1,sigma2,t"
    assert lines[1] == "markov,0.5,,,,false,10,0.5,,8"
    assert text.endswith("\n") and "\r" not in text


def test_emit_empty_list_is_header_only():
    assert emit_results([]).splitlines() == [
        "method,value,witness_h,witness_eps,witness_s,clamped,n,p_or_q1,sigma2,t"
    ]


def test_emit_sweep_ordering():
    rows = []
    for sigma2 in (0.25, 0.05, 0.15):
        for method in ("xi_sum", "bennett"):
            rows.append(report(method, 0.5, sigma2=sigma2, n=20, t=12.0))
    lines = emit_results(rows).splitlines()[1:]
    assert len(lines) == 6
    keys = [(float(line.split(",")[8]), line.split(",")[0]) for line in lines]
    assert keys == sorted(keys)


def test_emit_skipped_rows_have_empty_value():
    rows = [
        report("markov", 0.625, n=10, p_or_q1=0.5, t=8.0),
        SkippedMethod("missing_factor", "threshold unmet", n=10, p_or_q1=0.5, t=6.0),
    ]
    lines = emit_results(rows).splitlines()[1:]
    skipped = [line for line in lines if line.startswith("missing_factor")]
    assert skipped == ["missing_factor,,,,,,10,0.5,,6"]


def test_emit_table_sorts_by_value():
    rows = [
        report("markov", 0.625, n=10, p_or_q1=0.5, t=8.0),
        report("hoeffding", 0.145519, n=10, p_or_q1=0.5, t=8.0),
        SkippedMethod("missing_factor", "threshold unmet", n=10, t=6.0),
    ]
    text = emit_results(rows, "table")
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["method", "value"]
    assert lines[1].startswith("hoeffding")
    assert lines[2].startswith("markov")
    assert "skipped" in lines[3]


def test_twelve_significant_digits_round_trip():
    value = 0.1234567890123456789
    row = emit_results([report("markov", value, n=3, p_or_q1=0.4, t=2.0)]).splitlines()[1]
    rendered = row.split(",")[1]
    assert rendered == "0.123456789012"
    assert float(rendered) == float(f"{value:.12g}")


def test_instance_round_trip_is_idempotent():
    fixtures = [
        MEAN_INSTANCE,
        json.dumps(
            {
                "schema_version": 1,
                "information": "moments",
                "n": 5,
                "moments": [0.512345678901234, 0.33333333333333331],
                "t": 4,
            }
        ),
        json.dumps(
            {
                "schema_version": 1,
                "information": "variance",
                "n": 20,
                "p": 0.5,
                "t": 12,
                "sweep": {"sigma2": {"start": 0.01, "stop": 0.25, "points": 5}},
            }
        ),
        json.dumps(
            {
                "schema_version": 1,
                "information": "conditional-probs",
                "n": 4,
                "p": 0.5,
                "breakpoints": [0.0, 0.4, 1.0],
                "q": [0.5, 0.5],
                "t": 3,
            }
        ),
    ]
    for fixture in fixtures:
        first = parse_instance(fixture)
        text1 = emit_instance(first)
        second = parse_instance(text1)
        text2 = emit_instance(second)
        assert text1 == text2
        assert second.t_values == first.t_values
