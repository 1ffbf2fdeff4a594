"""Every violation `parse_instance` can report, one malformed document per
site, with the whole violations tuple pinned; and a mutation fuzz over
valid documents of every level."""

import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbound import InstanceFile, ValidationError, parse_instance

MEAN = {"schema_version": 1, "information": "mean", "n": 3, "p": 0.3, "t": 2}
MOMENTS = {"schema_version": 1, "information": "moments", "n": 3, "moments": [0.3, 0.15], "t": 2}
VARIANCE = {"schema_version": 1, "information": "variance", "n": 3, "p": 0.3, "sigma2": 0.1, "t": 2}
_CELLS = {"schema_version": 1, "n": 3, "p": 0.3, "breakpoints": [0, 0.4, 1], "t": 2}
COND_MEANS = {"information": "conditional-means", "mu": [0.1, 0.7], **_CELLS}
COND_PROBS = {"information": "conditional-probs", "q": [0.5, 0.5], **_CELLS}
_DROP = object()


def _doc(base, **changes):
    """``base`` with each keyword set, or removed when given ``_DROP``; a
    ``sweep__x`` keyword sets ``sweep.x``."""
    doc = json.loads(json.dumps(base))
    for key, value in changes.items():
        if key.startswith("sweep__"):
            doc.setdefault("sweep", {})[key[len("sweep__"):]] = value
        elif value is _DROP:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


#: (id, document text, the violations parse_instance reports)
CASES = [
    # the document as a whole
    ("not-json", "{not json", (
        'document: not valid JSON (Expecting property name enclosed in double quotes at line 1)',
    )),
    ("top-level-not-object", "[1, 2]", (
        'document: top level must be an object',
    )),
    ("schema-version", _doc(MEAN, schema_version=2), (
        'schema_version: must be 1, got 2',
    )),
    ("unknown-information", _doc(MEAN, information="median"), (
        "information: must be one of mean, moments, variance, conditional-means, conditional-probs, got 'median'",
    )),
    ("n-not-positive", _doc(MEAN, n=0), (
        'n: must be a positive integer, got 0',
    )),
    ("n-beyond-index-range", _doc(MEAN, n=sys.maxsize + 1), (
        f'n: must be at most {sys.maxsize}, got {sys.maxsize + 1}',
    )),
    ("integer-beyond-digit-limit", '{"n": 1' + '0' * 5000 + '}', (
        'document: not valid JSON (Exceeds the limit (4300 digits) for integer string conversion: '
        'value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit)',
    )),
    ("sweep-not-object", _doc(MEAN, sweep=[2]), (
        'sweep: must be an object',
    )),
    # thresholds
    ("t-and-sweep-t", _doc(MEAN, sweep__t=[2]), (
        't: given more than once (t, sweep.t)',
    )),
    ("sweep-t-empty", _doc(MEAN, t=_DROP, sweep__t=[]), (
        'sweep.t: must be an array of one or more numbers',
    )),
    ("t-missing", _doc(MEAN, t=_DROP), (
        't: required (t or sweep.t)',
    )),
    ("t-not-number", _doc(MEAN, t="2"), (
        't: must be a number',
    )),
    ("t-below-mean", _doc(MEAN, t=0.5), (
        't: t must exceed n*p = 0.8999999999999999 and lie below n = 3, got 0.5',
    )),
    ("sweep-t-below-mean", _doc(MEAN, t=_DROP, sweep__t=[2, 0.5]), (
        'sweep.t[1]: t must exceed n*p = 0.8999999999999999 and lie below n = 3, got 0.5',
    )),
    ("t-not-below-n-without-mean", _doc(MOMENTS, moments=[0.3, 0.5], t=5), (
        'moments: moment sequence must be nonincreasing: mu_2=0.5 > mu_1=0.3',
        't: t must be below n = 3, got 5.0',
    )),
    # p and p_list
    ("p-not-number", _doc(MEAN, p="0.3"), (
        'p[0]: must be a number',
    )),
    ("p-out-of-range", _doc(MEAN, p=1.5), (
        'p[0]: must lie in (0, 1), got 1.5',
    )),
    ("p-list-entry-out-of-range", _doc(MEAN, p=_DROP, p_list=[0.3, 0, 0.3]), (
        'p[1]: must lie in (0, 1), got 0.0',
    )),
    ("p-and-p-list", _doc(MEAN, p_list=[0.3, 0.3, 0.3]), (
        'p: given more than once (p, p_list)',
    )),
    ("p-list-wrong-length", _doc(MEAN, p=_DROP, p_list=[0.3]), (
        'p_list: must be an array of exactly n=3 entries',
    )),
    ("p-list-not-array", _doc(MEAN, p=_DROP, p_list=0.3), (
        'p_list: must be an array of exactly n=3 entries',
    )),
    ("p-missing", _doc(MEAN, p=_DROP), (
        'p: required (p or p_list)',
    )),
    ("p-list-in-conditional-probs", _doc(COND_PROBS, p=_DROP, p_list=[0.3, 0.3, 0.3]), (
        'p_list: conditional-probs instances use a single shared p',
    )),
    # moments and moments_list
    ("moments-not-array", _doc(MOMENTS, moments="0.3"), (
        'moments[0]: must be an array of one or more numbers',
    )),
    ("moments-list-entry-empty", _doc(MOMENTS, moments=_DROP, moments_list=[[0.3], [], [0.3]]), (
        'moments[1]: must be an array of one or more numbers',
    )),
    ("moments-and-moments-list", _doc(MOMENTS, moments_list=[[0.3]] * 3), (
        'moments: given more than once (moments, moments_list)',
    )),
    ("moments-missing", _doc(MOMENTS, moments=_DROP), (
        'moments: required (moments or moments_list)',
    )),
    ("moments-mixed-orders", _doc(MOMENTS, moments=_DROP, moments_list=[[0.3, 0.15], [0.3], [0.3, 0.15]]), (
        'moments_list: all variables must share the same moment order',
    )),
    ("moments-increasing", _doc(MOMENTS, moments=[0.3, 0.5]), (
        'moments: moment sequence must be nonincreasing: mu_2=0.5 > mu_1=0.3',
    )),
    ("moments-list-increasing", _doc(MOMENTS, moments=_DROP, moments_list=[[0.3], [0.3], [0]]), (
        'moments[2]: mu_1 must lie in (0, 1)',
    )),
    # sigma2, sigma2_list and sweep.sigma2
    ("sigma2-and-sigma2-list", _doc(VARIANCE, sigma2_list=[0.1] * 3), (
        'sigma2: given more than once (sigma2, sigma2_list)',
    )),
    ("sigma2-and-sweep-sigma2", _doc(VARIANCE, sweep__sigma2=[0.1]), (
        'sigma2: given more than once (sigma2, sweep.sigma2)',
    )),
    ("sigma2-missing", _doc(VARIANCE, sigma2=_DROP), (
        'sigma2: required (sigma2 or sigma2_list or sweep.sigma2)',
    )),
    ("sigma2-not-number", _doc(VARIANCE, sigma2="0.1"), (
        'sigma2: must be a number',
    )),
    ("sigma2-above-cap", _doc(VARIANCE, sigma2=0.5), (
        'sigma2[0]: sigma2 must satisfy 0 < sigma2 <= p(1-p) = 0.21, got 0.5',
    )),
    ("sigma2-list-not-array", _doc(VARIANCE, sigma2=_DROP, sigma2_list={"0": 0.1}), (
        'sigma2_list: must be an array of one or more numbers',
    )),
    ("sigma2-list-empty", _doc(VARIANCE, sigma2=_DROP, sigma2_list=[]), (
        'sigma2_list: must be an array of one or more numbers',
    )),
    ("sigma2-list-wrong-length", _doc(VARIANCE, sigma2=_DROP, sigma2_list=[0.1, 0.1]), (
        'sigma2_list: must be an array of exactly n=3 entries',
    )),
    ("sigma2-list-entry-above-cap", _doc(VARIANCE, sigma2=_DROP, sigma2_list=[0.1, 0.5, 0.1]), (
        'sigma2[1]: sigma2 must satisfy 0 < sigma2 <= p(1-p) = 0.21, got 0.5',
    )),
    ("sigma2-list-two-entries-above-cap", _doc(VARIANCE, sigma2=_DROP, sigma2_list=[0.1, 0.5, 0.9]), (
        'sigma2[1]: sigma2 must satisfy 0 < sigma2 <= p(1-p) = 0.21, got 0.5',
    )),
    ("sweep-sigma2-empty", _doc(VARIANCE, sigma2=_DROP, sweep__sigma2=[]), (
        'sweep.sigma2: must be an array of one or more numbers',
    )),
    ("sweep-sigma2-not-array", _doc(VARIANCE, sigma2=_DROP, sweep__sigma2="0.1"), (
        'sweep.sigma2: must be an array or a {start, stop, points} object',
    )),
    ("sweep-sigma2-grid-incomplete", _doc(VARIANCE, sigma2=_DROP, sweep__sigma2={"start": 0.01, "stop": 0.2}), (
        'sweep.sigma2: grid form needs numeric start, stop, points',
    )),
    ("sweep-sigma2-grid-points", _doc(VARIANCE, sigma2=_DROP, sweep__sigma2={"start": 0.01, "stop": 0.2, "points": 0}), (
        'sweep.sigma2.points: must be a positive integer',
    )),
    ("sweep-sigma2-point-above-cap", _doc(VARIANCE, sigma2=_DROP, sweep__sigma2=[0.1, 0.5, 0.1]), (
        'sigma2[1]: sigma2 must satisfy 0 < sigma2 <= p(1-p) = 0.21, got 0.5',
    )),
    # breakpoints
    ("breakpoints-missing", _doc(COND_MEANS, breakpoints=_DROP), (
        'breakpoints: required',
    )),
    ("breakpoints-not-array", _doc(COND_MEANS, breakpoints="0, 0.4, 1"), (
        'breakpoints: must be an array of one or more numbers',
    )),
    ("breakpoints-empty", _doc(COND_MEANS, breakpoints=[]), (
        'breakpoints: must be an array of one or more numbers',
    )),
    ("breakpoints-one-cell", _doc(COND_MEANS, breakpoints=[0, 1]), (
        'breakpoints: a partition needs at least two cells (three breakpoints)',
    )),
    # mu and mu_list
    ("mu-missing", _doc(COND_MEANS, mu=_DROP), (
        'mu: required (mu or mu_list)',
    )),
    ("mu-wrong-length", _doc(COND_MEANS, mu=[0.1, 0.5, 0.7]), (
        'mu[0]: one conditional mean per cell is required (m=2)',
    )),
    ("mu-outside-cell", _doc(COND_MEANS, mu=[0.5, 0.7]), (
        'mu[0]: conditional mean mu_1=0.5 lies outside cell 1',
    )),
    ("mu-list-entry-wrong-length", _doc(COND_MEANS, mu=_DROP, mu_list=[[0.1, 0.7], [0.1], [0.1, 0.7]]), (
        'mu[1]: one conditional mean per cell is required (m=2)',
    )),
    # q
    ("q-missing", _doc(COND_PROBS, q=_DROP), (
        'q: required',
    )),
    ("q-not-array", _doc(COND_PROBS, q=None), (
        'q: must be an array of one or more numbers',
    )),
    ("q-empty", _doc(COND_PROBS, q=[]), (
        'q: must be an array of one or more numbers',
    )),
    ("q-wrong-length", _doc(COND_PROBS, q=[1.0]), (
        'q: one cell probability per cell is required (m=2)',
    )),
    ("q-not-summing-to-one", _doc(COND_PROBS, q=[0.6, 0.6]), (
        'q: cell probabilities sum to 1.2, not 1',
    )),
]


@pytest.mark.parametrize("text, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_violation_is_reported(text, expected):
    with pytest.raises(ValidationError) as err:
        parse_instance(text)
    assert err.value.violations == expected


#: valid documents of every level, with shared, per-variable and swept forms
FUZZ_BASES = [
    MEAN,
    MOMENTS,
    VARIANCE,
    COND_MEANS,
    COND_PROBS,
    {**MEAN, "p": None, "p_list": [0.2, 0.3, 0.25]},
    {**MOMENTS, "moments": None, "moments_list": [[0.3, 0.15], [0.25, 0.1], [0.3, 0.15]]},
    {**VARIANCE, "sigma2": None, "sigma2_list": [0.1, 0.15, 0.2]},
    {**VARIANCE, "sigma2": None, "t": None, "sweep": {"t": [1.5, 2.5], "sigma2": [0.05, 0.2]}},
    {**VARIANCE, "sigma2": None, "sweep": {"sigma2": {"start": 0.01, "stop": 0.2, "points": 4}}},
    {**COND_MEANS, "mu": None, "mu_list": [[0.1, 0.7], [0.2, 0.6], [0.1, 0.7]]},
    {**COND_PROBS, "p": 0.4, "breakpoints": [0, 0.25, 0.5, 1], "q": [0.2, 0.3, 0.5]},
]
FUZZ_BASES = [{k: v for k, v in base.items() if v is not None} for base in FUZZ_BASES]
FUZZ_FIELDS = sorted({key for base in FUZZ_BASES for key in base} | {"sweep.t", "sweep.sigma2"})
WRONG_LENGTH = object()
FUZZ_VALUES = [None, True, "0.3", math.nan, math.inf, -math.inf, 10**400, [], {}, WRONG_LENGTH, _DROP]


def _mutated(base, field, value):
    doc = json.loads(json.dumps(base))
    target, key = (doc, field)
    if field.startswith("sweep."):
        if not isinstance(doc.get("sweep"), dict):
            doc["sweep"] = {}
        target, key = doc["sweep"], field[len("sweep."):]
    if value is _DROP:
        target.pop(key, None)
    elif value is WRONG_LENGTH:
        old = target.get(key)
        target[key] = old + old[-1:] if isinstance(old, list) and old else [0.5] * 4
    else:
        target[key] = value
    return doc


@settings(max_examples=400)
@given(
    st.sampled_from(FUZZ_BASES),
    st.lists(
        st.tuples(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES)),
        min_size=1,
        max_size=3,
        unique_by=lambda mutation: mutation[0],
    ),
)
def test_mutated_document_parses_or_is_rejected(base, mutations):
    doc = base
    for field, value in mutations:
        doc = _mutated(doc, field, value)
    _assert_parses_or_is_rejected(doc)


def test_every_single_mutation_parses_or_is_rejected():
    # the exhaustive one-field slice of the fuzz above: a huge n, say, must
    # meet a document that is valid in every other field
    for base in FUZZ_BASES:
        for field in FUZZ_FIELDS:
            for value in FUZZ_VALUES:
                _assert_parses_or_is_rejected(_mutated(base, field, value))


def _assert_parses_or_is_rejected(doc):
    try:
        parsed = parse_instance(json.dumps(doc))
    except ValidationError as err:
        assert err.violations
    else:
        assert isinstance(parsed, InstanceFile)


def test_fuzz_bases_are_valid():
    for base in FUZZ_BASES:
        assert isinstance(parse_instance(json.dumps(base)), InstanceFile)
