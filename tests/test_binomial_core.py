"""Binomial primitives against an exact rational-arithmetic oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binom_epp_exact, binom_pmf_exact, binom_tail_exact
from tailbound import (
    BinomialSpec,
    DomainError,
    ResourceLimitError,
    binomial_core,
    binomial_dist,
    expected_positive_part,
    feller_point_bound,
    log_pmf,
    upper_tail,
)
from tailbound.distributions import MAX_SUPPORT_POINTS

HALF = Fraction(1, 2)


def test_spec_validation():
    with pytest.raises(DomainError):
        BinomialSpec(0, 0.5)
    with pytest.raises(DomainError):
        BinomialSpec(5, 0.0)
    with pytest.raises(DomainError):
        BinomialSpec(5, 1.0)


def test_log_pmf_known_values():
    spec = BinomialSpec(10, 0.5)
    assert math.exp(log_pmf(spec, 5)) == pytest.approx(
        float(binom_pmf_exact(10, 5, HALF)), rel=1e-12
    )
    assert math.exp(log_pmf(BinomialSpec(1, 0.5), 0)) == pytest.approx(0.5, rel=1e-12)
    assert math.exp(log_pmf(spec, 0)) == pytest.approx(1 / 1024, rel=1e-12)


def test_log_pmf_domain_errors():
    spec = BinomialSpec(10, 0.5)
    with pytest.raises(DomainError):
        log_pmf(spec, -1)
    with pytest.raises(DomainError):
        log_pmf(spec, 11)


def test_upper_tail_known_values():
    spec = BinomialSpec(10, 0.5)
    assert upper_tail(spec, 6) == pytest.approx(386 / 1024, rel=1e-12)
    assert upper_tail(spec, 0) == 1.0
    assert upper_tail(spec, -3) == 1.0
    assert upper_tail(spec, 8) == pytest.approx(56 / 1024, rel=1e-12)
    assert upper_tail(spec, 11) == 0.0


def test_expected_positive_part_known_values():
    spec = BinomialSpec(10, 0.5)
    assert expected_positive_part(spec, 5) == pytest.approx(630 / 1024, rel=1e-12)
    assert expected_positive_part(spec, 0) == pytest.approx(5.0, rel=1e-12)
    assert expected_positive_part(spec, 4) == pytest.approx(1268 / 1024, rel=1e-12)
    # below zero the positive part is the full expectation shifted
    assert expected_positive_part(spec, -2.5) == pytest.approx(7.5, rel=1e-12)


@pytest.mark.parametrize("n", [3000, 10000])
@pytest.mark.parametrize("p", [0.01, 0.3, 0.99])
def test_binomial_dist_large_n_has_unit_mass(n, p):
    # log-gamma rounding leaves the raw pmf about 1e-12 short of one here
    dist = binomial_dist(BinomialSpec(n, p))
    assert dist.n_points == n + 1
    assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-14)
    assert dist.mean() == pytest.approx(n * p, rel=1e-12)


def test_binomial_dist_refuses_a_support_over_the_limit(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(binomial_core, "log_pmf", reached)
    n = MAX_SUPPORT_POINTS + 1
    with pytest.raises(ResourceLimitError, match=f"{n + 1} points"):
        binomial_dist(BinomialSpec(n, 0.3))
    # n = MAX_SUPPORT_POINTS passes the check and goes on to the pmf
    with pytest.raises(Reached):
        binomial_dist(BinomialSpec(MAX_SUPPORT_POINTS, 0.3))


def test_feller_point_bound_known_values():
    spec = BinomialSpec(10, 0.5)
    assert feller_point_bound(spec, 8) == pytest.approx(60 / 1024, rel=1e-12)
    assert feller_point_bound(spec, 10) == pytest.approx(1 / 1024, rel=1e-12)
    with pytest.raises(DomainError):
        feller_point_bound(spec, 5)  # i == n*p violates the strict precondition


@settings(max_examples=60)
@given(
    n=st.integers(1, 60),
    p=st.floats(0.01, 0.99),
    k=st.integers(-1, 61),
)
def test_tail_minus_next_tail_is_pmf(n, p, k):
    spec = BinomialSpec(n, p)
    diff = upper_tail(spec, k) - upper_tail(spec, k + 1)
    pmf = math.exp(log_pmf(spec, k)) if 0 <= k <= n else 0.0
    assert diff == pytest.approx(pmf, abs=1e-12)


def test_epp_is_convex_and_nonincreasing():
    spec = BinomialSpec(14, 0.37)
    grid = [(-2.0 + 0.5 * i) for i in range(36)]
    values = [expected_positive_part(spec, a) for a in grid]
    for lo, hi in zip(values, values[1:]):
        assert hi <= lo + 1e-12
    for left, mid, right in zip(values, values[1:], values[2:]):
        assert left + right - 2 * mid >= -1e-10


def test_feller_dominates_tail_exact_rational():
    for n in range(2, 21):
        for p in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
            for i in range(n + 1):
                if i <= n * p:
                    continue
                factor = (i - i * p) / (i - n * p)
                point = factor * binom_pmf_exact(n, i, p)
                assert point >= binom_tail_exact(n, i, p)
                # the float routine agrees with the exact value
                value = feller_point_bound(BinomialSpec(n, float(p)), i)
                assert value == pytest.approx(float(point), rel=1e-12)


def test_all_operations_match_exact_oracle_up_to_n20():
    for n in range(1, 21):
        p = Fraction(n % 7 + 1, 9)
        spec = BinomialSpec(n, float(p))
        for k in range(n + 1):
            assert math.exp(log_pmf(spec, k)) == pytest.approx(
                float(binom_pmf_exact(n, k, p)), rel=1e-12
            )
            assert upper_tail(spec, k) == pytest.approx(
                float(binom_tail_exact(n, k, p)), rel=1e-12
            )
        for a in (Fraction(0), Fraction(n, 3), Fraction(2 * n, 3), Fraction(n - 1)):
            expected = binom_epp_exact(n, a, p)
            if expected > 0:
                assert expected_positive_part(spec, float(a)) == pytest.approx(
                    float(expected), rel=1e-12
                )
