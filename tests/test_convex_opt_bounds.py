"""Bounds from the convex-increasing function family."""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import binom_epp_exact, binom_pmf_exact, binom_tail_exact, mean_specs
from tailbound import (
    DomainError,
    PreconditionError,
    bentkus_linear_bound,
    binomial_comparison_bound,
    hoeffding_bound,
    markov_bound,
    missing_factor_bound,
    missing_factor_threshold,
)

HALF = Fraction(1, 2)


def exact_bentkus(n, p_frac, t):
    """Exhaustive breakpoint search with exact rational arithmetic."""
    best = None
    for j in range(math.ceil(t)):
        value = binom_epp_exact(n, Fraction(j), p_frac) / (Fraction(t) - j)
        if best is None or value <= best:
            best = value
    return best


def test_bentkus_known_minimum():
    report = bentkus_linear_bound(mean_specs(10, 0.5), 6)
    assert report.value == pytest.approx(630 / 1024, rel=1e-12)
    assert report.witness["epsilon"] == 5.0
    assert report.value <= markov_bound(mean_specs(10, 0.5), 6).value
    assert float(exact_bentkus(10, HALF, 6)) == pytest.approx(report.value, rel=1e-12)


def test_bentkus_at_t8_matches_exhaustive_oracle():
    report = bentkus_linear_bound(mean_specs(10, 0.5), 8)
    assert report.value == pytest.approx(float(exact_bentkus(10, HALF, 8)), rel=1e-12)
    assert report.value <= 0.145519 + 1e-6


def test_bentkus_never_worse_than_markov_or_mean_only():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 35))
        p = float(rng.uniform(0.1, 0.9))
        t = float(n * p + (n - n * p) * rng.uniform(0.05, 0.95))
        specs = mean_specs(n, p)
        value = bentkus_linear_bound(specs, t).value
        assert value <= markov_bound(specs, t).value + 1e-12
        assert value <= hoeffding_bound(specs, t).value + 1e-12


def test_bentkus_is_deterministic_with_integer_witness():
    first = bentkus_linear_bound(mean_specs(9, 0.41), 6.3)
    second = bentkus_linear_bound(mean_specs(9, 0.41), 6.3)
    assert first == second
    assert first.witness["epsilon"] in {float(j) for j in range(7)}


def missing_factor_oracle(n, p_frac, t):
    """Direct formula evaluation with exact rational pmf."""
    p = float(p_frac)
    exp_h = t * (1 - p) / (p * (n - t))
    h = math.log(exp_h)
    factor = (1 + h) / exp_h
    hoeffding = (p * (n - t) / (t * (1 - p))) ** t * ((1 - p) * n / (n - t)) ** n
    correction = sum(
        exp_h ** (i - t) * float(binom_pmf_exact(n, i, p_frac)) for i in range(t)
    )
    point = float(binom_pmf_exact(n, t, p_frac))
    return factor * (hoeffding - correction) + (1 - factor) * point


def test_missing_factor_known_value():
    report = missing_factor_bound(mean_specs(10, 0.5), 8)
    oracle = missing_factor_oracle(10, HALF, 8)
    assert report.value == pytest.approx(oracle, rel=1e-9)
    assert report.witness["factor"] == pytest.approx((1 + math.log(4)) / 4, abs=1e-6)
    # sandwich between the exact point tail and the mean-only bound
    assert float(binom_tail_exact(10, 8, HALF)) <= report.value
    assert report.value < 0.145519 + 1e-6


def test_missing_factor_pieces_recombine():
    report = missing_factor_bound(mean_specs(12, 0.4), 9)
    h = report.witness["h"]
    factor = report.witness["factor"]
    assert factor == pytest.approx((1 + h) * math.exp(-h), rel=1e-12)
    hoeffding = hoeffding_bound(mean_specs(12, 0.4), 9).value
    correction = sum(
        math.exp(h * (i - 9)) * float(binom_pmf_exact(12, i, Fraction(2, 5)))
        for i in range(9)
    )
    assert correction >= 0.0
    point = float(binom_pmf_exact(12, 9, Fraction(2, 5)))
    recombined = factor * hoeffding - factor * correction + (1 - factor) * point
    assert report.value == pytest.approx(recombined, rel=1e-10)


def test_missing_factor_threshold_rejection():
    assert missing_factor_threshold(10, 0.5) == pytest.approx(7.310586, abs=1e-6)
    with pytest.raises(PreconditionError) as err:
        missing_factor_bound(mean_specs(10, 0.5), 6)
    assert "7.31" in str(err.value)
    assert "8" in str(err.value)  # smallest admissible integer threshold


def test_missing_factor_requires_integer_threshold():
    with pytest.raises(DomainError) as err:
        missing_factor_bound(mean_specs(10, 0.5), 8.5)
    assert "floor" in str(err.value)


def test_missing_factor_beats_mean_only_bound():
    rng = np.random.default_rng(3)
    found = 0
    while found < 40:
        n = int(rng.integers(4, 40))
        p = float(rng.uniform(0.1, 0.8))
        lo = missing_factor_threshold(n, p)
        candidates = [k for k in range(math.ceil(lo), n)]
        if not candidates:
            continue
        t = int(rng.choice(candidates))
        specs = mean_specs(n, p)
        t = float(t)
        assert missing_factor_bound(specs, t).value < hoeffding_bound(specs, t).value
        found += 1


def test_binomial_comparison_known_values():
    report = binomial_comparison_bound(mean_specs(10, 0.5), 8)
    assert report.value == pytest.approx(float(Fraction(4, 3) * binom_tail_exact(10, 8, HALF)), rel=1e-9)
    assert not report.clamped

    near_mean = binomial_comparison_bound(mean_specs(10, 0.5), 6)
    raw = 3.0 * float(binom_tail_exact(10, 6, HALF))
    assert raw == pytest.approx(1.130859375, rel=1e-12)
    assert near_mean.value == 1.0 and near_mean.clamped


def test_binomial_comparison_requires_integer_threshold():
    with pytest.raises(DomainError):
        binomial_comparison_bound(mean_specs(10, 0.5), 6.5)


def test_comparison_factor_below_two_for_large_thresholds():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(3, 40))
        p = float(rng.uniform(0.1, 0.9))
        lo = 2 * n * p / (1 + p)
        candidates = [k for k in range(1, n) if k > lo]
        if not candidates:
            continue
        t = int(rng.choice(candidates))
        factor = (t - t * p) / (t - n * p)
        assert factor < 2.0


def test_all_three_bounds_dominate_the_binomial_tail():
    # the binomial itself belongs to every class the bounds cover
    for n in range(2, 21):
        p = Fraction((n % 5) + 2, 10)
        inst_ts = [t for t in range(1, n) if t > n * float(p)]
        for t in inst_ts:
            tail = binom_tail_exact(n, t, p)
            specs = mean_specs(n, float(p))
            assert bentkus_linear_bound(specs, float(t)).value >= float(tail) - 1e-10
            assert binomial_comparison_bound(specs, float(t)).value >= float(tail) - 1e-10
            if t >= missing_factor_threshold(n, float(p)):
                assert missing_factor_bound(specs, float(t)).value >= float(tail) - 1e-10


def test_monotone_in_integer_threshold():
    for n in (6, 11, 20):
        for p in (0.25, 0.5, 0.7):
            thresholds = [t for t in range(1, n) if t > n * p]
            for bound in (bentkus_linear_bound, binomial_comparison_bound):
                values = [bound(mean_specs(n, p), float(t)).value for t in thresholds]
                for lo, hi in zip(values, values[1:]):
                    assert hi <= lo + 1e-12
            admissible = [
                t for t in thresholds if t >= missing_factor_threshold(n, p)
            ]
            values = [
                missing_factor_bound(mean_specs(n, p), float(t)).value
                for t in admissible
            ]
            for lo, hi in zip(values, values[1:]):
                assert hi <= lo + 1e-12
