"""Mean-only and mean-plus-variance bounds."""

import math

import numpy as np
import pytest

from helpers import mean_specs
from tailbound import (
    DomainError,
    MomentVector,
    VarianceClassSpec,
    bennett_bound,
    hoeffding_bound,
    hoeffding_exp_bound,
    markov_bound,
)
from tailbound.classic_bounds import mean_regime


def grid_min_exp_bound(n, p, t, points=10**6, h_max=10.0):
    """Independent oracle: brute-force the exponential bound over an h-grid."""
    h = np.linspace(h_max / points, h_max, points)
    log_obj = -h * t + n * np.log1p(p * np.expm1(h))
    return float(np.exp(log_obj.min()))


def random_instances(seed, count, n_max=40):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, n_max))
        p = float(rng.uniform(0.1, 0.9))
        t = float(n * p + (n - n * p) * rng.uniform(0.1, 0.75))
        # keep the optimal rate well inside the oracle's h-grid
        if math.log(t * (1 - p) / (p * (n - t))) < 8.0:
            out.append((n, p, t))
    return out


def test_markov_examples():
    assert markov_bound(mean_specs(4, 0.5), 4.0).value == 0.5
    exactly_one = markov_bound(mean_specs(10, 0.5), 5.0)
    assert exactly_one.value == 1.0 and not exactly_one.clamped
    clipped = markov_bound(mean_specs(12, 0.5), 5.0)
    assert clipped.value == 1.0 and clipped.clamped
    with pytest.raises(DomainError):
        markov_bound(mean_specs(4, 0.5), 0.0)


def test_mean_regime_validation():
    with pytest.raises(DomainError):
        mean_regime(mean_specs(10, 0.5), 5.0)  # t == n*p
    with pytest.raises(DomainError):
        mean_regime(mean_specs(10, 0.5), 10.0)  # t == n
    with pytest.raises(DomainError):
        mean_specs(10, 1.2)
    with pytest.raises(DomainError):
        mean_regime((), 1.0)
    n, p_bar = mean_regime([MomentVector((m,)) for m in (0.4, 0.6, 0.5)], 2.0)
    assert n == 3 and p_bar == pytest.approx(0.5)


def test_hoeffding_known_values():
    assert hoeffding_bound(mean_specs(10, 0.5), 6).value == pytest.approx(
        0.817622, abs=1e-6
    )
    assert hoeffding_bound(mean_specs(10, 0.5), 8).value == pytest.approx(
        0.145519, abs=1e-6
    )


def test_hoeffding_witness_is_the_optimal_rate():
    h = hoeffding_bound(mean_specs(10, 0.5), 8).witness["h"]
    assert math.exp(h) == pytest.approx(8 * 0.5 / (0.5 * 2), rel=1e-12)


def test_hoeffding_limit_toward_n():
    n, p = 7, 0.35
    value = hoeffding_bound(mean_specs(n, p), n - 1e-6).value
    assert value == pytest.approx(p**n, abs=1e-4)


def test_hoeffding_matches_grid_minimization():
    for n, p, t in random_instances(seed=20260810, count=50):
        oracle = grid_min_exp_bound(n, p, t)
        assert hoeffding_bound(mean_specs(n, p), t).value == pytest.approx(oracle, rel=1e-9)


def test_no_sampled_submultiplicative_function_beats_it_at_integer_t():
    # V(f) = ((1-p) f(0) + p f(1))^n / f(t) over f in {e^{hx}, e^{hx}(1+cx)}
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(3, 25))
        p = float(rng.uniform(0.15, 0.85))
        candidates = [k for k in range(1, n) if k > n * p]
        if not candidates:
            continue
        t = int(rng.choice(candidates))
        best = hoeffding_bound(mean_specs(n, p), float(t)).value
        for _ in range(50):
            h = float(rng.uniform(0.01, 6.0))
            c = float(rng.uniform(0.01, 6.0))
            plain = ((1 - p) + p * math.exp(h)) ** n / math.exp(h * t)
            tilted = ((1 - p) + p * math.exp(h) * (1 + c)) ** n / (
                math.exp(h * t) * (1 + c * t)
            )
            assert plain >= best - 1e-12
            assert tilted >= best - 1e-12


def test_exp_form_is_looser():
    for n, p, t in ((10, 0.5, 6), (10, 0.5, 8)):
        specs = mean_specs(n, p)
        tight = hoeffding_bound(specs, t).value
        loose = hoeffding_exp_bound(specs, t).value
        assert loose == pytest.approx(math.exp(-2 * n * (t / n - p) ** 2), rel=1e-12)
        assert tight <= loose
    assert hoeffding_exp_bound(mean_specs(10, 0.5), 6).value == pytest.approx(
        math.exp(-0.2), rel=1e-12
    )
    assert hoeffding_exp_bound(mean_specs(10, 0.5), 5 + 1e-9).value == pytest.approx(
        1.0, abs=1e-9
    )


def test_exp_form_is_looser_on_random_instances():
    for n, p, t in random_instances(seed=99, count=50):
        specs = mean_specs(n, p)
        assert hoeffding_bound(specs, t).value <= hoeffding_exp_bound(specs, t).value + 1e-15


def test_variance_spec_validation():
    with pytest.raises(DomainError):
        VarianceClassSpec(0.5, 0.0)
    with pytest.raises(DomainError):
        VarianceClassSpec(0.5, 0.26)
    VarianceClassSpec(0.5, 0.25)


def test_bennett_equals_mean_only_bound_at_full_variance():
    value = bennett_bound(10, VarianceClassSpec(0.5, 0.25), 6).value
    assert value == pytest.approx(0.817622, abs=1e-6)
    witness = bennett_bound(10, VarianceClassSpec(0.5, 0.25), 6).witness
    assert witness["alpha"] == pytest.approx(0.5, rel=1e-12)
    assert witness["beta"] == pytest.approx(0.6, rel=1e-12)


def test_bennett_tightens_with_small_variance():
    small = bennett_bound(10, VarianceClassSpec(0.5, 0.01), 6).value
    assert small < 0.817622


def test_bennett_identity_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        p = float(rng.uniform(0.1, 0.9))
        t = float(n * p + (n - n * p) * rng.uniform(0.05, 0.9))
        identity = bennett_bound(n, VarianceClassSpec(p, p * (1 - p)), t).value
        assert identity == pytest.approx(hoeffding_bound(mean_specs(n, p), t).value, rel=1e-9)


def test_bennett_never_exceeds_mean_only_bound():
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(2, 40))
        p = float(rng.uniform(0.1, 0.9))
        s2 = float(rng.uniform(0.02, 1.0)) * p * (1 - p)
        t = float(n * p + (n - n * p) * rng.uniform(0.05, 0.9))
        bennett = bennett_bound(n, VarianceClassSpec(p, s2), t).value
        hoeffding = hoeffding_bound(mean_specs(n, p), t).value
        assert bennett <= hoeffding + 1e-12


def test_reports_stay_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        p = float(rng.uniform(0.1, 0.9))
        t = float(n * p + (n - n * p) * rng.uniform(0.02, 0.98))
        specs = mean_specs(n, p)
        for report in (
            hoeffding_bound(specs, t),
            hoeffding_exp_bound(specs, t),
            markov_bound(specs, t),
        ):
            assert 0.0 <= report.value <= 1.0
