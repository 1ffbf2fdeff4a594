"""Moment-class machinery: lattice weight distributions and their bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    binom_tail_exact,
    mean_specs,
    moment_vector_of,
    random_unit_dist,
    variance,
)
from tailbound import (
    BinomialSpec,
    DomainError,
    InfeasibleMomentError,
    InternalConsistencyError,
    MomentVector,
    PreconditionError,
    ResourceLimitError,
    bentkus_linear_bound,
    bernstein_weights,
    binomial_comparison_bound,
    binomial_dist,
    check_convex_order,
    check_stochastic_order,
    cohen_extremal,
    convolve,
    exp_moment_bound,
    hoeffding_bound,
    impossibility_witness,
    refined_binomial_bound,
    t_nm_distribution,
    upper_tail,
    z_nm_bound,
)
from tailbound import bernstein_moments
from tailbound.distributions import MAX_SUPPORT_POINTS


def test_moment_vector_validation():
    MomentVector((0.5, 0.3))
    MomentVector((0.5,))
    with pytest.raises(DomainError):
        MomentVector((0.5, 0.55))  # increasing moments are impossible on [0,1]
    with pytest.raises(DomainError):
        MomentVector((1.0, 0.5))
    with pytest.raises(DomainError):
        MomentVector((0.5, 0.0))
    with pytest.raises(DomainError):
        MomentVector(())
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            MomentVector((0.3, bad))
        with pytest.raises(DomainError):
            MomentVector((0.3, bad, 0.1))


def test_weights_known_expansion():
    dist = bernstein_weights(MomentVector((0.5, 0.3)))
    assert dist.support.tolist() == [0.0, 0.5, 1.0]
    assert dist.probs == pytest.approx((0.3, 0.4, 0.3), abs=1e-14)


def test_weights_collapse_for_bernoulli_moments():
    p = 0.37
    dist = bernstein_weights(MomentVector((p,) * 5))
    assert dist.probs[0] == pytest.approx(1 - p, abs=1e-12)
    assert dist.probs[-1] == pytest.approx(p, abs=1e-12)
    assert all(abs(w) <= 1e-12 for w in dist.probs[1:-1])


def test_weight_feasibility_is_necessary_not_sufficient():
    # mu2 < mu1^2 is impossible, yet the weights stay nonnegative here
    dist = bernstein_weights(MomentVector((0.5, 0.2)))
    assert dist.probs == pytest.approx((0.2, 0.6, 0.2), abs=1e-14)
    # a genuinely negative weight is rejected
    with pytest.raises(InfeasibleMomentError):
        bernstein_weights(MomentVector((0.9, 0.5)))


def test_weights_mean_matches_first_moment():
    rng = np.random.default_rng(23)
    for _ in range(50):
        base = random_unit_dist(rng)
        m = int(rng.integers(1, 5))
        mv = moment_vector_of(base, m)
        assert bernstein_weights(mv).mean() == pytest.approx(mv.mean, abs=1e-12)


def test_averaged_weights():
    mv = MomentVector((0.5, 0.3))
    assert t_nm_distribution([mv, mv]).probs == pytest.approx(
        bernstein_weights(mv).probs, abs=1e-14
    )
    mixed = t_nm_distribution([mv, MomentVector((0.5, 0.5))])
    assert mixed.probs == pytest.approx((0.4, 0.2, 0.4), abs=1e-14)
    assert t_nm_distribution([mv]).probs == pytest.approx(
        bernstein_weights(mv).probs, abs=1e-14
    )
    with pytest.raises(DomainError):
        t_nm_distribution([mv, MomentVector((0.5,))])


def test_exp_moment_reduces_to_mean_only_bound():
    mvs = [MomentVector((0.5,))] * 10
    assert exp_moment_bound(mvs, 6.0).value == pytest.approx(
        hoeffding_bound(mean_specs(10, 0.5), 6.0).value, rel=1e-9
    )
    # order-2 moments of a Bernoulli collapse to the same bound
    mvs2 = [MomentVector((0.5, 0.5))] * 10
    assert exp_moment_bound(mvs2, 8.0).value == pytest.approx(
        hoeffding_bound(mean_specs(10, 0.5), 8.0).value, rel=1e-9
    )


def test_exp_moment_with_second_moment_cannot_be_worse():
    mvs = [MomentVector((0.5, 0.3))] * 10
    value = exp_moment_bound(mvs, 8.0).value
    assert value <= hoeffding_bound(mean_specs(10, 0.5), 8.0).value + 1e-12
    # the lattice envelope is dominated by the two-point envelope
    cert = check_convex_order(
        t_nm_distribution([MomentVector((0.5, 0.3))]),
        bernstein_weights(MomentVector((0.5,))),
    )
    assert cert.holds


def test_exp_moment_domain():
    with pytest.raises(DomainError):
        exp_moment_bound([MomentVector((0.5, 0.3))] * 10, 5.0)  # t == n*mu1
    with pytest.raises(DomainError):
        exp_moment_bound([MomentVector((0.5, 0.3))] * 10, 10.0)


def test_convolution_bound_single_variable_enumeration():
    report = z_nm_bound([MomentVector((0.5, 0.3))], 0.75)
    assert report.value == pytest.approx(0.6, abs=1e-12)
    assert report.witness["epsilon"] == pytest.approx(0.5)


def test_convolution_bound_reduces_to_breakpoint_search():
    mvs = [MomentVector((0.5,))] * 10
    for t in (6.0, 7.25, 8.0):
        assert z_nm_bound(mvs, t).value == pytest.approx(
            bentkus_linear_bound(mean_specs(10, 0.5), t).value, abs=1e-12
        )


def _lattice_z_nm(mv, n, t):
    """z_nm from its definition on the integer lattice: the n-fold np.convolve
    of the Bernstein weights on {0, ..., n*m}/m, and every cut evaluated."""
    weights = np.array(bernstein_weights(mv).probs)
    pmf = np.ones(1)
    for _ in range(n):
        pmf = np.convolve(pmf, weights)
    grid = np.arange(pmf.size) / mv.m
    return min(
        float(np.dot(grid[grid > a] - a, pmf[grid > a])) / (t - a)
        for a in [0.0] + [x for x in grid if 0.0 < x < t]
    )


@pytest.mark.parametrize("n", [300, 1000])
def test_convolution_bound_matches_lattice_at_large_n(n):
    # merged lattice points once drifted off the lattice at n >= 261
    mv = MomentVector((0.3, 0.15, 0.09, 0.06))
    t = 0.45 * n
    expected = _lattice_z_nm(mv, n, t)
    assert z_nm_bound([mv] * n, t).value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_convolution_bound_with_one_moment_is_bentkus_up_to_large_n():
    mv = MomentVector((0.3,))
    for n in (50, 300, 1000):
        # every merged point stays on the integer lattice, subnormal tail masses included
        support = convolve([bernstein_weights(mv)] * n).support
        assert support.tolist() == list(map(float, range(n + 1)))
        t = 0.45 * n
        assert z_nm_bound([mv] * n, t).value == pytest.approx(
            bentkus_linear_bound(mean_specs(n, 0.3), t).value, rel=1e-11, abs=0.0
        )


def test_convolution_bound_refuses_a_grid_over_the_support_limit(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the grid size is checked before any envelope or convolution")

    monkeypatch.setattr(bernstein_moments, "bernstein_weights", unreachable)
    monkeypatch.setattr(bernstein_moments, "convolve", unreachable)
    mv = MomentVector((0.3, 0.15))
    n = MAX_SUPPORT_POINTS // mv.m + 1
    with pytest.raises(ResourceLimitError, match=f"{n * mv.m} points"):
        z_nm_bound([mv] * n, 0.4 * n)


def test_convolution_bound_beats_exponential():
    mvs = [MomentVector((0.5, 0.3))] * 10
    assert z_nm_bound(mvs, 8.0).value <= exp_moment_bound(mvs, 8.0).value + 1e-12


def test_second_moment_of_lattice_variable():
    for mu1, mu2 in ((0.5, 0.3), (0.7, 0.55), (0.4, 0.2)):
        z = bernstein_weights(MomentVector((mu1, mu2)))
        assert z.moment(2) == pytest.approx((mu1 + mu2) / 2, abs=1e-12)
        assert z.moment(2) >= mu2 - 1e-12


def test_refined_comparison_with_single_moment_is_plain_comparison():
    mvs = [MomentVector((0.5,))] * 10
    report = refined_binomial_bound(mvs, 8)
    plain = binomial_comparison_bound(mean_specs(10, 0.5), 8.0)
    assert report.value == pytest.approx(plain.value, rel=1e-12)
    assert report.witness["s"] == 1.0


def test_refined_comparison_first_interval_uses_only_s1():
    # q = (0.3, 0.5): thresholds in (4, 6] only admit the s=1 term
    mvs = [MomentVector((0.3, 0.25))] * 10
    report = refined_binomial_bound(mvs, 6)
    plain = binomial_comparison_bound(mean_specs(10, 0.3), 6.0)
    assert report.witness["s"] == 1.0
    assert report.value == pytest.approx(plain.value, rel=1e-12)


def test_refined_comparison_second_moment_case():
    mvs = [MomentVector((0.5, 0.3))] * 10
    q2 = math.sqrt(0.3)
    assert 8 > 10 * q2 + 1  # the threshold reaches the second interval
    report = refined_binomial_bound(mvs, 8)
    s1_term = (8 * 0.5 / 3) * float(binom_tail_exact(10, 8, Fraction(1, 2)))
    cut = 2 * 8 - 2 + 1
    factor = cut * (1 - q2) / (2 * (cut - 20 * q2))
    s2_term = factor * upper_tail(BinomialSpec(20, q2), cut)
    assert s2_term < s1_term  # the extra moment wins here
    assert report.witness["s"] == 2.0
    assert report.value == pytest.approx(min(s1_term, s2_term), rel=1e-10)


def test_refined_comparison_precondition():
    mvs = [MomentVector((0.5, 0.3))] * 10
    with pytest.raises(PreconditionError) as err:
        refined_binomial_bound(mvs, 6)  # t == n*q_1 + 1 is outside every interval
    assert "admissible range" in str(err.value)
    with pytest.raises(DomainError):
        refined_binomial_bound(mvs, 7.5)


def test_refined_comparison_flags_inconsistent_power_means():
    # monotone moments whose power means decrease certify an empty class
    with pytest.raises(InternalConsistencyError):
        refined_binomial_bound([MomentVector((0.9, 0.01))] * 4, 3)


def test_moment_domination_by_lattice_variable():
    rng = np.random.default_rng(31)
    for _ in range(60):
        base = random_unit_dist(rng)
        m = int(rng.integers(1, 5))
        z = bernstein_weights(moment_vector_of(base, m))
        cert = check_convex_order(base, z)
        assert cert.holds, (base, m, cert)


def test_lattice_variable_stochastically_below_binomial():
    rng = np.random.default_rng(37)
    for _ in range(60):
        base = random_unit_dist(rng)
        m = int(rng.integers(2, 7))
        mv = moment_vector_of(base, m)
        z = bernstein_weights(mv)
        xi = binomial_dist(BinomialSpec(m, mv.mu[-1] ** (1.0 / m)), scale=1.0 / m)
        assert check_stochastic_order(z, xi).holds


def test_extremal_two_point_member():
    dist = cohen_extremal(0.5, 0.05)
    assert dist.support == pytest.approx((0.4, 1.0))
    assert dist.probs == pytest.approx((5 / 6, 1 / 6), rel=1e-12)
    assert dist.mean() == pytest.approx(0.5, abs=1e-12)
    assert variance(dist) == pytest.approx(0.05, abs=1e-12)

    bernoulli = cohen_extremal(0.5, 0.25)
    assert bernoulli.support == pytest.approx((0.0, 1.0))
    assert bernoulli.probs == pytest.approx((0.5, 0.5), rel=1e-12)

    tiny = cohen_extremal(0.3, 1e-8)
    assert tiny.support[0] == pytest.approx(0.3, abs=1e-7)
    assert tiny.probs[1] == pytest.approx(0.0, abs=1e-6)

    with pytest.raises(DomainError):
        cohen_extremal(0.5, 0.3)
    with pytest.raises(DomainError):
        cohen_extremal(0.5, 0.0)


def test_extremal_member_has_largest_moments():
    rng = np.random.default_rng(41)
    for _ in range(40):
        p = float(rng.uniform(0.2, 0.8))
        s2 = float(rng.uniform(0.05, 0.9)) * p * (1 - p)
        extremal = cohen_extremal(p, s2)
        # a competing member with matching mean and variance
        v = float(rng.uniform(0.05, 0.95))
        mu2 = s2 + p * p
        q_v = (p - mu2) / (v * (1 - v))
        q_1 = p - v * q_v
        q_0 = 1 - q_v - q_1
        if min(q_0, q_v, q_1) < 0:
            continue
        other_moments = [
            q_v * v**k + q_1 for k in range(1, 6)
        ]
        for k in range(1, 6):
            assert extremal.moment(k) >= other_moments[k - 1] - 1e-12


def test_impossibility_witness_exact_value():
    ratio = impossibility_witness(0.5, 0.3)
    assert ratio == pytest.approx(0.6, abs=1e-12)
    # the two expectations behind the ratio, in exact arithmetic
    mu1, mu2 = Fraction(1, 2), Fraction(3, 10)
    s2 = mu2 - mu1**2
    lam = mu1 - s2 / (1 - mu1)
    e_g_c = (mu1 - lam) / (1 - lam)
    e_g_cprime = (mu2 / mu1 - lam) / (1 - lam) * mu1**2 / mu2
    assert e_g_c == Fraction(1, 6)
    assert e_g_cprime == Fraction(5, 18)
    assert ratio == pytest.approx(float(e_g_c / e_g_cprime), abs=1e-12)


def test_impossibility_witness_is_always_below_one():
    rng = np.random.default_rng(43)
    for _ in range(50):
        mu1 = float(rng.uniform(0.2, 0.8))
        mu2 = float(rng.uniform(mu1 * mu1 + 1e-3, mu1 - 1e-3))
        if not mu1 * mu1 < mu2 < mu1:
            continue
        ratio = impossibility_witness(mu1, mu2)
        assert ratio == pytest.approx(mu2 / mu1, rel=1e-10)
        assert ratio < 1.0


def test_impossibility_witness_domain():
    with pytest.raises(DomainError):
        impossibility_witness(0.5, 0.25)  # zero variance
    with pytest.raises(DomainError):
        impossibility_witness(0.5, 0.6)
