"""The ground-truth engine: convolution, order checks, sampling, validation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    binom_pmf_exact,
    prob_at,
    random_unit_dist,
    ref_expected_positive_part,
    ref_mean,
    ref_moment,
    ref_upper_tail,
    variance,
)
from tailbound import (
    BinomialSpec,
    ConditionalMeansSpec,
    ConditionalProbsSpec,
    DiscreteDist,
    DomainError,
    MomentVector,
    PartitionSpec,
    ResourceLimitError,
    SamplingExhaustedError,
    VarianceClassSpec,
    binomial_dist,
    check_convex_order,
    check_stochastic_order,
    convolve,
    hoeffding_bound,
    markov_reduction_check,
    mix_envelope,
    sample_class_member,
    upper_tail,
    validate_bound,
)
from tailbound.distributions import MERGE_REL_TOL, best_linear_cut


def bernoulli(p):
    return DiscreteDist((0.0, 1.0), (1 - p, p))


def test_convolve_bernoullis_is_binomial():
    for n in (1, 3, 6):
        total = convolve([bernoulli(0.3)] * n)
        for k in range(n + 1):
            assert prob_at(total, float(k)) == pytest.approx(
                float(binom_pmf_exact(n, k, Fraction(3, 10))), abs=1e-12
            )


def test_convolve_with_point_mass_is_identity():
    x = DiscreteDist((0.0, 0.5, 1.0), (0.25, 0.5, 0.25))
    out = convolve([x, DiscreteDist.point_mass(0.0)])
    assert out.support.tolist() == x.support.tolist()
    assert out.probs == pytest.approx(x.probs, abs=1e-15)


def test_convolve_hand_example():
    x = DiscreteDist((0.0, 0.5, 1.0), (0.25, 0.5, 0.25))
    out = convolve([x, x])
    assert out.support.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert out.probs == pytest.approx((1 / 16, 1 / 4, 3 / 8, 1 / 4, 1 / 16), abs=1e-14)


def test_convolve_merges_float_noise():
    x = DiscreteDist((0.1, 0.3), (0.5, 0.5))
    y = DiscreteDist((0.2, 0.4), (0.5, 0.5))
    out = convolve([x, y])
    # 0.1+0.4 and 0.3+0.2 are the same real point despite float noise
    assert out.support == pytest.approx((0.3, 0.5, 0.7))
    assert prob_at(out, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_convolve_support_guard():
    big = DiscreteDist(
        tuple(np.linspace(0.0, 1.0, 1001)), tuple(np.full(1001, 1.0 / 1001))
    )
    with pytest.raises(ResourceLimitError):
        convolve([big, big])


def test_best_linear_cut_breaks_ties_toward_largest_candidate():
    # cuts at 0 and 1 both give 0.75; the point at 4 lies above t
    dist = DiscreteDist((0.0, 1.0, 4.0), (0.25, 0.5, 0.25))
    assert best_linear_cut(dist, 2.0) == (0.75, 1.0)


def test_merge_keeps_subnormal_group_on_its_members():
    # fsum(s*q)/mass with subnormal masses used to put this point at 0.35
    third = 1.0 / 3.0
    dist = DiscreteDist.from_pairs([(0.0, 0.5), (third, 1e-322), (third, 1e-322), (0.5, 0.5)])
    assert dist.support.tolist() == [0.0, third, 0.5]
    assert dist.probs.tolist() == [0.5, 2e-322, 0.5]


def test_nan_probability_is_rejected():
    with pytest.raises(DomainError):
        DiscreteDist((0.0, 1.0), (1.0, math.nan))


@settings(max_examples=300)
@given(
    st.integers(0, 2**30),
    st.integers(1, 12),
    st.sampled_from([1.0, 1e3, 1e-3]),
    st.sampled_from(["on", "near", "free"]),
)
def test_queries_match_scalar_definitions(seed, size, scale, where):
    """The array queries equal the one-float-per-point definitions in
    helpers.py bit for bit: supports with negative and zero-mass points, a
    second point within 1e-12 relative of the first, and queries on a
    point, within 1.5e-12 relative of one, or anywhere."""
    rng = np.random.default_rng(seed)
    support = np.unique(scale * rng.uniform(-1.0, 1.0, size))
    near = support[0] + 0.5 * MERGE_REL_TOL * max(1.0, abs(support[0]))
    support = np.unique(np.append(support, near))
    probs = rng.dirichlet(np.full(support.size, 0.5))
    probs[rng.random(support.size) < 0.25] = 0.0
    if probs.sum() == 0.0:
        probs[-1] = 1.0
    dist = DiscreteDist(support, probs / probs.sum())
    s = float(rng.choice(support))
    if where == "on":
        a = s
    elif where == "near":
        a = s + rng.uniform(-1.5, 1.5) * MERGE_REL_TOL * max(1.0, abs(s))
    else:
        a = scale * rng.uniform(-1.2, 1.2)
    assert dist.upper_tail(a).hex() == ref_upper_tail(dist, a).hex()
    assert dist.expected_positive_part(a).hex() == ref_expected_positive_part(dist, a).hex()
    assert dist.mean().hex() == ref_mean(dist).hex()
    for k in range(1, 5):
        assert dist.moment(k).hex() == ref_moment(dist, k).hex()


def _quadratic_cut(dist, t):
    """Every candidate of the linear cut, each evaluated from its definition."""
    candidates = [0.0] + [s for s in dist.support if 0.0 < s < t]
    return [(dist.expected_positive_part(a) / (t - a), a) for a in candidates]


@settings(max_examples=300)
@given(
    st.integers(0, 2**30),
    st.integers(1, 60),
    st.sampled_from(["lattice", "real"]),
    st.sampled_from([0.0, 1.0, -0.5]),
)
def test_best_linear_cut_matches_quadratic_definition(seed, size, kind, start):
    # start 0 puts a support point at 0, start -0.5 puts some below 0
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        support = start + np.arange(size) * rng.uniform(0.05, 2.0)
    else:
        support = start + np.cumsum(rng.uniform(1e-6, 1.0, size))
    probs = rng.dirichlet(np.full(size, 0.5))
    probs[rng.random(size) < 0.2] = 0.0
    if probs.sum() == 0.0:
        probs[-1] = 1.0
    dist = DiscreteDist(tuple(support), tuple(probs / probs.sum()))
    t = rng.uniform(0.01, support[-1] + 1.0) if support[-1] > 0.0 else rng.uniform(0.01, 1.0)
    value, a_star = best_linear_cut(dist, t)
    reference = sorted(_quadratic_cut(dist, t))
    assert value == pytest.approx(reference[0][0], rel=1e-12, abs=0.0)
    if len(reference) == 1 or reference[1][0] > reference[0][0] * (1.0 + 1e-12):
        assert a_star == reference[0][1]


@settings(max_examples=40)
@given(st.integers(0, 2**30))
def test_convolve_mean_is_additive(seed):
    rng = np.random.default_rng(seed)
    dists = [random_unit_dist(rng) for _ in range(3)]
    total = convolve(dists)
    assert total.mean() == pytest.approx(sum(d.mean() for d in dists), abs=1e-12)


def test_convex_order_two_point_envelope():
    rng = np.random.default_rng(83)
    for _ in range(40):
        x = random_unit_dist(rng)
        assert check_convex_order(x, bernoulli(x.mean())).holds


def test_convex_order_unequal_bernoullis_below_binomial():
    mixture = convolve([bernoulli(0.3), bernoulli(0.7)])
    assert check_convex_order(mixture, binomial_dist(BinomialSpec(2, 0.5))).holds


def test_convex_order_mean_mismatch_fails_fast():
    cert = check_convex_order(bernoulli(0.5), bernoulli(0.6))
    assert not cert.holds
    assert cert.reason == "mean-mismatch"


def test_convex_order_transitive_on_sampled_chains():
    rng = np.random.default_rng(89)
    partition = PartitionSpec((0.0, 0.4, 1.0))
    for _ in range(30):
        x = random_unit_dist(rng)
        y = mix_envelope(x, partition)
        z = bernoulli(x.mean())
        assert check_convex_order(x, y).holds
        assert check_convex_order(y, z).holds
        assert check_convex_order(x, z).holds


def test_stochastic_order_examples():
    z = DiscreteDist((0.0, 0.5, 1.0), (0.3, 0.4, 0.3))  # weights of (0.5, 0.3)
    q = math.sqrt(0.3)
    xi = binomial_dist(BinomialSpec(2, q), scale=0.5)
    assert check_stochastic_order(z, xi).holds
    assert check_stochastic_order(z, z).holds
    cert = check_stochastic_order(bernoulli(0.6), bernoulli(0.5))
    assert not cert.holds
    assert cert.point == pytest.approx(1.0)


def test_mean_member_sampling():
    spec = MomentVector((0.4,))
    first = sample_class_member(spec, 11)
    second = sample_class_member(spec, 11)
    assert first == second  # reproducible under the same seed
    assert first.mean() == pytest.approx(0.4, abs=1e-12)
    assert first.n_points <= 2
    assert max(first.support) > 0.4


def test_variance_member_sampling():
    spec = VarianceClassSpec(0.5, 0.05)
    rng = np.random.default_rng(5)
    for _ in range(25):
        member = sample_class_member(spec, rng)
        assert member.mean() == pytest.approx(0.5, abs=1e-12)
        assert variance(member) == pytest.approx(0.05, abs=1e-12)
        assert member.n_points <= 3


def test_moment_member_sampling():
    spec = MomentVector((0.5, 0.3))
    rng = np.random.default_rng(6)
    for _ in range(25):
        member = sample_class_member(spec, rng)
        assert member.moment(1) == pytest.approx(0.5, abs=1e-11)
        assert member.moment(2) == pytest.approx(0.3, abs=1e-11)
        assert member.n_points <= 3


def test_conditional_member_sampling():
    partition = PartitionSpec((0.0, 0.4, 1.0))
    cm = ConditionalMeansSpec(partition, (0.2, 0.7), 0.45)
    rng = np.random.default_rng(7)
    for _ in range(20):
        member = sample_class_member(cm, rng)
        assert member.mean() == pytest.approx(0.45, abs=1e-11)
        low = [
            (s, q) for s, q in zip(member.support, member.probs) if s < 0.4 and q > 0
        ]
        mass = sum(q for _, q in low)
        if mass > 1e-12:
            cell_mean = sum(s * q for s, q in low) / mass
            assert cell_mean == pytest.approx(0.2, abs=1e-10)

    cp = ConditionalProbsSpec(partition, (0.3, 0.7), 0.5)
    for _ in range(20):
        member = sample_class_member(cp, rng)
        assert member.mean() == pytest.approx(0.5, abs=1e-11)
        mass_low = sum(q for s, q in zip(member.support, member.probs) if s < 0.4)
        assert mass_low == pytest.approx(0.3, abs=1e-12)


def test_infeasible_class_exhausts_sampling():
    with pytest.raises(SamplingExhaustedError):
        sample_class_member(MomentVector((0.5, 0.2)), 3)  # mu2 < mu1^2: empty class


def test_validate_bound_accepts_sound_bound():
    specs = [MomentVector((0.5,))] * 3
    bound = hoeffding_bound(specs, 2.0).value
    report = validate_bound(specs, 2.0, bound, 200, 7)
    assert report.ok
    assert 0.0 < report.max_tail <= bound


def test_validate_bound_trivial_bound_always_passes():
    report = validate_bound([MomentVector((0.5,))] * 3, 2.0, 1.0, 50, 9)
    assert report.ok


def test_validate_bound_detects_corrupted_bound():
    # half the exponential bound near the threshold is beatable by members
    specs = [MomentVector((0.5,))] * 3
    corrupted = hoeffding_bound(specs, 1.6).value / 2.0
    report = validate_bound(specs, 1.6, corrupted, 200, 7)
    assert not report.ok
    violation = report.violations[0]
    assert violation.tail > corrupted
    assert len(violation.members) == 3


def test_validate_bound_guards():
    with pytest.raises(DomainError):
        validate_bound([MomentVector((0.5,))] * 9, 3.0, 1.0, 1, 0)
    empty = validate_bound([MomentVector((0.5,))] * 3, 2.0, 0.5, 0, 0)
    assert empty.ok and empty.trials == 0


@pytest.mark.parametrize("seed", [0, 3, 7, 2**31 - 1])
def test_trial_seed_is_the_spawned_child(seed):
    # validate_bound seeds trial k from SeedSequence(seed, spawn_key=(k,)),
    # the state SeedSequence(seed).spawn(trials)[k] has, without spawning every trial up front
    spawned = np.random.SeedSequence(seed).spawn(5)
    for k in (0, 1, 4):
        direct = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        child = np.random.default_rng(spawned[k])
        assert direct.bit_generator.state == child.bit_generator.state
        assert direct.random(3).tolist() == child.random(3).tolist()


def test_unequal_bernoullis_dominated_by_averaged_binomial():
    # domination kicks in one unit above the mean; at c <= n*q_bar the
    # unequal-probability sum can have the larger tail (n=2, c=1 via AM-GM)
    rng = np.random.default_rng(97)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        qs = rng.uniform(0.05, 0.95, n)
        q_bar = float(np.mean(qs))
        total = convolve([bernoulli(float(q)) for q in qs])
        reference = BinomialSpec(n, q_bar)
        start = math.ceil(n * q_bar + 1.0 - 1e-12)
        for c in range(max(start, 0), n + 1):
            assert total.upper_tail(float(c)) <= upper_tail(reference, c) + 1e-10


def test_markov_reduction_examples():
    report = markov_reduction_check([1.0, 1.0], 4.0)
    assert report.value == pytest.approx(0.5, abs=1e-15)
    assert report.eps_star == 0.0
    assert report.ok

    single = markov_reduction_check([0.7], 2.0)
    assert single.value == pytest.approx(0.35, abs=1e-15)

    triple = markov_reduction_check([0.5, 0.5, 0.5], 2.0)
    assert triple.value == pytest.approx(0.75, abs=1e-15)
    assert triple.eps_star == 0.0

    with pytest.raises(DomainError):
        markov_reduction_check([1.0, 1.0], 2.0)


def test_markov_reduction_grid_oracle():
    # no cut point in (0, t) does better than the plain mean-over-threshold value
    mus = [0.4, 0.8, 0.3]
    t = 3.0
    parts = [DiscreteDist((0.0, t), (1 - mu / t, mu / t)) for mu in mus]
    total = convolve(parts)
    target = sum(mus) / t
    for eps in np.linspace(0.0, t - 1e-9, 4001):
        value = total.expected_positive_part(float(eps)) / (t - eps)
        assert value >= target - 1e-12
