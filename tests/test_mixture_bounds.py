"""Conditional-information and variance-aware bounds."""

import math

import numpy as np
import pytest

from helpers import mean_specs, prob_at, random_unit_dist
from tailbound import (
    ConditionalMeansSpec,
    ConditionalProbsSpec,
    DiscreteDist,
    DomainError,
    PartitionSpec,
    VarianceClassSpec,
    bennett_bound,
    bentkus_linear_bound,
    check_convex_order,
    conditional_means_bound,
    conditional_probs_bound,
    convolve,
    hoeffding_bound,
    mix_envelope,
    sample_class_member,
    xi_distribution,
    xi_sum_bound,
)


def test_partition_validation():
    PartitionSpec((0.0, 0.5, 1.0))
    with pytest.raises(DomainError):
        PartitionSpec((0.0, 1.0))  # a single cell is not a partition here
    with pytest.raises(DomainError):
        PartitionSpec((0.1, 0.5, 1.0))
    with pytest.raises(DomainError):
        PartitionSpec((0.0, 0.5, 0.9))
    with pytest.raises(DomainError):
        PartitionSpec((0.0, 0.5, 0.5, 1.0))


def test_mix_envelope_fixes_breakpoint_supported_input():
    partition = PartitionSpec((0.0, 0.5, 1.0))
    x = DiscreteDist((0.0, 0.5, 1.0), (0.2, 0.5, 0.3))
    assert mix_envelope(x, partition) == x


def test_mix_envelope_hand_computation():
    partition = PartitionSpec((0.0, 0.5, 1.0))
    x = DiscreteDist((0.25, 0.75), (0.5, 0.5))
    out = mix_envelope(x, partition)
    assert out.support.tolist() == [0.0, 0.5, 1.0]
    assert out.probs == pytest.approx((0.25, 0.5, 0.25), abs=1e-14)


def test_mix_envelope_preserves_mean_and_dominates():
    rng = np.random.default_rng(53)
    partition = PartitionSpec((0.0, 0.3, 0.7, 1.0))
    for _ in range(100):
        x = random_unit_dist(rng)
        out = mix_envelope(x, partition)
        assert out.mean() == pytest.approx(x.mean(), abs=1e-12)
        assert check_convex_order(x, out).holds


def test_conditional_means_reduces_to_mean_only_bound():
    partition = PartitionSpec((0.0, 0.25, 0.75, 1.0))
    spec = ConditionalMeansSpec(partition, (0.0, 0.5, 1.0), 0.5)
    for t in (6.0, 8.0):
        value = conditional_means_bound([spec] * 10, t).value
        assert value == pytest.approx(
            hoeffding_bound(mean_specs(10, 0.5), t).value, rel=1e-9
        )


def test_conditional_means_worked_example():
    partition = PartitionSpec((0.0, 0.25, 0.75, 1.0))
    spec = ConditionalMeansSpec(partition, (0.2, 0.5, 0.8), 0.5)
    report = conditional_means_bound([spec] * 10, 8.0)
    w = report.witness
    assert (w["pi1"], w["pi2"], w["pi3"], w["pi4"]) == pytest.approx(
        (0.1, 0.4, 0.4, 0.1), abs=1e-12
    )
    # independent oracle: dense h-grid on the same objective
    h = np.linspace(1e-6, 60.0, 1_200_001)
    objective = -h * 8.0 + 10.0 * np.log(
        0.1 + 0.4 * np.exp(h * 0.25) + 0.4 * np.exp(h * 0.75) + 0.1 * np.exp(h)
    )
    assert report.value == pytest.approx(float(np.exp(objective.min())), abs=1e-8)
    assert report.value < hoeffding_bound(mean_specs(10, 0.5), 8.0).value


def test_conditional_means_weights_always_sum_to_one():
    rng = np.random.default_rng(59)
    partition = PartitionSpec((0.0, 0.2, 0.8, 1.0))
    for _ in range(50):
        mu1 = float(rng.uniform(0.0, 0.19))
        mu2 = float(rng.uniform(0.2, 0.79))
        mu3 = float(rng.uniform(0.8, 1.0))
        p = float(rng.uniform(max(mu1, 0.01), min(mu3, 0.99)))
        spec = ConditionalMeansSpec(partition, (mu1, mu2, mu3), p)
        w = conditional_means_bound([spec] * 4, 4 * p + 0.5 * (4 - 4 * p)).witness
        assert w["pi1"] + w["pi2"] + w["pi3"] + w["pi4"] == pytest.approx(1.0, abs=1e-12)


def test_conditional_means_spec_validation():
    partition = PartitionSpec((0.0, 0.25, 0.75, 1.0))
    with pytest.raises(DomainError):
        ConditionalMeansSpec(partition, (0.3, 0.5, 0.8), 0.5)  # mu_1 outside cell 1
    with pytest.raises(DomainError):
        ConditionalMeansSpec(partition, (0.2, 0.5, 0.8), 0.1)  # p below mu_1
    with pytest.raises(DomainError):
        conditional_means_bound(
            [
                ConditionalMeansSpec(partition, (0.2, 0.5, 0.8), 0.5),
                ConditionalMeansSpec(PartitionSpec((0.0, 0.5, 1.0)), (0.2, 0.8), 0.5),
            ],
            4.0,
        )


def test_conditional_probs_extremal_is_bernoulli_when_admissible():
    spec = ConditionalProbsSpec(PartitionSpec((0.0, 0.4, 1.0)), (0.5, 0.5), 0.5)
    report = conditional_probs_bound((spec,) * 10, 8.0)
    assert report.value == pytest.approx(
        hoeffding_bound(mean_specs(10, 0.5), 8.0).value, rel=1e-12
    )
    assert report.witness["mu"] == pytest.approx((0.0, 1.0))


def test_conditional_probs_refuses_mixed_specs():
    partition = PartitionSpec((0.0, 0.4, 1.0))
    spec = ConditionalProbsSpec(partition, (0.5, 0.5), 0.5)
    other = ConditionalProbsSpec(partition, (0.6, 0.4), 0.5)
    with pytest.raises(DomainError, match="one shared"):
        conditional_probs_bound((spec,) * 9 + (other,), 8.0)
    equal_copies = (spec,) * 5 + (ConditionalProbsSpec(partition, (0.5, 0.5), 0.5),) * 5
    assert conditional_probs_bound(equal_copies, 8.0) == conditional_probs_bound(
        (spec,) * 10, 8.0
    )


def test_conditional_probs_vertex_solution():
    partition = PartitionSpec((0.0, 0.3, 0.6, 1.0))
    spec = ConditionalProbsSpec(partition, (0.3, 0.4, 0.3), 0.45)
    report = conditional_probs_bound((spec,) * 8, 6.0)
    mus = report.witness["mu"]
    interior = sum(
        1
        for j, mu in enumerate(mus, start=1)
        if partition.breakpoints[j - 1] + 1e-12 < mu < partition.breakpoints[j] - 1e-12
    )
    assert interior <= 1


def test_conditional_probs_filled_mean_stays_in_its_cell():
    # the greedy fill of the top cell rounds to 1 + 2**-52 without the clamp
    partition = PartitionSpec((0.0, 0.2, 1.0))
    spec = ConditionalProbsSpec(
        partition, (0.5752562374753217, 0.42474376252467827), 0.45059192852232355
    )
    report = conditional_probs_bound((spec,) * 255, 158.8457128826761)
    assert report.witness["mu"][-1] == 1.0
    assert report.value == pytest.approx(7.226340914737733e-08, rel=1e-12)


def test_conditional_probs_never_exceeds_mean_only_bound():
    rng = np.random.default_rng(61)
    for _ in range(50):
        r1 = float(rng.uniform(0.2, 0.8))
        q1 = float(rng.uniform(0.1, 0.9))
        lo, hi = (1 - q1) * r1, q1 * r1 + (1 - q1)
        p = float(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo)))
        p = min(max(p, 1e-3), 1 - 1e-3)
        spec = ConditionalProbsSpec(PartitionSpec((0.0, r1, 1.0)), (q1, 1 - q1), p)
        n = int(rng.integers(2, 9))
        t = float(n * p + (n - n * p) * rng.uniform(0.2, 0.8))
        value = conditional_probs_bound((spec,) * n, t).value
        assert value <= hoeffding_bound(mean_specs(n, p), t).value + 1e-12


def test_conditional_probs_dominates_sampled_members():
    spec = ConditionalProbsSpec(PartitionSpec((0.0, 0.5, 1.0)), (0.6, 0.4), 0.45)
    bound = conditional_probs_bound((spec,), 0.8).value
    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(500):
        member = sample_class_member(spec, rng)
        tail = member.upper_tail(0.8)
        worst = max(worst, tail)
        assert tail <= bound + 1e-10
    assert worst > 0.0  # the adversarial search is not vacuous


def test_conditional_probs_infeasible_mean_rejected():
    with pytest.raises(DomainError):
        ConditionalProbsSpec(PartitionSpec((0.0, 0.2, 1.0)), (0.9, 0.1), 0.8)


def test_xi_distribution_cases():
    # balanced case: sigma below both p and 1-p
    xi = xi_distribution(VarianceClassSpec(0.5, 0.0625))
    assert xi.support.tolist() == [0.0, 0.5, 1.0]
    assert xi.probs == pytest.approx((0.25, 0.5, 0.25), abs=1e-12)

    # sigma above 1-p
    xi = xi_distribution(VarianceClassSpec(0.9, 0.04))
    assert xi.probs == pytest.approx((0.04 / 0.45, 0.005 / 0.045, 0.8), rel=1e-9)
    assert xi.mean() == pytest.approx(0.9, abs=1e-12)

    # sigma above p (mirror regime)
    xi = xi_distribution(VarianceClassSpec(0.1, 0.04))
    assert xi.mean() == pytest.approx(0.1, abs=1e-12)
    assert xi.probs == pytest.approx(
        (0.04 / 0.05, 0.1 * (0.09 - 0.04) / (0.9 * 0.05), 0.1 * 0.04 / (0.9 * 0.05)),
        rel=1e-9,
    )

    # maximal variance collapses toward a two-point variable
    xi = xi_distribution(VarianceClassSpec(0.5, 0.25))
    assert all(q >= -1e-15 for q in xi.probs)
    assert prob_at(xi, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_xi_mass_at_mean_matches_optimal_split():
    rng = np.random.default_rng(71)
    for _ in range(50):
        p = float(rng.uniform(0.1, 0.9))
        s2 = float(rng.uniform(0.02, 0.999)) * p * (1 - p)
        sigma = math.sqrt(s2)
        if sigma > 1 - p:
            l1, l2 = s2 / (1 - p), 1 - p
        elif sigma > p:
            l1, l2 = p, s2 / p
        else:
            l1, l2 = sigma, sigma
        expected = 1 - s2 / ((1 - p) * p * (l1 + l2))
        assert prob_at(xi_distribution(VarianceClassSpec(p, s2)), p) == pytest.approx(
            expected, abs=1e-10
        )


def test_xi_sum_reduces_to_breakpoint_search_at_full_variance():
    vclasses = [VarianceClassSpec(0.5, 0.25)] * 10
    for t in (6.0, 8.0):
        assert xi_sum_bound(vclasses, t).value == pytest.approx(
            bentkus_linear_bound(mean_specs(10, 0.5), t).value, abs=1e-12
        )


def test_xi_sum_single_variable_enumeration():
    report = xi_sum_bound([VarianceClassSpec(0.5, 0.0625)], 0.75)
    assert report.value == pytest.approx(0.5, abs=1e-12)
    assert report.witness["epsilon"] == pytest.approx(0.5)


def test_xi_sum_beats_variance_exponential_at_high_variance():
    value = xi_sum_bound([VarianceClassSpec(0.5, 0.2)] * 20, 12.0).value
    reference = bennett_bound(20, VarianceClassSpec(0.5, 0.2), 12.0).value
    assert value < reference


def test_xi_sandwich_small():
    rng = np.random.default_rng(73)
    for _ in range(20):
        p = float(rng.uniform(0.2, 0.8))
        s2 = float(rng.uniform(0.05, 0.95)) * p * (1 - p)
        vclass = VarianceClassSpec(p, s2)
        xi = xi_distribution(vclass)
        bernoulli = DiscreteDist((0.0, 1.0), (1 - p, p))
        assert check_convex_order(xi, bernoulli).holds
        for k in range(5):
            member = sample_class_member(vclass, rng)
            assert check_convex_order(member, xi).holds


def test_xi_sum_is_sound_for_sampled_members():
    rng = np.random.default_rng(79)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        vclasses = [
            VarianceClassSpec(
                p := float(rng.uniform(0.25, 0.75)),
                float(rng.uniform(0.1, 0.9)) * p * (1 - p),
            )
            for _ in range(n)
        ]
        p_bar = sum(v.p for v in vclasses) / n
        t = float(n * p_bar + (n - n * p_bar) * rng.uniform(0.2, 0.8))
        bound = xi_sum_bound(vclasses, t).value
        for k in range(10):
            members = [sample_class_member(v, rng) for v in vclasses]
            tail = convolve(members).upper_tail(t)
            assert tail <= bound + 1e-10
