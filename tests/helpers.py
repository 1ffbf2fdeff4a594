"""Shared test oracles: exact rational binomial arithmetic, scalar
reference definitions of the ``DiscreteDist`` queries, and random
small-support distributions used as adversarial class members."""

from __future__ import annotations

from fractions import Fraction
from math import comb, fsum

import numpy as np

from tailbound import (
    BoundTask,
    ConditionalMeansSpec,
    ConditionalProbsSpec,
    DiscreteDist,
    MomentVector,
    PartitionSpec,
    VarianceClassSpec,
)
from tailbound.distributions import MERGE_REL_TOL


def binom_pmf_exact(n: int, k: int, p: Fraction) -> Fraction:
    """P[Bin(n, p) = k] in exact rational arithmetic."""
    return comb(n, k) * p**k * (1 - p) ** (n - k)


def binom_tail_exact(n: int, k: int, p: Fraction) -> Fraction:
    """P[Bin(n, p) >= k] in exact rational arithmetic."""
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    return sum(binom_pmf_exact(n, i, p) for i in range(k, n + 1))


def binom_epp_exact(n: int, a: Fraction, p: Fraction) -> Fraction:
    """E[max(0, Bin(n, p) - a)] in exact rational arithmetic."""
    return sum(
        (i - a) * binom_pmf_exact(n, i, p) for i in range(n + 1) if i > a
    )


def hoeffding_exact_log_free(n: int, p: float, t: float) -> float:
    """Direct float evaluation of the closed-form optimized bound."""
    return (p * (n - t) / (t * (1 - p))) ** t * ((1 - p) * n / (n - t)) ** n


def mean_specs(n: int, p: float) -> tuple[MomentVector, ...]:
    """n variables that each have mean p: the mean level's class specs."""
    return (MomentVector((p,)),) * n


def random_unit_dist(
    rng: np.random.Generator, max_points: int = 4, min_points: int = 2
) -> DiscreteDist:
    """A random distribution on [0,1] with min_points..max_points support points."""
    k = int(rng.integers(min_points, max_points + 1))
    support = np.sort(rng.random(k))
    while k > 1 and np.min(np.diff(support)) < 1e-3:
        support = np.sort(rng.random(k))
    probs = rng.dirichlet(np.ones(k))
    return DiscreteDist(support, probs)


# -- scalar reference definitions of the DiscreteDist queries ----------------
# One Python float per point, summed by fsum; the array queries must equal
# them bit for bit.


def _points(dist: DiscreteDist) -> list[tuple[float, float]]:
    return list(zip(dist.support.tolist(), dist.probs.tolist()))


def same_point(a: float, b: float) -> bool:
    """True when two support values should be treated as one point."""
    return abs(a - b) <= MERGE_REL_TOL * max(1.0, abs(a), abs(b))


def ref_mean(dist: DiscreteDist) -> float:
    return fsum(s * q for s, q in _points(dist))


def ref_moment(dist: DiscreteDist, k: int) -> float:
    return fsum(s**k * q for s, q in _points(dist))


def variance(dist: DiscreteDist) -> float:
    m = ref_mean(dist)
    return fsum((s - m) ** 2 * q for s, q in _points(dist))


def ref_expected_positive_part(dist: DiscreteDist, a: float) -> float:
    return fsum((s - a) * q for s, q in _points(dist) if s > a)


def ref_upper_tail(dist: DiscreteDist, a: float) -> float:
    return fsum(q for s, q in _points(dist) if s > a or same_point(s, a))


def prob_at(dist: DiscreteDist, x: float) -> float:
    """Mass carried by the support point of ``dist`` at ``x`` (0 if absent)."""
    return fsum(q for s, q in _points(dist) if same_point(s, x))


def moment_vector_of(dist: DiscreteDist, m: int) -> MomentVector:
    """The first m raw moments of a distribution, as a feasible class spec."""
    return MomentVector(tuple(dist.moment(j) for j in range(1, m + 1)))


def random_mean_task(rng: np.random.Generator, n: int) -> BoundTask:
    means = tuple(rng.uniform(0.15, 0.85, n))
    t = _random_threshold(rng, n, float(np.mean(means)))
    return BoundTask("mean", t, tuple(MomentVector((p,)) for p in means))


def random_moments_task(rng: np.random.Generator, n: int) -> BoundTask:
    m = int(rng.integers(2, 4))
    specs = []
    for _ in range(n):
        # bases with more than m+1 support points leave the moment class
        # with enough interior for the member sampler to hit
        base = random_unit_dist(rng, max_points=4, min_points=m + 1)
        specs.append(moment_vector_of(base, m))
    p_bar = float(np.mean([spec.mean for spec in specs]))
    t = _random_threshold(rng, n, p_bar)
    return BoundTask("moments", t, tuple(specs))


def random_variance_task(rng: np.random.Generator, n: int) -> BoundTask:
    p = float(rng.uniform(0.2, 0.8))
    sigma2 = float(rng.uniform(0.05, 0.95)) * p * (1 - p)
    t = _random_threshold(rng, n, p)
    return BoundTask("variance", t, (VarianceClassSpec(p, sigma2),) * n)


def random_cond_means_task(rng: np.random.Generator, n: int) -> BoundTask:
    r1 = float(rng.uniform(0.25, 0.75))
    partition = PartitionSpec((0.0, r1, 1.0))
    specs = []
    for _ in range(n):
        mu1 = float(rng.uniform(0.0, r1 * 0.95))
        mu2 = float(rng.uniform(r1, 1.0))
        p = float(rng.uniform(max(mu1, 0.02), min(mu2, 0.98)))
        p = min(max(p, mu1 + 1e-9), mu2 - 1e-9) if mu2 - mu1 > 2e-9 else p
        specs.append(ConditionalMeansSpec(partition, (mu1, mu2), p))
    t = _random_threshold(rng, n, float(np.mean([spec.mean for spec in specs])))
    return BoundTask("conditional-means", t, tuple(specs))


def random_cond_probs_task(rng: np.random.Generator, n: int) -> BoundTask:
    r1 = float(rng.uniform(0.25, 0.75))
    q1 = float(rng.uniform(0.15, 0.85))
    q = (q1, 1.0 - q1)
    lo = q[1] * r1
    hi = q[0] * r1 + q[1]
    p = float(rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)))
    p = min(max(p, 1e-6), 1 - 1e-6)
    t = _random_threshold(rng, n, p)
    spec = ConditionalProbsSpec(PartitionSpec((0.0, r1, 1.0)), q, p)
    return BoundTask("conditional-probs", t, (spec,) * n)


def _random_threshold(rng: np.random.Generator, n: int, p_bar: float) -> float:
    lo, hi = n * p_bar, float(n)
    # mixture of integer and fractional thresholds, kept off the endpoints
    if rng.random() < 0.5:
        candidates = [k for k in range(1, n) if lo + 1e-9 < k < hi - 1e-9]
        if candidates:
            return float(rng.choice(candidates))
    return float(lo + (hi - lo) * rng.uniform(0.2, 0.8))


TASK_BUILDERS = (
    random_mean_task,
    random_moments_task,
    random_variance_task,
    random_cond_means_task,
    random_cond_probs_task,
)


def random_task(rng: np.random.Generator, n: int) -> BoundTask:
    builder = TASK_BUILDERS[int(rng.integers(0, len(TASK_BUILDERS)))]
    return builder(rng, n)
