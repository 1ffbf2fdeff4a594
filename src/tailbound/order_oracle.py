"""Ground-truth engine: exact convolution, order certification on finite
supports, adversarial class-member sampling, and bound validation.

Convex order between finite-support variables is decided by a complete
finite family of test functions: equal means plus dominance of
E[max(0, X - a)] at every merged support point.  Stochastic order is
survival-function dominance at the same points.  Both checks return a
certificate naming the violating point on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Sequence, Union

from .bernstein_moments import MomentVector
from .classic_bounds import VarianceClassSpec
from .distributions import DiscreteDist, best_linear_cut, convolve
from .errors import DomainError, SamplingExhaustedError
from .mixture_bounds import ConditionalMeansSpec, ConditionalProbsSpec

#: tolerance for the order checks (float paths; exact-rational paths use 0)
ORDER_TOL = 1e-10
#: soundness slack when comparing exact tails against reported bounds
VALIDATION_TOL = 1e-10

_MAX_TRIES = 200

ClassSpec = Union[MomentVector, VarianceClassSpec, ConditionalMeansSpec, ConditionalProbsSpec]


@dataclass(frozen=True)
class OrderCertificate:
    """Outcome of an order check; falsy when the order fails, in which case
    ``point`` names a violating test location and ``gap`` its excess."""

    holds: bool
    reason: str | None = None
    point: float | None = None
    gap: float | None = None

    def __bool__(self) -> bool:
        return self.holds


def _merged_support(x: DiscreteDist, y: DiscreteDist) -> list[float]:
    return sorted(set(x.support.tolist()) | set(y.support.tolist()))


def check_convex_order(x: DiscreteDist, y: DiscreteDist) -> OrderCertificate:
    """Certify x <=_cx y: equal means and E[(x-a)+] <= E[(y-a)+] everywhere."""
    mean_gap = x.mean() - y.mean()
    if abs(mean_gap) > ORDER_TOL:
        return OrderCertificate(False, reason="mean-mismatch", gap=mean_gap)
    for a in _merged_support(x, y):
        gap = x.expected_positive_part(a) - y.expected_positive_part(a)
        if gap > ORDER_TOL:
            return OrderCertificate(False, reason="positive-part-excess", point=a, gap=gap)
    return OrderCertificate(True)


def check_stochastic_order(x: DiscreteDist, y: DiscreteDist) -> OrderCertificate:
    """Certify x <=_st y: P[x >= a] <= P[y >= a] at every support point."""
    for a in _merged_support(x, y):
        gap = x.upper_tail(a) - y.upper_tail(a)
        if gap > ORDER_TOL:
            return OrderCertificate(False, reason="survival-excess", point=a, gap=gap)
    return OrderCertificate(True)


# -- adversarial class members -------------------------------------------------


def _sample_mean_member(p: float, rng: np.random.Generator) -> DiscreteDist:
    # mass p/u at a random u in (p, 1], remainder at 0; mean is p exactly
    u = p + (1.0 - p) * (1.0 - rng.random())
    high = p / u
    if high >= 1.0:
        return DiscreteDist.point_mass(u)
    return DiscreteDist((0.0, u), (1.0 - high, high))


def _two_point_quadrature(mu: tuple[float, ...]) -> DiscreteDist | None:
    """The unique two-point distribution matching three moments, when the
    moment problem is nondegenerate (Gauss-quadrature construction)."""
    m1, m2, m3 = mu
    det = m2 - m1 * m1
    if det <= 1e-14:
        return None
    c1 = (m3 - m1 * m2) / det
    c0 = m2 - c1 * m1
    disc = c1 * c1 + 4.0 * c0
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    a, b = (c1 - root) / 2.0, (c1 + root) / 2.0
    if a < -1e-12 or b > 1.0 + 1e-12 or b - a < 1e-12:
        return None
    a, b = max(a, 0.0), min(b, 1.0)
    w = (b - m1) / (b - a)
    if not -1e-12 <= w <= 1.0 + 1e-12:
        return None
    w = min(max(w, 0.0), 1.0)
    dist = DiscreteDist((a, b), (w, 1.0 - w))
    if abs(dist.moment(3) - m3) > 1e-9:
        return None
    return dist


def _sample_moment_member(mv: MomentVector, rng: np.random.Generator) -> DiscreteDist:
    import numpy as np
    if mv.m == 1:
        return _sample_mean_member(mv.mean, rng)
    if mv.m == 2:
        # two fixed moments describe exactly a mean/variance class
        sigma2 = mv.mu[1] - mv.mu[0] ** 2
        if sigma2 < -1e-15:
            raise SamplingExhaustedError(
                f"moments {mv.mu} admit no member: second moment below the squared mean"
            )
        if sigma2 <= 1e-15:
            return DiscreteDist.point_mass(mv.mu[0])
        try:
            return _sample_variance_member(VarianceClassSpec(mv.mu[0], sigma2), rng)
        except DomainError as exc:
            raise SamplingExhaustedError(f"moments {mv.mu} admit no member: {exc}")
    m = mv.m
    target = np.array([1.0] + list(mv.mu))
    for attempt in range(_MAX_TRIES):
        # alternate between endpoint-anchored and fully random supports;
        # near-extremal classes only admit members away from the endpoints
        if attempt % 2 == 0:
            interior = np.sort(rng.random(m - 1))
            support = np.concatenate(([0.0], interior, [1.0]))
        else:
            support = np.sort(rng.random(m + 1))
        if np.min(np.diff(support)) < 1e-6:
            continue
        vander = np.vstack([support**j for j in range(m + 1)])
        try:
            probs = np.linalg.solve(vander, target)
        except np.linalg.LinAlgError:
            continue
        if probs.min() < -1e-13:
            continue
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        return DiscreteDist(support, probs)
    if m == 3:
        member = _two_point_quadrature(mv.mu)
        if member is not None:
            return member
    raise SamplingExhaustedError(
        f"found no member with moments {mv.mu} after {_MAX_TRIES} support draws"
    )


def _sample_variance_member(
    spec: VarianceClassSpec, rng: np.random.Generator
) -> DiscreteDist:
    import numpy as np
    p, s2 = spec.p, spec.sigma2
    lam = max(p - s2 / (1.0 - p), 0.0)
    for _ in range(_MAX_TRIES):
        if rng.random() < 0.5:
            # two-point {a, b}: variance (p-a)(b-p) = s2, b <= 1 iff a <= lam
            a = rng.random() * lam
            b = p + s2 / (p - a)
            if b > 1.0 + 1e-12:
                continue
            b = min(b, 1.0)
            w_low = (b - p) / (b - a)
            return DiscreteDist((a, b), (w_low, 1.0 - w_low))
        # three-point {0, v, 1} matching mean and second moment
        v = rng.random()
        if not 1e-6 < v < 1.0 - 1e-6:
            continue
        mu2 = s2 + p * p
        q_v = (p - mu2) / (v * (1.0 - v))
        q_1 = p - v * q_v
        q_0 = 1.0 - q_v - q_1
        probs = np.array([q_0, q_v, q_1])
        if probs.min() < -1e-13:
            continue
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        return DiscreteDist((0.0, v, 1.0), probs)
    raise SamplingExhaustedError(
        f"found no member with (p, sigma2)=({p}, {s2}) after {_MAX_TRIES} draws"
    )


def _cell_two_point(
    lo: float, hi: float, mu: float, closed_right: bool, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """Random two-point distribution inside [lo, hi) (or [lo, hi]) with mean mu."""
    top = hi if closed_right else mu + (hi - mu) * (1.0 - 1e-9)
    a = lo + (mu - lo) * rng.random()
    b = mu + (top - mu) * rng.random()
    if b - a < 1e-12:
        return [(mu, 1.0)]
    w_low = (b - mu) / (b - a)
    return [(a, w_low), (b, 1.0 - w_low)]


def _sample_cond_means_member(
    spec: ConditionalMeansSpec, rng: np.random.Generator
) -> DiscreteDist:
    import numpy as np
    r = spec.partition.breakpoints
    m = spec.partition.n_cells
    mu = spec.mu
    weights = None
    for _ in range(_MAX_TRIES):
        draw = rng.dirichlet(np.ones(m))
        mean = float(np.dot(draw, mu))
        delta = (spec.p - mean) / (mu[-1] - mu[0])
        cand = draw.copy()
        cand[0] -= delta
        cand[-1] += delta
        if cand.min() >= 0.0:
            weights = cand / cand.sum()
            break
    if weights is None:
        # two-cell vertex solution, always feasible since mu_1 <= p <= mu_m
        weights = np.zeros(m)
        weights[0] = (mu[-1] - spec.p) / (mu[-1] - mu[0])
        weights[-1] = 1.0 - weights[0]
    pairs: list[tuple[float, float]] = []
    for j in range(1, m + 1):
        w = float(weights[j - 1])
        if w <= 0.0:
            continue
        for s, q in _cell_two_point(r[j - 1], r[j], mu[j - 1], j == m, rng):
            pairs.append((s, w * q))
    return DiscreteDist.from_pairs(pairs)


def _sample_cond_probs_member(
    spec: ConditionalProbsSpec, rng: np.random.Generator
) -> DiscreteDist:
    import numpy as np
    r = spec.partition.breakpoints
    m = spec.partition.n_cells
    q = np.array(spec.q)
    active = q > 0.0
    lo = np.array([r[j - 1] for j in range(1, m + 1)])
    hi = np.array(
        [r[j] if j == m else r[j] - 1e-9 * (r[j] - r[j - 1]) for j in range(1, m + 1)]
    )
    # feasible start: fill cells from the bottom until the mean budget is spent
    mus = lo.copy()
    budget = spec.p - float(np.dot(q, mus))
    for j in range(m):
        if budget <= 0.0:
            break
        if not active[j]:
            continue
        take = min(budget, q[j] * (hi[j] - lo[j]))
        mus[j] += take / q[j]
        budget -= take
    # hit-and-run steps inside {mu : lo <= mu <= hi, q . mu = p}
    for _ in range(3):
        direction = rng.standard_normal(m)
        direction[~active] = 0.0
        qa = q[active]
        direction[active] -= qa * float(np.dot(qa, direction[active])) / float(
            np.dot(qa, qa)
        )
        if float(np.max(np.abs(direction))) < 1e-12:
            continue
        theta_lo, theta_hi = -np.inf, np.inf
        for j in range(m):
            d = direction[j]
            if abs(d) < 1e-15:
                continue
            bounds = sorted(((lo[j] - mus[j]) / d, (hi[j] - mus[j]) / d))
            theta_lo = max(theta_lo, bounds[0])
            theta_hi = min(theta_hi, bounds[1])
        if theta_hi <= theta_lo:
            continue
        mus = mus + (theta_lo + (theta_hi - theta_lo) * rng.random()) * direction
        mus = np.clip(mus, lo, hi)
    for j in range(m):
        if not active[j]:
            mus[j] = lo[j] + (hi[j] - lo[j]) * rng.random()
    pairs: list[tuple[float, float]] = []
    for j in range(1, m + 1):
        if not active[j - 1]:
            continue
        for s, w in _cell_two_point(r[j - 1], r[j], float(mus[j - 1]), j == m, rng):
            pairs.append((s, float(q[j - 1]) * w))
    return DiscreteDist.from_pairs(pairs)


def sample_class_member(spec: ClassSpec, seed) -> DiscreteDist:
    """A random finite-support member of the class described by ``spec``.

    Reproducible: the same seed yields the same member.  Raises
    :class:`SamplingExhaustedError` when the retry budget runs out, which
    is also how infeasible (empty) classes surface.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    if isinstance(spec, MomentVector):
        return _sample_moment_member(spec, rng)
    if isinstance(spec, VarianceClassSpec):
        return _sample_variance_member(spec, rng)
    if isinstance(spec, ConditionalMeansSpec):
        return _sample_cond_means_member(spec, rng)
    if isinstance(spec, ConditionalProbsSpec):
        return _sample_cond_probs_member(spec, rng)
    raise DomainError(f"unsupported class spec {type(spec).__name__}")


# -- bound validation -----------------------------------------------------------


@dataclass(frozen=True)
class TailViolation:
    trial: int
    tail: float
    members: tuple[DiscreteDist, ...]


@dataclass(frozen=True)
class ValidationReport:
    """Result of adversarial validation of one bound value."""

    bound_value: float
    trials: int
    max_tail: float
    violations: tuple[TailViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_bound(
    class_specs: Sequence[ClassSpec],
    t: float,
    bound_value: float,
    trials: int,
    seed: int,
) -> ValidationReport:
    """Check a bound against exact tails of sampled member tuples.

    For each trial a member is sampled per variable, the sum distribution
    is convolved exactly, and P[sum >= t] must not exceed the bound (plus
    1e-10 slack).  ``max_tail`` is the largest exact tail seen, an
    empirical lower estimate of the worst case over the class.
    """
    import numpy as np
    n = len(class_specs)
    if n > 8:
        raise DomainError("exact validation is limited to n <= 8 variables")
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    violations: list[TailViolation] = []
    max_tail = 0.0
    for k in range(trials):
        # the k-th child of SeedSequence(seed), drawn without spawning them all
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        members = tuple(sample_class_member(spec, rng) for spec in class_specs)
        tail = convolve(members).upper_tail(t)
        max_tail = max(max_tail, tail)
        if tail > bound_value + VALIDATION_TOL:
            violations.append(TailViolation(k, tail, members))
    return ValidationReport(bound_value, trials, max_tail, tuple(violations))


# -- unbounded-variable reduction ------------------------------------------------


@dataclass(frozen=True)
class MarkovReductionReport:
    value: float
    eps_star: float
    markov_value: float

    @property
    def ok(self) -> bool:
        return self.eps_star == 0.0 and abs(self.value - self.markov_value) <= 1e-12


def markov_reduction_check(mus: Sequence[float], t: float) -> MarkovReductionReport:
    """Optimized piecewise-linear bound for the worst nonnegative unbounded
    variables with the given means.

    The extremal variables put mass mu_i/t at t and the rest at 0, so the
    sum lives on multiples of t; minimizing E[max(0, (S-e)/(t-e))] over the
    cut candidates {0} plus support points below t lands at e = 0 with
    value sum(mu)/t -- exactly the plain mean-over-threshold bound.
    """
    if any(mu < 0.0 for mu in mus):
        raise DomainError("means must be nonnegative")
    total_mean = fsum(mus)
    if not t > total_mean:
        raise DomainError(f"t must exceed the total mean {total_mean!r}")
    parts = []
    for mu in mus:
        high = mu / t
        parts.append(DiscreteDist((0.0, t), (1.0 - high, high)))
    best_value, best_eps = best_linear_cut(convolve(parts), t)
    return MarkovReductionReport(best_value, best_eps, total_mean / t)
