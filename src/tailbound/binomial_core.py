"""Numerically stable binomial mass, tail, and partial-expectation primitives.

All probabilities are computed through the log-gamma function and
exponentiated per term, never via direct factorials, so the routines stay
accurate for trial counts in the hundreds where linear-space binomial
coefficients overflow.  Term sums are accumulated with ``math.fsum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, floor, fsum, lgamma, log, log1p

from .distributions import MAX_SUPPORT_POINTS, DiscreteDist, renormalized_dist
from .errors import DomainError, ResourceLimitError


@dataclass(frozen=True)
class BinomialSpec:
    """Parameters of a binomial distribution with n trials of success
    probability p, 0 < p < 1."""

    n: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise DomainError("n must be a positive integer")
        if not 0.0 < self.p < 1.0:
            raise DomainError("p must lie in the open interval (0, 1)")

    @property
    def mean(self) -> float:
        return self.n * self.p


def log_pmf(spec: BinomialSpec, k: int) -> float:
    """Natural log of P[B = k]."""
    n, p = spec.n, spec.p
    if k < 0 or k > n:
        raise DomainError(f"k={k} outside [0, {n}]")
    return (
        lgamma(n + 1)
        - lgamma(k + 1)
        - lgamma(n - k + 1)
        + k * log(p)
        + (n - k) * log1p(-p)
    )


def upper_tail(spec: BinomialSpec, k: int) -> float:
    """P[B >= k].

    The sum runs over whichever tail has fewer terms; the complement is
    used only when the summed mass is at most one half, which keeps the
    final subtraction free of cancellation.
    """
    n = spec.n
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    n_upper = n - k + 1
    if n_upper <= k:
        return fsum(exp(log_pmf(spec, i)) for i in range(k, n + 1))
    lower = fsum(exp(log_pmf(spec, i)) for i in range(k))
    if lower <= 0.5:
        return 1.0 - lower
    return fsum(exp(log_pmf(spec, i)) for i in range(k, n + 1))


def expected_positive_part(spec: BinomialSpec, a: float) -> float:
    """E[max(0, B - a)]; equals E[B] - a whenever a <= 0."""
    start = max(0, int(floor(a)) + 1)
    return fsum((k - a) * exp(log_pmf(spec, k)) for k in range(start, spec.n + 1))


def feller_point_bound(spec: BinomialSpec, i: int) -> float:
    """The single-term tail estimate ((i - i p)/(i - n p)) * P[B = i].

    Dominates P[B >= i]; only valid strictly above the mean.
    """
    n, p = spec.n, spec.p
    if not i > n * p:
        raise DomainError(f"point bound requires i > n*p = {n * p!r}, got i={i}")
    factor = (i - i * p) / (i - n * p)
    return factor * exp(log_pmf(spec, i))


@lru_cache(maxsize=1)
def binomial_dist(spec: BinomialSpec, scale: float = 1.0) -> DiscreteDist:
    """The full pmf as a DiscreteDist on {0, scale, ..., n*scale}.

    For n in the thousands the log-gamma terms sum to one only within a few
    1e-12; the pmf is then renormalized and flagged, as ``convolve`` does.
    The last result is kept, so consecutive calls on one (spec, scale)
    share one read-only distribution.
    """
    if spec.n > MAX_SUPPORT_POINTS:
        raise ResourceLimitError(
            f"binomial pmf would need {spec.n + 1} points (limit {MAX_SUPPORT_POINTS})"
        )
    probs = [exp(log_pmf(spec, k)) for k in range(spec.n + 1)]
    return renormalized_dist([k * scale for k in range(spec.n + 1)], probs)
