"""Closed-form tail bounds that need only the mean, or mean plus variance.

Every bound function returns a :class:`BoundReport`; values above one are
clipped to one and flagged rather than rejected, since such a bound is
vacuous but not wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, floor, fsum, log, log1p
from typing import Any, Mapping, Sequence

from .errors import DomainError


def require_regime(n: int, p_bar: float, t: float) -> None:
    """Raise :class:`DomainError` unless t lies in the nontrivial regime
    n*p_bar < t < n, where p_bar is the average mean."""
    if not n * p_bar < t < n:
        raise DomainError(
            f"t must exceed n*p = {n * p_bar!r} and lie below n = {n}, got {t!r}"
        )


def mean_regime(specs: Sequence[Any], t: float) -> tuple[int, float]:
    """The count n and average mean p_bar of per-variable class specs, after
    :func:`require_regime` has accepted t for them."""
    if not specs:
        raise DomainError("at least one variable spec is required")
    n = len(specs)
    p_bar = fsum(spec.mean for spec in specs) / n
    require_regime(n, p_bar, t)
    return n, p_bar


def _require_integer_t(t: float, what: str) -> int:
    if not float(t).is_integer():
        raise DomainError(
            f"{what} is defined for integer thresholds only; "
            f"apply it at floor(t)={floor(t)} (the tail at t is at most the tail there)"
        )
    return int(t)


@dataclass(frozen=True)
class VarianceClassSpec:
    """Mean/variance pair (p, sigma2) with 0 < sigma2 <= p(1-p)."""

    p: float
    sigma2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise DomainError("p must lie in (0, 1)")
        cap = self.p * (1.0 - self.p)
        if not 0.0 < self.sigma2 <= cap + 1e-15:
            raise DomainError(
                f"sigma2 must satisfy 0 < sigma2 <= p(1-p) = {cap!r}, got {self.sigma2!r}"
            )

    @property
    def mean(self) -> float:
        return self.p


@dataclass(frozen=True)
class BoundReport:
    """A computed bound value with its method tag and optimizer witnesses.

    ``clamped`` is set exactly when the raw formula exceeded one and the
    value was clipped.  The trailing context fields carry the instance the
    bound was computed for; the bound functions leave them None and
    ``cli.compute_bounds`` sets them for serialization.
    """

    method: str
    value: float
    witness: Mapping[str, Any] | None = None
    clamped: bool = False
    n: int | None = None
    p_or_q1: float | None = None
    sigma2: float | None = None
    t: float | None = None


def make_report(
    method: str, raw: float, witness: Mapping[str, Any] | None = None
) -> BoundReport:
    """Clamp a raw bound into [0, 1] and wrap it in a report."""
    clamped = raw > 1.0
    value = 1.0 if clamped else max(0.0, raw)
    return BoundReport(method, value, witness, clamped)


def markov_bound(specs: Sequence[Any], t: float) -> BoundReport:
    """P[S >= t] <= E[S] / t for a nonnegative sum."""
    if t <= 0.0:
        raise DomainError("t must be positive")
    return make_report("markov", fsum(spec.mean for spec in specs) / t)


def _log_hoeffding(n: int, p: float, t: float) -> float:
    return t * (log(p) + log(n - t) - log(t) - log1p(-p)) + n * (
        log1p(-p) + log(n) - log(n - t)
    )


def optimal_exp_rate(n: int, p: float, t: float) -> float:
    """The minimizing rate h of exp(-h t) (1 - p + p e^h)^n, as a log."""
    return log(t) + log1p(-p) - log(p) - log(n - t)


def hoeffding_bound(specs: Sequence[Any], t: float) -> BoundReport:
    """The optimized exponential-moment bound
    (p(n-t)/(t(1-p)))^t ((1-p)n/(n-t))^n, computed in log space."""
    n, p = mean_regime(specs, t)
    value = exp(_log_hoeffding(n, p, t))
    return make_report("hoeffding", value, {"h": optimal_exp_rate(n, p, t)})


def hoeffding_exp_bound(specs: Sequence[Any], t: float) -> BoundReport:
    """The looser but more common form exp(-2 n (t/n - p)^2)."""
    n, p = mean_regime(specs, t)
    value = exp(-2.0 * n * (t / n - p) ** 2)
    return make_report("hoeffding_exp", value)


def bennett_bound(n: int, vclass: VarianceClassSpec, t: float) -> BoundReport:
    """Variance-aware exponential bound ((a/b)^b ((1-a)/(1-b))^(1-b))^n with
    a = s2/(s2+(1-p)^2) and b = (s2 + (t/n - p)(1-p))/(s2+(1-p)^2)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError("n must be a positive integer")
    p, s2 = vclass.p, vclass.sigma2
    require_regime(n, p, t)
    denom = s2 + (1.0 - p) ** 2
    alpha = s2 / denom
    beta = (s2 + (t / n - p) * (1.0 - p)) / denom
    if beta >= 1.0:
        raise DomainError("threshold too large: mixture parameter reached 1")
    log_value = n * (beta * log(alpha / beta) + (1.0 - beta) * log((1.0 - alpha) / (1.0 - beta)))
    return make_report("bennett", exp(log_value), {"alpha": alpha, "beta": beta})
