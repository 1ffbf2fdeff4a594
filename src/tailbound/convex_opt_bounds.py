"""Bounds built from convex functions increasing above the threshold.

The optimal member of that family is piecewise linear, which reduces the
search to integer breakpoints below the threshold; a fixed exponential
rate yields the sharpened multiplicative-factor bound; and a one-term tail
estimate yields the binomial comparison bound.
"""

from __future__ import annotations

from math import ceil, e, exp
from typing import Any, Sequence

from .binomial_core import BinomialSpec, binomial_dist, log_pmf, upper_tail
from .classic_bounds import (
    BoundReport,
    _require_integer_t,
    hoeffding_bound,
    make_report,
    mean_regime,
    optimal_exp_rate,
)
from .distributions import best_linear_cut
from .errors import PreconditionError


def bentkus_linear_bound(specs: Sequence[Any], t: float) -> BoundReport:
    """min over integers j < t of E[max(0, B - j)] / (t - j), B ~ Bin(n, p).

    The objective, as a function of the slope of the underlying piecewise
    linear test function, is continuous and piecewise linear, so only the
    integer breakpoints j in {0, ..., ceil(t)-1} can be optimal.  Ties are
    broken toward the largest j for deterministic output.
    """
    n, p = mean_regime(specs, t)
    value, j_star = best_linear_cut(binomial_dist(BinomialSpec(n, p)), t)
    return make_report("bentkus_linear", value, {"epsilon": j_star})


def missing_factor_threshold(n: int, p: float) -> float:
    """Smallest t for which the sharpened factor bound applies: e*n*p/(e*p - p + 1)."""
    return e * n * p / (e * p - p + 1.0)


def missing_factor_bound(specs: Sequence[Any], t: float) -> BoundReport:
    """The exponential bound sharpened by the factor (1+h)/e^h < 1.

    With H the optimized exponential bound at rate h (e^h = t(1-p)/(p(n-t)))
    and T the below-threshold part sum(i<t) e^{h(i-t)} P[B=i], the value is

        ((1+h)/e^h) (H - T) + (1 - (1+h)/e^h) P[B = t].

    Requires integer t with e*n*p/(e*p - p + 1) <= t < n, which is exactly
    h >= 1.  The rate is not searched; the closed form above is optimal for
    the exponential family.
    """
    n, p = mean_regime(specs, t)
    t = _require_integer_t(t, "the missing-factor bound")
    threshold = missing_factor_threshold(n, p)
    if t + 1e-12 < threshold:
        min_t = int(ceil(threshold - 1e-12))
        raise PreconditionError(
            f"threshold t={t} below the admissible range: need "
            f"{threshold!r} <= t < {n} (smallest admissible integer t is {min_t})"
        )
    spec = BinomialSpec(n, p)
    h = optimal_exp_rate(n, p, t)
    factor = (1.0 + h) * exp(-h)
    hoeffding_value = hoeffding_bound(specs, t).value
    correction = sum(exp(h * (i - t) + log_pmf(spec, i)) for i in range(t))
    point_mass = exp(log_pmf(spec, t))
    raw = factor * (hoeffding_value - correction) + (1.0 - factor) * point_mass
    return make_report("missing_factor", raw, {"h": h, "factor": factor})


def binomial_comparison_bound(specs: Sequence[Any], t: float) -> BoundReport:
    """((t - t p)/(t - n p)) * P[B >= t] for integer t; the factor can exceed
    1/P[B >= t] near n*p, in which case the value clamps to one."""
    n, p = mean_regime(specs, t)
    t = _require_integer_t(t, "the binomial comparison bound")
    factor = (t - t * p) / (t - n * p)
    raw = factor * upper_tail(BinomialSpec(n, p), t)
    return make_report("binomial_comparison", raw, {"factor": factor})
