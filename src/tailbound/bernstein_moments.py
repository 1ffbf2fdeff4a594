"""Moment-class machinery built on polynomial weight distributions.

A variable on [0,1] with known first m moments is dominated, in convex
order, by the lattice variable on {0, 1/m, ..., 1} whose weights are
C(m,j) E[X^j (1-X)^{m-j}] -- quantities determined by the moments alone.
This module constructs those weight distributions and the bounds that flow
from them, plus the extremal two-point member used to show no in-class
dominating variable exists once the variance is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, fsum
from typing import Sequence

from ._search import minimize_exp_tail
from .binomial_core import BinomialSpec, upper_tail
from .classic_bounds import (
    BoundReport,
    VarianceClassSpec,
    _require_integer_t,
    make_report,
    mean_regime,
)
from .distributions import MAX_SUPPORT_POINTS, DiscreteDist, best_linear_cut, convolve
from .errors import (
    DomainError,
    InfeasibleMomentError,
    InternalConsistencyError,
    PreconditionError,
    ResourceLimitError,
)

#: tolerance below which a computed polynomial weight counts as infeasible
WEIGHT_FLOOR = -1e-12


@dataclass(frozen=True)
class MomentVector:
    """The first m raw moments (mu_1, ..., mu_m) of a [0,1]-valued variable.

    A nonempty class requires 1 > mu_1 >= ... >= mu_m > 0; the zeroth
    moment is fixed at one by convention wherever expansions need it.
    """

    mu: tuple[float, ...]

    def __post_init__(self) -> None:
        mu = tuple(float(v) for v in self.mu)
        if not mu:
            raise DomainError("at least one moment is required")
        if not 0.0 < mu[0] < 1.0:
            raise DomainError("mu_1 must lie in (0, 1)")
        if not mu[-1] > 0.0:
            raise DomainError("all moments must be positive")
        for j, (a, b) in enumerate(zip(mu, mu[1:]), start=1):
            if not b <= a + 1e-12:
                raise DomainError(
                    f"moment sequence must be nonincreasing: mu_{j + 1}={b!r} > mu_{j}={a!r}"
                )
        object.__setattr__(self, "mu", mu)

    @property
    def m(self) -> int:
        return len(self.mu)

    @property
    def mean(self) -> float:
        return self.mu[0]


def _poly_weights(mv: MomentVector) -> list[float]:
    """Weights C(m,j) E[X^j (1-X)^{m-j}] expanded in the raw moments."""
    m = mv.m
    mus = (1.0,) + mv.mu  # index k -> mu_k with mu_0 = 1
    weights = []
    for j in range(m + 1):
        terms = [
            comb(m - j, k) * (-1) ** (m - j - k) * mus[m - k]
            for k in range(m - j + 1)
        ]
        weights.append(comb(m, j) * fsum(terms))
    return weights


def bernstein_weights(mv: MomentVector) -> DiscreteDist:
    """The dominating lattice distribution on {0, 1/m, ..., 1}.

    Raises :class:`InfeasibleMomentError` when any weight is below -1e-12,
    a certificate that no [0,1]-valued variable has these moments.  The
    result keeps the full grid (zero weights included) and has mean mu_1.
    """
    weights = _poly_weights(mv)
    for j, w in enumerate(weights):
        if w < WEIGHT_FLOOR:
            raise InfeasibleMomentError(
                f"moment sequence is infeasible: weight at {j}/{mv.m} is {w!r}"
            )
    weights = [max(w, 0.0) for w in weights]
    total = fsum(weights)
    support = tuple(j / mv.m for j in range(mv.m + 1))
    return DiscreteDist(support, tuple(w / total for w in weights))


def _shared_order(mvs: Sequence[MomentVector]) -> int:
    if not mvs:
        raise DomainError("at least one moment vector is required")
    m = mvs[0].m
    if any(mv.m != m for mv in mvs):
        raise DomainError("all moment vectors must share the same order m")
    return m


def t_nm_distribution(mvs: Sequence[MomentVector]) -> DiscreteDist:
    """Pointwise average of the per-variable lattice weight distributions."""
    m = _shared_order(mvs)
    weights = {mv: bernstein_weights(mv).probs.tolist() for mv in dict.fromkeys(mvs)}
    columns = zip(*(weights[mv] for mv in mvs))
    support = tuple(j / m for j in range(m + 1))
    return DiscreteDist(support, [fsum(column) / len(mvs) for column in columns])


def exp_moment_bound(mvs: Sequence[MomentVector], t: float) -> BoundReport:
    """inf over h > 0 of exp(-h t) (sum_j pi_j exp(h j / m))^n, with pi the
    averaged lattice weights."""
    n, _ = mean_regime(mvs, t)
    dist = t_nm_distribution(mvs)
    value, h_star = minimize_exp_tail(dist.support.tolist(), dist.probs.tolist(), n, t)
    return make_report("exp_moment", value, {"h": h_star})


@lru_cache(maxsize=1)
def _lattice_sum(mvs: tuple[MomentVector, ...]) -> DiscreteDist:
    """The exact convolution of the per-variable lattice distributions; the
    last result is kept, so consecutive thresholds on one row share it."""
    weights = {mv: bernstein_weights(mv) for mv in dict.fromkeys(mvs)}
    return convolve([weights[mv] for mv in mvs])


def z_nm_bound(mvs: Sequence[MomentVector], t: float) -> BoundReport:
    """Optimal piecewise-linear bound against the exact convolution of the
    per-variable lattice distributions on the grid {0, ..., n*m}/m."""
    m = _shared_order(mvs)
    n, _ = mean_regime(mvs, t)
    if n * m > MAX_SUPPORT_POINTS:
        raise ResourceLimitError(
            f"convolution grid would need {n * m} points (limit {MAX_SUPPORT_POINTS})"
        )
    value, a_star = best_linear_cut(_lattice_sum(tuple(mvs)), t)
    return make_report("z_nm", value, {"epsilon": a_star})


def power_mean_sequence(mvs: Sequence[MomentVector]) -> list[float]:
    """q_s = (1/n) sum_i mu_{i,s}^(1/s) for s = 1..m; nondecreasing in s."""
    m = _shared_order(mvs)
    n = len(mvs)
    qs = [fsum(mv.mu[s - 1] ** (1.0 / s) for mv in mvs) / n for s in range(1, m + 1)]
    for s, (a, b) in enumerate(zip(qs, qs[1:]), start=1):
        if b < a - 1e-12:
            raise InternalConsistencyError(
                f"power-mean sequence must be nondecreasing, got q_{s}={a!r} > q_{s + 1}={b!r}"
            )
    return qs


def refined_binomial_bound(mvs: Sequence[MomentVector], t: float) -> BoundReport:
    """Binomial-comparison bound refined by higher moments.

    With q_s the averaged s-th power means, an integer threshold t lying in
    (n q_j + 1, n q_{j+1} + 1] admits, for each s <= j, the comparison

        ((s t - s + 1)(1 - q_s) / (s (s t - s + 1 - n s q_s)))
            * P[Bin(n s, q_s) >= s t - s + 1],

    and the minimum over s is returned.  The s = 1 term is the plain
    binomial comparison at (n, q_1, t).
    """
    m = _shared_order(mvs)
    qs = power_mean_sequence(mvs)
    n, _ = mean_regime(mvs, t)
    t = _require_integer_t(t, "the refined binomial bound")
    j = 0
    for s in range(1, m + 1):
        if n * qs[s - 1] + 1.0 < t:
            j = s
    if j == 0:
        raise PreconditionError(
            f"t={t} admits no comparison interval: need t > n*q_1 + 1 = {n * qs[0] + 1.0!r} "
            f"(admissible range ({n * qs[0] + 1.0!r}, {n}))"
        )
    best_raw = None
    best_s = None
    for s in range(1, j + 1):
        q = qs[s - 1]
        cut = s * t - s + 1
        factor = cut * (1.0 - q) / (s * (cut - n * s * q))
        raw = factor * upper_tail(BinomialSpec(n * s, q), cut)
        if best_raw is None or raw < best_raw:
            best_raw, best_s = raw, s
    return make_report("refined_binomial", best_raw, {"s": float(best_s)})


def cohen_extremal(p: float, sigma2: float) -> DiscreteDist:
    """The two-point member of the mean-p variance-sigma2 class with the
    largest moments of every order: support {lambda, 1} with
    lambda = p - sigma2/(1-p)."""
    VarianceClassSpec(p, sigma2)
    lam = p - sigma2 / (1.0 - p)
    if lam < -1e-15:
        raise DomainError(f"support point lambda={lam!r} fell below 0")
    lam = max(lam, 0.0)
    prob_low = (1.0 - p) / (1.0 - lam)
    return DiscreteDist((lam, 1.0), (prob_low, 1.0 - prob_low))


def impossibility_witness(mu1: float, mu2: float) -> float:
    """A ratio strictly below one witnessing that no variable with the given
    first two moments dominates its whole class under increasing convex
    test functions.

    Two class members are built: the extremal two-point C on {lambda, 1}
    and C' on {0, mu2/mu1}.  For g(x) = max(0, (x-lambda)/(1-lambda)) the
    ratio E[g(C)] / E[g(C')] equals mu2/mu1 < 1, so C -- the only possible
    dominator -- fails against C'.
    """
    if not 0.0 < mu2 < mu1 < 1.0:
        raise DomainError("need 0 < mu2 < mu1 < 1")
    sigma2 = mu2 - mu1 * mu1
    if sigma2 <= 0.0:
        raise DomainError("need mu2 > mu1^2 so the implied variance is positive")
    c_dist = cohen_extremal(mu1, sigma2)
    upper_point = mu2 / mu1
    c_prime = DiscreteDist((0.0, upper_point), (sigma2 / mu2, mu1 * mu1 / mu2))
    lam = mu1 - sigma2 / (1.0 - mu1)

    def g(x: float) -> float:
        return max(0.0, (x - lam) / (1.0 - lam))

    num = fsum(q * g(s) for s, q in zip(c_dist.support.tolist(), c_dist.probs.tolist()))
    den = fsum(q * g(s) for s, q in zip(c_prime.support.tolist(), c_prime.probs.tolist()))
    return num / den
