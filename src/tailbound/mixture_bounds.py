"""Bounds that exploit conditional information or a known variance.

A variable on [0,1] restricted to a cell of a partition is dominated, in
convex order, by the two-point variable on the cell endpoints with the
same mean.  Mixing those per-cell envelopes yields distributions supported
on the partition breakpoints that dominate every class member, and the
usual machinery (exponential rates, optimal piecewise-linear cuts) then
applies to the envelope instead of the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, fsum, log, sqrt
from typing import Sequence

from ._search import minimize_exp_tail
from .classic_bounds import (
    BoundReport,
    VarianceClassSpec,
    make_report,
    mean_regime,
    optimal_exp_rate,
)
from .distributions import DiscreteDist, best_linear_cut, convolve
from .errors import DomainError


@dataclass(frozen=True)
class PartitionSpec:
    """Breakpoints 0 = r_0 < r_1 < ... < r_m = 1 splitting [0,1] into m >= 2
    cells; every cell is closed on the left, and the last also on the right."""

    breakpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        r = tuple(float(v) for v in self.breakpoints)
        if len(r) < 3:
            raise DomainError("a partition needs at least two cells (three breakpoints)")
        if r[0] != 0.0 or r[-1] != 1.0:
            raise DomainError("breakpoints must start at exactly 0 and end at exactly 1")
        for a, b in zip(r, r[1:]):
            if not a < b:
                raise DomainError("breakpoints must be strictly ascending")
        object.__setattr__(self, "breakpoints", r)

    @property
    def n_cells(self) -> int:
        return len(self.breakpoints) - 1

    def cell_index(self, x: float) -> int:
        """1-based index of the cell containing x in [0, 1]."""
        r = self.breakpoints
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"value {x!r} outside [0, 1]")
        for j in range(1, len(r)):
            if x < r[j]:
                return j
        return self.n_cells


def _check_cell_mean(partition: PartitionSpec, j: int, mu_j: float) -> bool:
    r = partition.breakpoints
    m = partition.n_cells
    if j < m:
        return r[j - 1] <= mu_j < r[j]
    return r[m - 1] <= mu_j <= 1.0


@dataclass(frozen=True)
class ConditionalMeansSpec:
    """One variable's description: partition, per-cell conditional means,
    and overall mean p, with mu_1 <= p <= mu_m."""

    partition: PartitionSpec
    mu: tuple[float, ...]
    p: float

    def __post_init__(self) -> None:
        mu = tuple(float(v) for v in self.mu)
        if len(mu) != self.partition.n_cells:
            raise DomainError(
                f"one conditional mean per cell is required (m={self.partition.n_cells})"
            )
        for j, mu_j in enumerate(mu, start=1):
            if not _check_cell_mean(self.partition, j, mu_j):
                raise DomainError(
                    f"conditional mean mu_{j}={mu_j!r} lies outside cell {j}"
                )
        if not 0.0 < self.p < 1.0:
            raise DomainError("p must lie in (0, 1)")
        if not mu[0] <= self.p <= mu[-1]:
            raise DomainError(
                f"overall mean p={self.p!r} must lie between mu_1 and mu_m"
            )
        object.__setattr__(self, "mu", mu)

    @property
    def mean(self) -> float:
        return self.p


@dataclass(frozen=True)
class ConditionalProbsSpec:
    """One variable's description: partition, per-cell probabilities q_j
    summing to one, and overall mean p achievable under those masses."""

    partition: PartitionSpec
    q: tuple[float, ...]
    p: float

    def __post_init__(self) -> None:
        q = tuple(float(v) for v in self.q)
        if len(q) != self.partition.n_cells:
            raise DomainError(
                f"one cell probability per cell is required (m={self.partition.n_cells})"
            )
        if any(v < 0.0 for v in q):
            raise DomainError("cell probabilities must be nonnegative")
        total = fsum(q)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"cell probabilities sum to {total!r}, not 1")
        if not 0.0 < self.p < 1.0:
            raise DomainError("p must lie in (0, 1)")
        r = self.partition.breakpoints
        lo = fsum(qj * r[j] for j, qj in enumerate(q))
        hi = fsum(qj * r[j + 1] for j, qj in enumerate(q))
        if not lo - 1e-12 <= self.p <= hi + 1e-12:
            raise DomainError(
                f"mean p={self.p!r} unreachable under the cell masses: "
                f"feasible range is [{lo!r}, {hi!r}]"
            )
        object.__setattr__(self, "q", q)

    @property
    def mean(self) -> float:
        return self.p


def mix_envelope(x: DiscreteDist, partition: PartitionSpec) -> DiscreteDist:
    """Replace each cell's conditional distribution with its two-endpoint
    envelope and mix; the output lives on the breakpoints, keeps the mean of
    x exactly, and dominates x in convex order."""
    r = partition.breakpoints
    pairs = []
    for s, q in zip(x.support.tolist(), x.probs.tolist()):
        if q == 0.0:
            continue
        j = partition.cell_index(s)
        left_share = (r[j] - s) / (r[j] - r[j - 1])
        pairs += [(r[j - 1], q * left_share), (r[j], q * (1.0 - left_share))]
    return DiscreteDist.from_pairs((rj, w) for rj, w in pairs if w > 0.0)


def conditional_means_bound(
    specs: Sequence[ConditionalMeansSpec], t: float
) -> BoundReport:
    """Exponential bound using only the first and last conditional means.

    Each variable is dominated by a mixture of the first cell's and the
    last cell's endpoint envelopes, weighted to reproduce its overall mean;
    the averaged mixture has mass pi_1..pi_4 on (0, r_1, r_{m-1}, 1) and
    the bound is inf over h > 0 of
    exp(-h t) (pi_1 + e^{h r_1} pi_2 + e^{h r_{m-1}} pi_3 + e^{h} pi_4)^n.
    """
    # empty specs pass this check and are refused by mean_regime
    if any(spec.partition != specs[0].partition for spec in specs):
        raise DomainError("all variables must share the same partition")
    n, _ = mean_regime(specs, t)
    r = specs[0].partition.breakpoints
    m = specs[0].partition.n_cells
    q_list, s_list, u_list = [], [], []
    for spec in specs:
        # the spec guarantees mu_1 < r_1 <= r_{m-1} <= mu_m and mu_1 <= p <= mu_m
        mu1, mum = spec.mu[0], spec.mu[-1]
        q_list.append((mum - spec.p) / (mum - mu1))
        s_list.append((r[1] - mu1) / (r[1] - r[0]))
        u_list.append((r[m] - mum) / (r[m] - r[m - 1]))
    pi1 = fsum(q * s for q, s in zip(q_list, s_list)) / n
    pi2 = fsum(q * (1.0 - s) for q, s in zip(q_list, s_list)) / n
    pi3 = fsum((1.0 - q) * u for q, u in zip(q_list, u_list)) / n
    pi4 = fsum((1.0 - q) * (1.0 - u) for q, u in zip(q_list, u_list)) / n
    envelope = DiscreteDist.from_pairs(
        [(0.0, pi1), (r[1], pi2), (r[m - 1], pi3), (1.0, pi4)]
    )
    value, h_star = minimize_exp_tail(envelope.support.tolist(), envelope.probs.tolist(), n, t)
    return make_report(
        "conditional_means",
        value,
        {"h": h_star, "pi1": pi1, "pi2": pi2, "pi3": pi3, "pi4": pi4},
    )


def _lp_extremal_means(spec: ConditionalProbsSpec) -> tuple[float, ...]:
    """Conditional means maximizing the envelope's exponential moment.

    For any rate h > 0 the objective is linear in each cell mean with
    per-unit-of-mean gain q_j * (chord slope of e^{hx} over cell j); the
    constraint sum q_j mu_j = p prices each unit of mu_j at q_j, so the
    gain per unit of budget is the chord slope alone, increasing with the
    cell for every h.
    Filling cells greedily from the top therefore reaches the optimum, a
    vertex with at most one cell mean strictly inside its box.
    """
    r = spec.partition.breakpoints
    m = spec.partition.n_cells
    mus = [r[j - 1] for j in range(1, m + 1)]
    budget = spec.p - fsum(qj * mu for qj, mu in zip(spec.q, mus))
    for j in range(m, 0, -1):
        if budget <= 0.0:
            break
        if spec.q[j - 1] == 0.0:
            continue
        capacity = spec.q[j - 1] * (r[j] - r[j - 1])
        take = min(budget, capacity)
        # rounding must not push a filled mean past its cell's upper endpoint
        mus[j - 1] = min(mus[j - 1] + take / spec.q[j - 1], r[j])
        budget -= take
    return tuple(mus)


def conditional_probs_bound(
    specs: Sequence[ConditionalProbsSpec], t: float
) -> BoundReport:
    """Exponential bound for n variables sharing one known-cell-probabilities
    spec.

    At the rate h with e^h = t(1-p)/(p(n-t)) -- the optimal rate for the
    mean-only exponential bound -- the worst envelope over all admissible
    conditional means solves a box-constrained linear program with one
    budget constraint; its greedy vertex solution gives the reported value
    exp(-h t) (E[e^{h xi}])^n.
    """
    n, _ = mean_regime(specs, t)
    spec = specs[0]
    if specs.count(spec) != n:
        raise DomainError(
            "the conditional-probabilities bound requires one shared (partition, q, p) spec"
        )
    h = optimal_exp_rate(n, spec.p, t)
    mus = _lp_extremal_means(spec)
    # a full cell's mean equals the next cell's lower endpoint, so only the
    # cells with mass keep the support strictly ascending
    active = [(mu, qj) for mu, qj in zip(mus, spec.q) if qj > 0.0]
    xi = mix_envelope(DiscreteDist(*zip(*active)), spec.partition)
    mgf = fsum(q * exp(h * s) for s, q in zip(xi.support.tolist(), xi.probs.tolist()))
    value = exp(-h * t + n * log(mgf))
    return make_report("conditional_probs", value, {"h": h, "mu": mus, "xi": xi})


def xi_distribution(vclass: VarianceClassSpec) -> DiscreteDist:
    """The three-point distribution on {0, p, 1} dominating, in convex
    order, every mean-p variance-sigma2 variable.

    The mass at p is minimized subject to the class constraints; the
    optimal split (l1, l2) of the deviations around p has the closed form
    below, with the case boundaries resolved to the symmetric branch when
    sigma <= min(p, 1-p).
    """
    p, s2 = vclass.p, vclass.sigma2
    sigma = sqrt(s2)
    if sigma > 1.0 - p:
        denom = (1.0 - p) ** 2 + s2
        p0 = s2 * (1.0 - p) / (p * denom)
        pp = (1.0 - p) * ((1.0 - p) * p - s2) / (p * denom)
        p1 = s2 / denom
    elif sigma > p:
        denom = p * p + s2
        p0 = s2 / denom
        pp = p * ((1.0 - p) * p - s2) / ((1.0 - p) * denom)
        p1 = p * s2 / ((1.0 - p) * denom)
    else:
        p0 = sigma / (2.0 * p)
        pp = 1.0 - sigma / (2.0 * (1.0 - p) * p)
        p1 = sigma / (2.0 - 2.0 * p)
    return DiscreteDist((0.0, p, 1.0), (p0, pp, p1))


@lru_cache(maxsize=1)
def _xi_sum(vclasses: tuple[VarianceClassSpec, ...]) -> DiscreteDist:
    """The exact convolution of the per-variable three-point envelopes; the
    last result is kept, so consecutive thresholds on one row share it."""
    xis = {v: xi_distribution(v) for v in dict.fromkeys(vclasses)}
    return convolve([xis[v] for v in vclasses])


def xi_sum_bound(vclasses: Sequence[VarianceClassSpec], t: float) -> BoundReport:
    """Optimal piecewise-linear bound against the exact convolution of the
    per-variable three-point envelopes.

    The cut is ``best_linear_cut`` over the support of the sum.
    """
    mean_regime(vclasses, t)
    best_value, best_eps = best_linear_cut(_xi_sum(tuple(vclasses)), t)
    return make_report("xi_sum", best_value, {"epsilon": best_eps})
