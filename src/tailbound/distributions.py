"""Finite discrete distributions on the real line.

``DiscreteDist`` is the shared currency of the package: envelope
constructions, exact convolutions and the order-checking oracle all speak
it.  Probabilities are plain floats; every summation goes through
``math.fsum`` so results track the exact values to within a few ulp at the
support sizes that occur here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DomainError, ResourceLimitError

#: values above this floor are treated as zero probabilities (float dust)
NEG_PROB_FLOOR = -1e-15
#: probabilities must sum to one within this tolerance
PROB_SUM_TOL = 1e-12
#: support points closer than this (relative) are considered the same point
MERGE_REL_TOL = 1e-12
#: hard cap on support sizes produced by convolution
MAX_SUPPORT_POINTS = 1_000_000


def same_point(a: float, b: float) -> bool:
    """True when two support values should be treated as one point."""
    return abs(a - b) <= MERGE_REL_TOL * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class DiscreteDist:
    """A probability distribution with finite real support.

    The support must be strictly ascending.  Probabilities in
    ``(-1e-15, 0)`` are clipped to zero; anything more negative is
    rejected.  The total mass must equal one within ``1e-12``.
    Zero-mass support points are allowed (grid-shaped distributions keep
    their full grid).
    """

    support: tuple[float, ...]
    probs: tuple[float, ...]
    renormalized: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        support = tuple(float(s) for s in self.support)
        probs = [float(q) for q in self.probs]
        if not support or len(support) != len(probs):
            raise DomainError(
                "support and probs must be nonempty sequences of equal length"
            )
        for a, b in zip(support, support[1:]):
            if not a < b:
                raise DomainError("support must be strictly ascending")
        for q in probs:
            if q < NEG_PROB_FLOOR:
                raise DomainError(f"negative probability {q!r}")
        probs = [q if q > 0.0 else 0.0 for q in probs]
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", tuple(probs))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def point_mass(cls, x: float) -> "DiscreteDist":
        return cls((float(x),), (1.0,))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "DiscreteDist":
        """Build from (value, probability) pairs, merging nearby values."""
        support, probs = _merge_pairs(pairs)
        return cls(tuple(support), tuple(probs))

    # -- queries ---------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.support)

    def mean(self) -> float:
        return math.fsum(s * q for s, q in zip(self.support, self.probs))

    def moment(self, k: int) -> float:
        return math.fsum(s**k * q for s, q in zip(self.support, self.probs))

    def variance(self) -> float:
        m = self.mean()
        return math.fsum((s - m) ** 2 * q for s, q in zip(self.support, self.probs))

    def expected_positive_part(self, a: float) -> float:
        """E[max(0, X - a)]."""
        return math.fsum(
            (s - a) * q for s, q in zip(self.support, self.probs) if s > a
        )

    def upper_tail(self, a: float) -> float:
        """P[X >= a]; support points within merge tolerance of ``a`` count."""
        return math.fsum(
            q
            for s, q in zip(self.support, self.probs)
            if s > a or same_point(s, a)
        )

    def prob_at(self, x: float) -> float:
        """Mass carried by the support point at ``x`` (0 if absent)."""
        return math.fsum(
            q for s, q in zip(self.support, self.probs) if same_point(s, x)
        )


def _merge_pairs(pairs: Iterable[tuple[float, float]]) -> tuple[list[float], list[float]]:
    """Sort (value, prob) pairs and merge values within tolerance.

    Merged points take the probability-weighted mean of their members, which
    preserves the distribution mean exactly.
    """
    items = sorted((float(s), float(q)) for s, q in pairs)
    if not items:
        raise DomainError("no support points")
    support: list[float] = []
    probs: list[float] = []
    groups: list[list[tuple[float, float]]] = []
    anchor = None
    for s, q in items:
        if anchor is not None and same_point(anchor, s):
            groups[-1].append((s, q))
        else:
            groups.append([(s, q)])
            anchor = s
    for group in groups:
        mass = math.fsum(q for _, q in group)
        if mass > 0.0:
            value = math.fsum(s * q for s, q in group) / mass
        else:
            value = group[0][0]
        support.append(value)
        probs.append(mass)
    return support, probs


def convolve(dists: Sequence[DiscreteDist]) -> DiscreteDist:
    """Exact distribution of a sum of independent finite-support variables.

    Support points agreeing within ``1e-12`` relative tolerance are merged.
    The output is renormalized, and flagged as such, only when the total
    mass drifts from one by more than ``1e-12``.
    """
    acc_support: list[float] = [0.0]
    acc_probs: list[float] = [1.0]
    for dist in dists:
        live = [(s, q) for s, q in zip(dist.support, dist.probs) if q > 0.0]
        if len(acc_support) * len(live) > MAX_SUPPORT_POINTS:
            raise ResourceLimitError(
                "convolution support would exceed "
                f"{MAX_SUPPORT_POINTS} points; coarsen the inputs"
            )
        pairs = [
            (s0 + s1, q0 * q1)
            for s0, q0 in zip(acc_support, acc_probs)
            for s1, q1 in live
        ]
        acc_support, acc_probs = _merge_pairs(pairs)
    return renormalized_dist(acc_support, acc_probs)


def renormalized_dist(support: Sequence[float], probs: Sequence[float]) -> DiscreteDist:
    """A distribution from computed probabilities whose total may drift from
    one by rounding; they are rescaled, and the result flagged, only when
    the drift exceeds ``1e-12``."""
    total = math.fsum(probs)
    renormalized = abs(total - 1.0) > PROB_SUM_TOL
    if renormalized:
        probs = [q / total for q in probs]
    return DiscreteDist(tuple(support), tuple(probs), renormalized)


def best_linear_cut(dist: DiscreteDist, t: float) -> tuple[float, float]:
    """min over a in {0} union {support points in (0, t)} of
    E[max(0, X - a)] / (t - a), the optimal piecewise-linear tail bound.

    Between support points the ratio is monotone in a, so only these
    candidates can be optimal.  Ties break toward the largest candidate.
    Returns (value, a_star).
    """
    best_value, best_a = None, None
    for a in [0.0] + [s for s in dist.support if 0.0 < s < t]:
        value = dist.expected_positive_part(a) / (t - a)
        if best_value is None or value <= best_value:
            best_value, best_a = value, a
    return best_value, best_a
