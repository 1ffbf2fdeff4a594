"""Finite discrete distributions on the real line.

``DiscreteDist`` is the shared currency of the package: envelope
constructions, exact convolutions and the order-checking oracle all speak
it.  Its support and probabilities are read-only float64 numpy arrays;
queries select terms with masks and sum them with ``math.fsum``, and the
merge and the linear cut sum small groups or nonnegative terms, so results
track the exact values to within a few ulp at the support sizes here.
Loops that visit one point at a time read ``.tolist()`` first.
numpy is imported when a distribution is first built, so importing the
package and parsing instances need only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _same_point(a, b):
    """Elementwise: values within 1e-12 max(1, |a|, |b|) are one point."""
    import numpy as np
    return np.abs(a - b) <= MERGE_REL_TOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


@dataclass(frozen=True, eq=False)
class DiscreteDist:
    """A probability distribution with finite real support.

    ``support`` and ``probs`` are read-only float64 arrays.  The support
    must be strictly ascending.  Probabilities in ``(-1e-15, 0)`` are
    clipped to zero; anything more negative is rejected.  The total mass
    must equal one within ``1e-12``.  Zero-mass support points are allowed
    (grid-shaped distributions keep their full grid).  Two distributions
    are equal when their arrays are; ``renormalized`` is not compared.
    """

    support: np.ndarray
    probs: np.ndarray
    renormalized: bool = False

    def __post_init__(self) -> None:
        import numpy as np
        support = np.array(self.support, dtype=float)
        probs = np.array(self.probs, dtype=float)
        if support.ndim != 1 or not support.size or support.shape != probs.shape:
            raise DomainError(
                "support and probs must be nonempty sequences of equal length"
            )
        if not np.all(support[:-1] < support[1:]):
            raise DomainError("support must be strictly ascending")
        bad = ~(probs >= NEG_PROB_FLOOR)
        if bad.any():
            q = float(probs[bad.argmax()])
            raise DomainError(f"probability {q!r} is negative or not a number")
        probs[~(probs > 0.0)] = 0.0
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(f"probabilities sum to {total!r}, not 1")
        support.flags.writeable = probs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDist):
            return NotImplemented
        import numpy as np
        return np.array_equal(self.support, other.support) and np.array_equal(
            self.probs, other.probs
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def point_mass(cls, x: float) -> "DiscreteDist":
        return cls((float(x),), (1.0,))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "DiscreteDist":
        """Build from (value, probability) pairs, merging nearby values."""
        import numpy as np
        values, probs = np.array(list(pairs), dtype=float).reshape(-1, 2).T
        return cls(*_merged(values, probs))

    # -- queries ---------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.support.size

    def mean(self) -> float:
        return math.fsum((self.support * self.probs).tolist())

    def moment(self, k: int) -> float:
        # Python's float power, not numpy's, whose SIMD loops may round differently
        return math.fsum(s**k * q for s, q in zip(self.support.tolist(), self.probs.tolist()))

    def expected_positive_part(self, a: float) -> float:
        """E[max(0, X - a)]."""
        above = self.support > a
        return math.fsum(((self.support[above] - a) * self.probs[above]).tolist())

    def upper_tail(self, a: float) -> float:
        """P[X >= a]; support points within merge tolerance of ``a`` count."""
        s = self.support
        return math.fsum(self.probs[(s > a) | _same_point(s, a)].tolist())


def _merged(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort (value, prob) pairs and merge values within tolerance.

    Grouping is neighbour-to-neighbour: a new point starts where sorted
    neighbours fail ``_same_point``.  A merged point is the
    probability-weighted mean of its members, which keeps the mean, clipped
    to their span because with subnormal masses that ratio keeps only a few
    bits; a zero-mass group keeps its first member.
    """
    import numpy as np
    if not values.size:
        raise DomainError("no support points")
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    new = np.concatenate(([True], ~_same_point(values[:-1], values[1:])))
    starts = np.flatnonzero(new)
    mass = np.add.reduceat(probs, starts)
    first, last = values[new], values[np.append(new[1:], True)]
    weighted = np.add.reduceat(values * probs, starts)
    with np.errstate(invalid="ignore"):  # a zero-mass group divides 0 by 0
        mean = np.where(mass > 0.0, weighted / mass, first)
    return np.clip(mean, first, last), mass


def convolve(dists: Sequence[DiscreteDist]) -> DiscreteDist:
    """Exact distribution of a sum of independent finite-support variables.

    Support points agreeing within ``1e-12`` relative tolerance are merged.
    The output is renormalized, and flagged as such, only when the total
    mass drifts from one by more than ``1e-12``.
    """
    import numpy as np
    acc_support, acc_probs = np.zeros(1), np.ones(1)
    for dist in dists:
        live = dist.probs > 0.0
        support, probs = dist.support[live], dist.probs[live]
        if acc_support.size * support.size > MAX_SUPPORT_POINTS:
            raise ResourceLimitError(
                "convolution support would exceed "
                f"{MAX_SUPPORT_POINTS} points; coarsen the inputs"
            )
        acc_support, acc_probs = _merged(
            np.add.outer(acc_support, support).ravel(),
            np.multiply.outer(acc_probs, probs).ravel(),
        )
    return renormalized_dist(acc_support, acc_probs)


def renormalized_dist(support: Sequence[float], probs: Sequence[float]) -> DiscreteDist:
    """A distribution from computed probabilities whose total may drift from
    one by rounding; they are rescaled, and the result flagged, only when
    the drift exceeds ``1e-12``."""
    import numpy as np
    probs = np.asarray(probs, dtype=float)
    total = math.fsum(probs.tolist())
    renormalized = abs(total - 1.0) > PROB_SUM_TOL
    return DiscreteDist(support, probs / total if renormalized else probs, renormalized)


def best_linear_cut(dist: DiscreteDist, t: float) -> tuple[float, float]:
    """min over a in {0} union {support points in (0, t)} of
    E[max(0, X - a)] / (t - a), the optimal piecewise-linear tail bound.

    Between support points the ratio is monotone in a, so only these
    candidates can be optimal.  Ties break toward the largest candidate.
    Excesses accumulate from the top in linear time, adding nonnegative
    terms: E[(X-s_i)+] = E[(X-s_{i+1})+] + (s_{i+1}-s_i) P[X > s_i].
    Returns (value, a_star).
    """
    import numpy as np
    support = dist.support
    above = np.cumsum(dist.probs[:0:-1])[::-1]
    excess = np.append(np.cumsum((np.diff(support) * above)[::-1])[::-1], 0.0)
    at_zero = excess[0] + support[0] if support[0] >= 0.0 else dist.expected_positive_part(0.0)
    inside = slice(np.searchsorted(support, 0.0, "right"), np.searchsorted(support, t))
    candidates = np.append(0.0, support[inside])
    values = np.append(at_zero, excess[inside]) / (t - candidates)
    best = int(np.flatnonzero(values == values.min())[-1])
    return float(values[best]), float(candidates[best])
