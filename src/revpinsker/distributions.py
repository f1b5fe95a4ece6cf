"""Finite discrete probability distributions and their basic comparisons.

A Distribution is a tuple of floats, and the functions here use plain
``math``; numpy loads only when a caller reads ``Distribution.weights``.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING

from .errors import (
    EmptyVector,
    LengthMismatch,
    NegativeWeight,
    NotAbsolutelyContinuous,
    Record,
    SumOutOfTolerance,
)

if TYPE_CHECKING:
    import numpy as np

#: Inputs are accepted when |sum(w) - 1| is at most this, then renormalized.
SUM_TOLERANCE = 1e-9


def _sum(values) -> float:
    """Left-to-right float sum: numpy's order below 8 terms, and not the
    compensated sum that the builtin ``sum`` uses from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


class Distribution(Record):
    """A point on the probability simplex: nonnegative weights summing to one.

    Construct through :func:`validate_distribution`.  ``values`` is the
    renormalized tuple of floats; ``weights`` is the same numbers as a
    read-only numpy array, built on first use and cached in the instance's
    ``__dict__``.  Two distributions are equal only when they are the same
    object.
    """

    _fields = ("values",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, values: tuple[float, ...]):
        object.__setattr__(self, "values", values)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        import numpy as np

        w = np.array(self.values, dtype=float)
        w.setflags(write=False)
        return w

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Distribution({list(self.values)!r})"


def validate_distribution(weights) -> Distribution:
    """Validate a weight vector and return the normalized Distribution.

    Takes a scalar (one atom), a sequence or a 1-D array.  Rejects empty or
    nested input, NaN and negative weights, and sums further than
    SUM_TOLERANCE from one.
    """
    if hasattr(weights, "tolist"):  # a numpy array or scalar
        weights = weights.tolist()
    if isinstance(weights, (int, float)):
        weights = (weights,)
    try:
        w = tuple(map(float, weights))
    except TypeError:
        raise EmptyVector("need a nonempty 1-D weight vector") from None
    if not w:
        raise EmptyVector("need a nonempty 1-D weight vector")
    if any(x != x for x in w):
        raise NegativeWeight("NaN weight")
    if any(x < 0.0 for x in w):
        raise NegativeWeight(f"negative weight in {list(w)!r}")
    s = _sum(w)
    if abs(s - 1.0) > SUM_TOLERANCE:
        raise SumOutOfTolerance(f"weights sum to {s!r}, not 1")
    return Distribution(tuple(x / s for x in w))


def _check_lengths(P: Distribution, Q: Distribution) -> None:
    if P.n != Q.n:
        raise LengthMismatch(f"support sizes differ: {P.n} vs {Q.n}")


def total_variation(P: Distribution, Q: Distribution) -> float:
    """Total variation distance, (1/2) * sum_i |p_i - q_i|, in [0, 1]."""
    _check_lengths(P, Q)
    return 0.5 * _sum(abs(p - q) for p, q in zip(P.values, Q.values))


def check_absolutely_continuous(P: Distribution, Q: Distribution) -> None:
    """Raise unless q_i = 0 implies p_i = 0 for every index."""
    _check_lengths(P, Q)
    if any(q == 0.0 and p > 0.0 for p, q in zip(P.values, Q.values)):
        raise NotAbsolutelyContinuous("P has mass where Q has none")


def ratio_extremes(P: Distribution, Q: Distribution) -> tuple[float, float]:
    """Min and max of p_i/q_i over the support of Q.

    Returns (m, M) with m <= 1 <= M; the Q-mean of the ratio is one, so both
    inequalities hold up to rounding and are enforced by a clamp.
    """
    check_absolutely_continuous(P, Q)
    ratios = [p / q for p, q in zip(P.values, Q.values) if q > 0.0]
    return min(min(ratios), 1.0), max(max(ratios), 1.0)
