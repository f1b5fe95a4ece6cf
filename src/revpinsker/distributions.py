"""Finite discrete probability distributions and their basic comparisons.

A Distribution is a tuple of floats, and the functions here use plain
``math``; numpy loads only when a caller reads ``Distribution.weights`` or
passes a batch to ``_validate_batch``.

Weights from outside the package follow one rule, checked here for a
vector (:func:`validate_distribution`) and for a batch
(``_validate_batch``, the entry of ``batch_f_divergence``):

- a weight is a ``bool``, an ``int`` or a ``float``, a Python value or a
  numpy one (dtype kind ``b``, ``i``, ``u`` or ``f``);
- a vector is one weight (one atom), a nonempty ``list`` or ``tuple`` of
  weights, or a 1-D numpy array of those kinds;
- a batch is two arrays of those kinds with the same 2-D shape.

Anything else raises EmptyVector: text, a mapping, a set, a
``memoryview``, an iterator, and ``Decimal``, ``Fraction`` or object items,
among others.  Then come the value checks: no NaN and no negative weight,
and for a vector a sum within SUM_TOLERANCE of one.

A number from outside the package (a total variation, a ratio extreme, an
order, a point t, a tolerance) follows the same rule as one weight, checked
by ``_real``: a Python or numpy ``bool``, ``int`` or ``float``, or a 0-d
array of those kinds, taken as a Python float.  Anything else raises
InvalidParams: text, ``Decimal``, ``Fraction``, an mpmath number, a complex
number, None and a sequence among others.  Then each entry checks its own
domain, NaN and +-inf included.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING

from .errors import (
    EmptyVector,
    InvalidParams,
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

#: numpy dtype kinds of a weight: bool, signed int, unsigned int, float
_WEIGHT_KINDS = frozenset("biuf")


def _sum(values) -> float:
    """Left-to-right float sum: numpy's order below 8 terms, and not the
    compensated sum that the builtin ``sum`` uses from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


class Distribution(Record):
    """A point on the probability simplex: nonnegative weights summing to one.

    Construct through :func:`validate_distribution`, or ``_normalized`` for
    weights the package computes.  ``values`` is the renormalized tuple of
    floats; ``weights`` is the same numbers as a read-only numpy array,
    built on first use and cached in the instance's ``__dict__``.  Two
    distributions are equal only when they are the same object.
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
    """Validate a weight vector from outside the package, by the rule in the
    module docstring, and return the normalized Distribution.

    Input that is no vector of weights raises EmptyVector; then come the
    value checks of ``_normalized``.  Weights the package computes itself
    go to ``_normalized`` directly, with the same value checks.
    """
    if _kind(weights) in _WEIGHT_KINDS:  # a numpy array or scalar of weights
        weights = weights.tolist()  # Python numbers, or nested lists past 1-D
    if isinstance(weights, (int, float)):
        weights = (weights,)
    if not (isinstance(weights, (list, tuple)) and weights and all(map(_is_weight, weights))):
        raise EmptyVector("need one weight, or a nonempty list, tuple or 1-D array of weights")
    return _normalized(tuple(map(float, weights)))


def _kind(x) -> str | None:
    """The numpy dtype kind of x, or None for an object that has none."""
    return getattr(getattr(x, "dtype", None), "kind", None)


def _is_weight(x) -> bool:
    """Whether x is one weight: a Python bool, int or float, or a numpy
    scalar of one of the _WEIGHT_KINDS."""
    return isinstance(x, (int, float)) or _kind(x) in _WEIGHT_KINDS and x.ndim == 0


def _real(x) -> float:
    """A number from outside the package as a float, by the number rule in
    the module docstring: one weight, else InvalidParams."""
    if type(x) is float:  # nearly every call: the package's own floats
        return x
    if _is_weight(x):
        return float(x)
    raise InvalidParams(f"need a bool, int or float, got {x!r}")


def _validate_batch(p, q) -> tuple[np.ndarray, np.ndarray]:
    """A batch of weight arrays from outside the package, p and q of shape
    (trials, n), as float arrays, by the rule in the module docstring.

    Raises EmptyVector when p or q is no array of weights, LengthMismatch
    when they differ in shape or are not 2-D, and NegativeWeight when an
    entry is negative or NaN.  A float64 array comes back as it is.
    """
    import numpy as np

    try:
        p, q = np.asarray(p), np.asarray(q)
    except ValueError:  # a ragged nesting
        raise EmptyVector("need 2-D arrays of weights, not ragged lists") from None
    if p.dtype.kind not in _WEIGHT_KINDS or q.dtype.kind not in _WEIGHT_KINDS:
        raise EmptyVector(f"need arrays of bool, int or float weights, not {p.dtype}, {q.dtype}")
    if p.shape != q.shape or p.ndim != 2:
        raise LengthMismatch(f"need p, q of one 2-D shape (trials, n), not {p.shape}, {q.shape}")
    # count_nonzero of a bool array costs about half of .all() on small ones
    if np.count_nonzero(p >= 0.0) != p.size or np.count_nonzero(q >= 0.0) != q.size:
        raise NegativeWeight("weights must be >= 0 and not NaN")
    return p.astype(float, copy=False), q.astype(float, copy=False)


def _normalized(w) -> Distribution:
    """The value checks on a nonempty sequence of floats, then the division
    by its sum: NaN (reported before a negative weight), negative weights,
    and a sum further than SUM_TOLERANCE from one are rejected."""
    for x in w:
        if not x >= 0.0:  # a NaN fails this too
            if any(y != y for y in w):
                raise NegativeWeight("NaN weight")
            raise NegativeWeight(f"negative weight in {list(w)!r}")
    s = _sum(w)
    if abs(s - 1.0) > SUM_TOLERANCE:
        raise SumOutOfTolerance(f"weights sum to {s!r}, not 1")
    return Distribution(tuple([x / s for x in w]))  # a list builds faster than a generator


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
