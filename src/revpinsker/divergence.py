"""Evaluation of f-divergences on discrete distribution pairs.

D_f is one sum, :func:`batch_f_divergence`, which checks its rows first;
:func:`f_divergence` is that sum for one row.  A batch with every q > 0,
as the oracle's sampled batches have, takes the sum without masks, and
when it has fewer than 8 columns and at least 256 rows adds the terms a
column at a time (:func:`_row_sums`), the order ``ndarray.sum(axis=1)``
takes there, so the values are its own without its fixed cost per row.
Both load numpy on first use; ``measure_pair``, ``renyi_from_hellinger``
and ``renyi_divergence`` are plain ``math``."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .distributions import (
    Distribution,
    check_absolutely_continuous,
    ratio_extremes,
    total_variation,
)
from .errors import LengthMismatch, LogDomain, NotAbsolutelyContinuous
from .generators import Generator, check_alpha

if TYPE_CHECKING:
    import numpy as np


def f_divergence(gen: Generator, P: Distribution, Q: Distribution) -> float:
    """D_f(P || Q) of one pair: :func:`batch_f_divergence` of the pair as a
    single row."""
    import numpy as np

    return float(batch_f_divergence(gen, np.array([P.values]), np.array([Q.values]))[0])


def batch_f_divergence(gen: Generator, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise D_f = sum over q_i > 0 of q_i * f(p_i / q_i), for stacked
    weight arrays of shape (trials, n).

    Terms with p_i = 0 contribute q_i * f(0+), which may make a row +inf.
    Raises LengthMismatch when p and q differ in shape, and
    NotAbsolutelyContinuous when a row has p_i > 0 where q_i = 0: that D_f
    is not the sum over q_i > 0.

    When every q_i > 0 the ratios are p / q, and the result of
    ``Generator.evaluate`` takes the product with q in place.  Otherwise a
    q_i = 0 term reads ratio 1 and is masked to 0.  Both give the same bits
    on a batch with every q_i > 0.

    The rows of the unmasked path are summed by ``_row_sums`` when the
    batch has fewer than 8 columns and at least 256 rows, as the oracle's
    sampled batches of up to 7 atoms have: numpy runs down the rows, one
    column at a time, which is the order ``ndarray.sum(axis=1)`` takes
    below 8 columns in any memory layout, so the sums are the same bits.
    Any other batch, such as ``f_divergence``'s one row, and the masked
    path keep ``ndarray.sum``.
    """
    import numpy as np

    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatch(f"weight arrays differ in shape: {p.shape} vs {q.shape}")
    support = q > 0
    # count_nonzero of a bool array costs about half of .all() on small ones
    if np.count_nonzero(support) == support.size:
        # no masked divide; evaluate's result is a fresh array, so the
        # product goes in place
        terms = gen.evaluate(p / q)
        terms *= q
        # ndarray.sum runs along each short row at a fixed cost per row, which
        # outweighs the column loop's from about 200 rows at n = 6; from 8
        # columns its order along a C-ordered row is pairwise
        if terms.shape[1] < 8 and len(terms) >= 256:
            return _row_sums(terms)
        return terms.sum(axis=1)
    if (p[~support] > 0).any():
        raise NotAbsolutelyContinuous("P has mass where Q has none")
    ratios = np.divide(p, q, out=np.ones_like(p), where=support)
    return np.where(support, q * gen.evaluate(ratios), 0.0).sum(axis=1)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=1)`` of a 2-D array with fewer than 8 columns,
    computed down the rows a column at a time.

    ndarray.sum runs its inner loop along each row and pays a fixed cost
    per row; here numpy runs down the rows and Python loops over the
    columns.  Below 8 columns numpy's row sum is a running sum from +0.0
    in every memory layout, so this is the same float operations in the
    same order (a row of -0.0 sums to +0.0).  From 8 columns numpy sums a
    C-ordered row pairwise, which this does not follow.
    """
    import numpy as np

    total = np.zeros(len(terms))
    for col in terms.T:
        total += col
    return total


def renyi_from_hellinger(alpha: float, h: float) -> float:
    """Renyi divergence of order alpha from the Hellinger divergence of the
    same order: log(1 + (alpha-1) h) / (alpha - 1).  h = +inf gives +inf
    for alpha > 1; a log argument that is not > 0 (h = +inf with alpha < 1,
    or NaN) raises LogDomain.  h = 0 gives +0.0 for every alpha."""
    alpha = check_alpha(alpha)
    x = (alpha - 1.0) * float(h)
    if not (x > -1.0):
        raise LogDomain(f"log argument 1 + {x!r} is not > 0")
    # log1p keeps the digits of a small x that 1 + x would round away
    return math.log1p(x) / (alpha - 1.0) + 0.0  # -0.0 + 0.0 is +0.0


def renyi_divergence(
    alpha: float, h: float, pair: tuple[Distribution, Distribution] | None = None
) -> float:
    """Renyi divergence of order alpha from h, the Hellinger divergence of
    the same order: ``renyi_from_hellinger(alpha, h)``.  Where h overflowed
    to +inf (alpha > 1) and ``pair`` = (P, Q) is the pair h was measured on,
    the value is taken from the pair in the log domain instead:
    log(sum p_i**alpha q_i**(1-alpha)) / (alpha - 1), the sum of exponentials
    shifted by its largest term.  Without a pair an overflowed h gives +inf,
    and a pair with mass where Q has none raises NotAbsolutelyContinuous."""
    alpha = check_alpha(alpha)
    if not (h == math.inf and alpha > 1.0 and pair is not None):
        return renyi_from_hellinger(alpha, h)
    P, Q = pair
    check_absolutely_continuous(P, Q)
    logs = [alpha * math.log(p) + (1.0 - alpha) * math.log(q)
            for p, q in zip(P.values, Q.values) if p > 0.0]
    top = max(logs)
    return (top + math.log(math.fsum(math.exp(x - top) for x in logs))) / (alpha - 1.0)


def measure_pair(P: Distribution, Q: Distribution) -> tuple[float, float, float]:
    """Measured (delta, m, M) of a concrete pair."""
    delta = total_variation(P, Q)
    m, M = ratio_extremes(P, Q)
    return delta, m, M
