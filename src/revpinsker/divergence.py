"""Evaluation of f-divergences on discrete distribution pairs.

D_f is one pipeline, :func:`batch_f_divergence`, whose docstring gives
its steps; :func:`f_divergence` is that pipeline for one pair of
Distributions, whose weights need no check.  Both load
numpy on first use; ``measure_pair`` and ``renyi_from_hellinger``, the
one Renyi transform, with its log-domain forms past overflow, are plain
``math``."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .distributions import (
    Distribution,
    _check_lengths,
    _real,
    _validate_batch,
    check_absolutely_continuous,
    ratio_extremes,
    total_variation,
)
from .errors import LogDomain, NotAbsolutelyContinuous
from .generators import Generator, check_alpha

if TYPE_CHECKING:
    import numpy as np

    from .bounds import ClassParams


def f_divergence(gen: Generator, P: Distribution, Q: Distribution) -> float:
    """D_f(P || Q) of one pair: :func:`batch_f_divergence` of the pair as a
    single row.  A Distribution's weights have passed the value checks
    (nonnegative and not NaN), so only the lengths are checked here."""
    import numpy as np

    _check_lengths(P, Q)
    return float(_f_rows(gen, np.array([P.values]), np.array([Q.values]))[0])


def batch_f_divergence(gen: Generator, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise D_f = sum over q_i > 0 of q_i * f(p_i / q_i), for stacked
    weight arrays of shape (trials, n).

    Terms with p_i = 0 contribute q_i * f(0+), which may make a row +inf.
    p and q come from outside the package, so they are checked by the
    weight rule of ``revpinsker.distributions`` (``_validate_batch``):
    EmptyVector for no array of weights, LengthMismatch for two shapes or
    not 2-D, NegativeWeight for a negative or NaN entry.  A row with
    p_i > 0 where q_i = 0 raises NotAbsolutelyContinuous: that D_f is not
    the sum over q_i > 0.

    Only the ratios depend on the support: p / q when every q_i > 0, else
    1 where q_i = 0.  Then ``Generator.evaluate`` gives f of the ratios, the
    product with q is taken in place, so a q_i = 0 term is 0 * f(1), a zero,
    and the rows are summed.  The sum is ``_row_sums`` for a batch of fewer
    than 8 columns and at least 256 rows, as the oracle's sampled batches
    of up to 7 atoms are, and ``ndarray.sum(axis=1)`` otherwise; both start
    each row from +0.0, so a -0.0 term from f(1) = -0.0 leaves no trace.
    """
    return _f_rows(gen, *_validate_batch(p, q))


def _f_rows(gen: Generator, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The rows of :func:`batch_f_divergence` from its support rule on, for
    2-D float weight arrays of one shape that are >= 0."""
    import numpy as np

    support = q > 0.0
    if np.count_nonzero(support) == support.size:
        ratios = p / q
    elif (p[~support] > 0).any():
        raise NotAbsolutelyContinuous("P has mass where Q has none")
    else:
        ratios = np.divide(p, q, out=np.ones_like(p), where=support)
    # evaluate's result is a fresh array, so the product goes in place
    terms = gen.evaluate(ratios)
    terms *= q
    # ndarray.sum runs along each short row at a fixed cost per row, which
    # outweighs the column loop's from about 200 rows at n = 6; from 8
    # columns its order along a C-ordered row is pairwise
    if terms.shape[1] < 8 and len(terms) >= 256:
        return _row_sums(terms)
    return terms.sum(axis=1)


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


def renyi_from_hellinger(
    alpha: float, h: float, source: tuple[Distribution, Distribution] | ClassParams | None = None
) -> float:
    """The one Renyi transform: the Renyi divergence of order alpha from h,
    the Hellinger divergence of the same order, log(1 + (alpha-1) h) /
    (alpha - 1).  h = 0 gives +0.0; a log argument that is not > 0 (h = +inf
    with alpha < 1, or NaN) raises LogDomain.  Where the value is +inf
    (alpha > 1), ``source``, what h was measured on, gives it in the log
    domain: a pair (P, Q), or a ``ClassParams`` whose bound h is."""
    alpha = check_alpha(alpha)
    x = (alpha - 1.0) * _real(h)
    if not (x > -1.0):
        raise LogDomain(f"log argument 1 + {x!r} is not > 0")
    # log1p keeps the digits of a small x that 1 + x would round away
    value = math.log1p(x) / (alpha - 1.0) + 0.0  # -0.0 + 0.0 is +0.0
    if value == math.inf and source is not None:
        if isinstance(source, tuple):
            return _pair_log_domain(alpha, *source)
        return _class_log_domain(alpha, source)
    return value


def _pair_log_domain(alpha: float, P: Distribution, Q: Distribution) -> float:
    """log(sum p_i**alpha q_i**(1-alpha)) / (alpha - 1), the sum of
    exponentials shifted by its largest term.  A pair with mass where Q has
    none raises NotAbsolutelyContinuous."""
    check_absolutely_continuous(P, Q)
    logs = [alpha * math.log(p) + (1.0 - alpha) * math.log(q)
            for p, q in zip(P.values, Q.values) if p > 0.0]
    top = max(logs)
    return (top + math.log(math.fsum(math.exp(x - top) for x in logs))) / (alpha - 1.0)


def _class_log_domain(alpha: float, params: ClassParams) -> float:
    """log(1 + (alpha-1) h) / (alpha-1) for alpha > 1 from (delta, m, M),
    where the Hellinger bound h overflows.  (alpha-1) h = x - b with
    x = delta (M**alpha - 1)/(M - 1) and b = delta (1 - m**alpha)/(1 - m) <= 1;
    here M**alpha is past float range, so M**alpha - 1 rounds to M**alpha
    and log x = log delta + alpha log M - log(M - 1)."""
    delta, m, M = params.delta, params.m, params.M
    b = delta * (1.0 - m**alpha) / (1.0 - m)
    log_x = math.log(delta) + alpha * math.log(M) - math.log(M - 1.0)
    if log_x > 0.0:
        log_arg = log_x + math.log1p((1.0 - b) * math.exp(-log_x))
    else:
        log_arg = math.log1p(math.exp(log_x) - b)
    return log_arg / (alpha - 1.0)


def measure_pair(P: Distribution, Q: Distribution) -> tuple[float, float, float]:
    """Measured (delta, m, M) of a concrete pair."""
    delta = total_variation(P, Q)
    m, M = ratio_extremes(P, Q)
    return delta, m, M
