"""Evaluation of f-divergences on discrete distribution pairs.

D_f is one sum, :func:`batch_f_divergence`, which checks its rows first;
:func:`f_divergence` is that sum for one row.  Both load numpy on first
use; ``measure_pair`` and ``renyi_from_hellinger`` are plain ``math``."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .distributions import Distribution, ratio_extremes, total_variation
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
    """
    import numpy as np

    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatch(f"weight arrays differ in shape: {p.shape} vs {q.shape}")
    support = q > 0
    if (p[~support] > 0).any():
        raise NotAbsolutelyContinuous("P has mass where Q has none")
    ratios = np.divide(p, q, out=np.ones_like(p), where=support)
    return np.where(support, q * gen.evaluate(ratios), 0.0).sum(axis=1)


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


def measure_pair(P: Distribution, Q: Distribution) -> tuple[float, float, float]:
    """Measured (delta, m, M) of a concrete pair."""
    delta = total_variation(P, Q)
    m, M = ratio_extremes(P, Q)
    return delta, m, M
