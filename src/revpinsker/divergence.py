"""Evaluation of f-divergences on discrete distribution pairs."""

from __future__ import annotations

import math

import numpy as np

from .distributions import (
    Distribution,
    check_absolutely_continuous,
    ratio_extremes,
    total_variation,
)
from .errors import LogDomain
from .extended import INF
from .generators import Generator, check_alpha


def f_divergence(gen: Generator, P: Distribution, Q: Distribution) -> float:
    """D_f(P || Q) = sum over the support of Q of q_i * f(p_i / q_i).

    Terms with p_i = 0 contribute q_i * f(0+), which may make the total +inf.
    Terms with q_i = 0 contribute nothing (the standard convention; absolute
    continuity is enforced, so such terms also have p_i = 0).
    """
    check_absolutely_continuous(P, Q)
    p, q = P.weights, Q.weights
    support = q > 0
    pos = support & (p > 0)
    total = 0.0
    if np.any(pos):
        ratios = p[pos] / q[pos]
        total += float(np.dot(q[pos], gen.evaluate(ratios)))
    zero_mass = float(q[support & (p == 0)].sum())
    if zero_mass > 0.0:
        total += zero_mass * gen.f_at_zero
    return total


def batch_f_divergence(gen: Generator, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise D_f for stacked weight arrays of shape (trials, n).

    Assumes absolute continuity holds row-wise (the oracle's samplers
    construct pairs that satisfy it by design).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pos = (q > 0) & (p > 0)
    ratios = np.where(pos, p, 1.0) / np.where(pos, q, 1.0)
    terms = np.where(pos, q * gen.evaluate(ratios), 0.0)
    total = terms.sum(axis=1)
    zero_mass = np.where((q > 0) & (p == 0), q, 0.0).sum(axis=1)
    if gen.f_at_zero == INF:
        total = np.where(zero_mass > 0, INF, total)
    elif gen.f_at_zero != 0.0:
        total = total + zero_mass * gen.f_at_zero
    return total


def renyi_from_hellinger(alpha: float, h: float) -> float:
    """Renyi divergence of order alpha from the Hellinger divergence of the
    same order: log(1 + (alpha-1) h) / (alpha - 1).  h = +inf gives +inf
    for alpha > 1; a log argument that is not > 0 (h = +inf with alpha < 1,
    or NaN) raises LogDomain.  h = 0 gives +0.0 for every alpha."""
    alpha = check_alpha(alpha)
    arg = 1.0 + (alpha - 1.0) * float(h)
    if not (arg > 0.0):
        raise LogDomain(f"log argument {arg!r} is not > 0")
    return math.log(arg) / (alpha - 1.0) + 0.0  # -0.0 + 0.0 is +0.0


def measure_pair(P: Distribution, Q: Distribution) -> tuple[float, float, float]:
    """Measured (delta, m, M) of a concrete pair."""
    delta = total_variation(P, Q)
    m, M = ratio_extremes(P, Q)
    return delta, m, M
