"""Closed-form optimal upper bounds on f-divergences over constraint classes.

The central object is the class of pairs (P, Q) with total variation delta and
density-ratio extremes (m, M).  The supremum of D_f over that class is
delta * (f(m)/(1-m) + f(M)/(M-1)); dropping the delta constraint or the (m, M)
constraint gives the two corollary bounds.  Weaker published comparators
(Simic for KL, Sason for chi-squared) are provided for dominance tables.

Every function that needs a non-empty class with finite M asks the one class
guard, ``ClassParams.check_finite``, which raises Infeasible and then
UnboundedM.  The raw-float domain checks on delta and on 0 <= m <= 1 <= M
each have one helper, shared by ``ClassParams`` and the float-argument bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Infeasible, InvalidAlpha, InvalidParams, LogDomain, UnboundedM
from .extended import INF, as_extended, ext_add
from .generators import Generator

#: rounding slack of the feasibility test: relative on the total-variation
#: cap, absolute on M - m when m or M is 1
FEASIBILITY_SLACK = 1e-9


def _check_delta(delta: float) -> None:
    """Raise InvalidParams unless the total variation delta is in [0, 1]."""
    if not (0.0 <= delta <= 1.0):
        raise InvalidParams(f"delta must be in [0,1], got {delta!r}")


def _check_ratio_extremes(m: float, M: float) -> None:
    """Raise InvalidParams unless the ratio extremes obey 0 <= m <= 1 <= M."""
    if not (0.0 <= m <= 1.0 <= M):
        raise InvalidParams(f"need 0 <= m <= 1 <= M, got m={m!r}, M={M!r}")


@dataclass(frozen=True)
class ClassParams:
    """The triple (delta, m, M) identifying a constraint class.

    delta is total variation in [0, 1]; m and M are the ratio infimum and
    supremum with 0 <= m <= 1 <= M, M possibly +inf.
    """

    delta: float
    m: float
    M: float

    def __post_init__(self):
        object.__setattr__(self, "delta", as_extended(self.delta))
        object.__setattr__(self, "m", as_extended(self.m))
        object.__setattr__(self, "M", as_extended(self.M))
        _check_delta(self.delta)
        _check_ratio_extremes(self.m, self.M)

    def check_finite(self) -> None:
        """The one class guard: raise Infeasible when no pair has these
        parameters, then UnboundedM when M = +inf."""
        if not feasible(self):
            raise Infeasible(f"empty class: {self}")
        if self.M == INF:
            raise UnboundedM(
                f"need M < inf, got {self}; vajda_bound and kl_bound_ab cover M = +inf"
            )


def tv_cap(m: float, M: float) -> float:
    """Largest total variation compatible with ratio extremes (m, M):
    (M-1)(1-m)/(M-m), read as 1-m when M = +inf and 0 when m = M = 1."""
    m, M = float(m), float(M)
    _check_ratio_extremes(m, M)
    if M == INF:
        return 1.0 - m
    if m == 1.0 or M == 1.0:
        return 0.0
    return (M - 1.0) * (1.0 - m) / (M - m)


def feasible(params: ClassParams) -> bool:
    """Whether any pair (P, Q) has exactly these (delta, m, M).

    True iff m = M = 1 with delta = 0, or m < 1 < M with 0 < delta <= cap.
    Measured parameters of a real pair are never rejected by rounding: the
    cap comparison carries a tiny relative slack, and when m or M is 1 the
    class with delta = 0 is accepted for M - m <= FEASIBILITY_SLACK (a pair
    that differs only in its last bits can measure m = 1, M = 1 + 2**-52).
    """
    if params.m == 1.0 or params.M == 1.0:
        return params.delta == 0.0 and params.M - params.m <= FEASIBILITY_SLACK
    if params.delta <= 0.0:
        return False
    cap = tv_cap(params.m, params.M)
    return params.delta <= cap * (1.0 + FEASIBILITY_SLACK)


def chord_slope_gap(gen: Generator, m: float, M: float) -> float:
    """f(m)/(1-m) + f(M)/(M-1), the per-delta coefficient of the optimal
    bound.  Requires m < 1 < M finite; +inf when f(0+) = +inf and m = 0.

    Nonnegative for every convex f with f(1) = 0: the two terms are the
    negated left and the right slope of chords through (1, 0).
    """
    fm = gen(m)
    if fm == INF:
        return INF
    fM = gen(M)
    if fM == INF:
        return INF
    return fm / (1.0 - m) + fM / (M - 1.0)


def theorem1_bound(gen: Generator, params: ClassParams) -> float:
    """sup of D_f over pairs with total variation delta and ratio extremes
    (m, M).  Zero when m = 1 or M = 1 (the class then forces P = Q)."""
    params.check_finite()
    if params.m == 1.0 or params.M == 1.0:
        return 0.0
    coeff = chord_slope_gap(gen, params.m, params.M)
    if coeff == INF:
        return INF
    return params.delta * coeff


def corollary1_bound(gen: Generator, m: float, M: float) -> float:
    """sup of D_f over all pairs with ratio extremes (m, M), any delta:
    ((M-1) f(m) + (1-m) f(M)) / (M - m)."""
    m, M = float(m), float(M)
    _check_ratio_extremes(m, M)
    if M == INF:
        raise UnboundedM("Corollary requires M < inf; compose vajda_bound instead")
    if m == 1.0 and M == 1.0:
        return 0.0
    fm = gen(m)
    if fm == INF:
        return INF
    fM = gen(M)
    if fM == INF:
        return INF
    return ((M - 1.0) * fm + (1.0 - m) * fM) / (M - m)


def vajda_bound(gen: Generator, delta: float) -> float:
    """Range-of-values bound: sup of D_f at fixed total variation delta,
    equal to delta * (f(0+) + f'(inf)); +inf when either limit is."""
    delta = float(delta)
    _check_delta(delta)
    if delta == 0.0:
        return 0.0
    s = ext_add(gen.f_at_zero, gen.slope_at_infinity)
    if s == INF:
        return INF
    return delta * s


def log_over_x_minus_1(x: float) -> float:
    """log(x)/(x - 1) for x > 0, continuously extended to 1 at x = 1 and to
    0 at x = +inf; a short series is used near 1 to dodge cancellation."""
    x = float(x)
    if x <= 0.0:
        raise LogDomain(f"need x > 0, got {x!r}")
    if x == INF:
        return 0.0
    u = x - 1.0
    if abs(u) < 1e-8:
        return 1.0 - 0.5 * u
    return math.log(x) / u


def kl_bound_ab(delta: float, a: float, b: float) -> float:
    """Optimal KL bound in the reciprocal parameters a = 1/M, b = 1/m:
    delta * (log(a)/(a-1) + log(b)/(1-b)); b = +inf drops the second term."""
    delta, a, b = float(delta), float(a), float(b)
    _check_delta(delta)
    if not (0.0 < a <= 1.0 <= b):
        raise InvalidParams(f"need 0 < a <= 1 <= b, got a={a!r}, b={b!r}")
    # log(b)/(1-b) = -log_over_x_minus_1(b); the b = +inf limit is 0
    return delta * (log_over_x_minus_1(a) - log_over_x_minus_1(b))


def renyi_bound(alpha: float, params: ClassParams) -> float:
    """Optimal Renyi-alpha bound over the (delta, m, M) class, the monotone
    transform of the Hellinger-alpha optimum."""
    alpha = float(alpha)
    if not (alpha > 0.0) or alpha == 1.0 or math.isinf(alpha):
        raise InvalidAlpha(f"alpha must be in (0,1) or (1,inf), got {alpha}")
    params.check_finite()
    if params.m == 1.0 or params.M == 1.0:
        return 0.0
    m, M = params.m, params.M
    inner = (M**alpha - 1.0) / (M - 1.0) - (1.0 - m**alpha) / (1.0 - m)
    arg = 1.0 + params.delta * inner
    if arg <= 0.0:
        raise LogDomain(f"log argument {arg!r} <= 0")
    return math.log(arg) / (alpha - 1.0)


def simic_kl_bound(a: float, b: float) -> float:
    """Simic's global-Jensen comparator for KL over the (m, M) class, in the
    reciprocal parameters a = 1/M < 1 < b = 1/m.  Weaker than (at best equal
    to) corollary1_bound for KL."""
    a, b = float(a), float(b)
    if not (0.0 < a < 1.0 < b) or math.isinf(b):
        raise InvalidParams(f"need 0 < a < 1 < b < inf, got a={a!r}, b={b!r}")
    la, lb = math.log(a), math.log(b)
    return (a * lb - b * la) / (b - a) + math.log((b - a) / (lb - la)) - 1.0


def sason_chi2_bound(params: ClassParams) -> float:
    """Sason's chi-squared comparator 2 * delta * max(M-1, 1-m); dominated
    by the optimal delta * (M - m)."""
    params.check_finite()
    return 2.0 * params.delta * max(params.M - 1.0, 1.0 - params.m)


#: default comparison grid: spans small and large ratio ranges and three
#: fractions of the feasibility cap
GRID_M_VALUES = (0.0, 0.1, 0.25, 0.5, 0.9)
GRID_BIG_M_VALUES = (1.1, 2.0, 5.0, 10.0, 100.0)
GRID_CAP_FRACTIONS = (0.1, 0.5, 1.0)


def default_grid() -> list[ClassParams]:
    """Feasible (delta, m, M) triples used by tables and acceptance checks."""
    grid = []
    for m in GRID_M_VALUES:
        for M in GRID_BIG_M_VALUES:
            cap = tv_cap(m, M)
            for frac in GRID_CAP_FRACTIONS:
                grid.append(ClassParams(delta=frac * cap, m=m, M=M))
    return grid
