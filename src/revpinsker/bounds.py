"""Closed-form optimal upper bounds on f-divergences over constraint classes.

Over pairs (P, Q) with total variation delta and ratio extremes (m, M), the
sup of D_f is delta * chord_slope_gap(gen, m, M) = delta * (f(m)/(1-m) +
f(M)/(M-1)), and chord_slope_gap alone evaluates f.  corollary1_bound is that
bound at delta = tv_cap(m, M), vajda_bound is delta * chord_slope_gap(gen, 0,
inf) and renyi_bound is renyi_from_hellinger of the Hellinger-alpha bound
(which takes the class's log-domain form where that bound overflows).
kl_bound_ab keeps its own form: its near-1 series beats the plain secant.
Simic's (KL) and Sason's (chi-squared) weaker comparators fill the dominance
tables.

Values are plain IEEE doubles, +-inf included.  IEEE leaves two forms the
bounds meet undefined, and each has one rule here.  The zero-TV rule,
``_scaled_gap``, reads delta * chord_slope_gap(gen, m, M) as 0 at delta = 0
(P = Q), where the coefficient can be 0/0 or +inf and 0 * inf is NaN;
theorem1_bound, corollary1_bound and vajda_bound take it.  The gap rule,
``bound_gap``, reads bound - value as 0 when both are +inf (inf - inf is
NaN).  A limit at +inf that IEEE would form as inf / inf, hence NaN, is
taken in place by the function that meets it (``tv_cap``,
``chord_slope_gap``, ``log_over_x_minus_1``).

A class is judged once, when it is built: ``ClassParams`` runs ``feasible``
in its constructor and keeps the verdict.  Every function that needs a
non-empty class with finite M asks the one class guard,
``ClassParams.check_finite``, which reads that verdict and raises Infeasible,
then UnboundedM.  kl_bound_ab, whose b = +inf is m = 0 and whose subnormal a
is M = +inf, reads the same verdict for its class (delta, 1/b, 1/a) and
raises Infeasible alone.  A number from outside is taken by the one number
rule of ``revpinsker.distributions`` (``_real``: a bool, int or float, else
InvalidParams); the domain checks on delta and on 0 <= m <= 1 <= M each have
one helper, which takes the raw values and returns the floats, shared by
``ClassParams`` and the float-argument bounds.
"""

from __future__ import annotations

import math

from .distributions import _real
from .divergence import renyi_from_hellinger
from .errors import Infeasible, InvalidParams, LogDomain, Record, UnboundedM
from .generators import Generator, hellinger_generator

INF = math.inf

#: rounding slack of the feasibility test: relative on the total-variation
#: cap, absolute on M - m when m or M is 1
FEASIBILITY_SLACK = 1e-9

#: relative widening of m and M before the cap comparison, 4 to 8 ulps: a
#: measured ratio carries a few ulps of rounding, which moves the cap by
#: about ulp(m)/(1 - m) as m -> 1 and ulp(M)/(M - 1) as M -> 1
_RATIO_ROUNDING = 2.0**-50


def _check_delta(delta: float) -> float:
    """The total variation delta as a float (``_real``); raise InvalidParams
    unless it is in [0, 1]."""
    delta = _real(delta)
    if not (0.0 <= delta <= 1.0):
        raise InvalidParams(f"delta must be in [0,1], got {delta!r}")
    return delta


def _check_ratio_extremes(m: float, M: float) -> tuple[float, float]:
    """The ratio extremes as floats (``_real``); raise InvalidParams unless
    they obey 0 <= m <= 1 <= M."""
    m, M = _real(m), _real(M)
    if not (0.0 <= m <= 1.0 <= M):
        raise InvalidParams(f"need 0 <= m <= 1 <= M, got m={m!r}, M={M!r}")
    return m, M


class ClassParams(Record):
    """The triple (delta, m, M) identifying a constraint class.

    delta is total variation in [0, 1]; m and M are the ratio infimum and
    supremum with 0 <= m <= 1 <= M, M possibly +inf.  Each is a number by
    the rule of ``revpinsker.distributions`` (a bool, int or float, else
    InvalidParams), stored as a float.  NaN in any slot fails the domain
    checks and raises InvalidParams.

    The constructor also stores ``feasible(self)`` in the private slot
    ``_feasible``, which is no field: it is left out of the repr, equality,
    hash and pickle, and a copy or an unpickled class is judged again by
    its constructor.
    """

    _fields = ("delta", "m", "M")
    __slots__ = _fields + ("_feasible",)

    def __init__(self, delta: float, m: float, M: float):
        delta = _check_delta(delta)
        m, M = _check_ratio_extremes(m, M)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "_feasible", feasible(self))

    def check_finite(self) -> None:
        """The one class guard: raise Infeasible when no pair has these
        parameters (the verdict of ``feasible`` made at construction), then
        UnboundedM when M = +inf."""
        if not self._feasible:
            raise Infeasible(f"empty class: {self}")
        if self.M == INF:
            raise UnboundedM(
                f"need M < inf, got {self}; vajda_bound and kl_bound_ab cover M = +inf"
            )


def tv_cap(m: float, M: float) -> float:
    """Largest total variation compatible with ratio extremes (m, M):
    (M-1)(1-m)/(M-m), read as 1-m when M = +inf and 0 when m = M = 1."""
    m, M = _check_ratio_extremes(m, M)
    if M == INF:
        return 1.0 - m
    if m == 1.0 or M == 1.0:
        return 0.0
    return (M - 1.0) * (1.0 - m) / (M - m)


def feasible(params: ClassParams) -> bool:
    """Whether any pair (P, Q) has exactly these (delta, m, M).

    True iff m = M = 1 with delta = 0, or m < 1 < M with 0 < delta <= cap.
    Measured parameters of a real pair are never rejected by rounding: the
    cap is taken at m and M widened by a few ulps (``_RATIO_ROUNDING``) and
    carries a tiny relative slack, and when m or M is 1 the class with
    delta = 0 is accepted for M - m <= FEASIBILITY_SLACK (a pair that
    differs only in its last bits can measure m = 1, M = 1 + 2**-52).
    """
    if params.m == 1.0 or params.M == 1.0:
        return params.delta == 0.0 and params.M - params.m <= FEASIBILITY_SLACK
    if params.delta <= 0.0:
        return False
    cap = tv_cap(params.m * (1.0 - _RATIO_ROUNDING), params.M * (1.0 + _RATIO_ROUNDING))
    return params.delta <= cap * (1.0 + FEASIBILITY_SLACK)


def chord_slope_gap(gen: Generator, m: float, M: float) -> float:
    """f(m)/(1-m) + f(M)/(M-1), the per-delta coefficient of the optimal
    bound.  Raises InvalidParams unless 0 <= m < 1 < M, for a NaN too; +inf
    when f(0+) = +inf and m = 0.  At M = +inf the second term is its limit
    f'(inf).

    Nonnegative for every convex f with f(1) = 0: the two terms are the
    negated left and the right slope of chords through (1, 0).
    """
    m, M = _real(m), _real(M)
    if not (0.0 <= m < 1.0 < M):
        raise InvalidParams(f"need 0 <= m < 1 < M, got m={m!r}, M={M!r}")
    # IEEE gives inf / inf = NaN, not the limit
    right = gen.slope_at_infinity if M == INF else gen(M) / (M - 1.0)
    return gen(m) / (1.0 - m) + right


def _scaled_gap(gen: Generator, delta: float, m: float, M: float) -> float:
    """The zero-TV rule: delta * chord_slope_gap(gen, m, M), read as 0 when
    delta = 0 (P = Q), where the coefficient can be 0/0 or +inf."""
    return 0.0 if delta == 0.0 else delta * chord_slope_gap(gen, m, M)


def bound_gap(bound: float, value: float) -> float:
    """The gap rule: bound - value, read as 0 when both are +inf."""
    return 0.0 if bound == value == INF else bound - value


def theorem1_bound(gen: Generator, params: ClassParams) -> float:
    """sup of D_f over pairs with total variation delta and ratio extremes
    (m, M).  Zero when m = 1 or M = 1 (the class then forces delta = 0)."""
    params.check_finite()
    return _scaled_gap(gen, params.delta, params.m, params.M)


def corollary1_bound(gen: Generator, m: float, M: float) -> float:
    """sup of D_f over all pairs with ratio extremes (m, M), any delta:
    Theorem 1 at delta = tv_cap(m, M).  Zero when m = 1 or M = 1 (cap 0)."""
    cap = tv_cap(m, M)
    if M == INF:
        raise UnboundedM("Corollary requires M < inf; compose vajda_bound instead")
    return _scaled_gap(gen, cap, m, M)


def vajda_bound(gen: Generator, delta: float) -> float:
    """Range-of-values bound at fixed total variation delta:
    delta * chord_slope_gap(gen, 0, inf) = delta * (f(0+) + f'(inf))."""
    delta = _check_delta(delta)
    return _scaled_gap(gen, delta, 0.0, INF)


def log_over_x_minus_1(x: float) -> float:
    """log(x)/(x - 1) for x > 0, taken as its limits 1 at x = 1 and 0 at
    x = +inf; a short series is used near 1 to dodge cancellation."""
    x = _real(x)
    if not (x > 0.0):  # a NaN fails this too
        raise LogDomain(f"need x > 0, got {x!r}")
    if x == INF:
        return 0.0
    u = x - 1.0
    if abs(u) < 1e-8:
        return 1.0 - 0.5 * u
    return math.log(x) / u


def kl_bound_ab(delta: float, a: float, b: float) -> float:
    """Optimal KL bound in the reciprocal parameters a = 1/M, b = 1/m:
    delta * (log(a)/(a-1) + log(b)/(1-b)); b = +inf (m = 0) drops the second
    term.  Raises Infeasible when the class (delta, 1/b, 1/a) is empty; a
    subnormal a, whose 1/a is +inf, raises nothing more (no UnboundedM)."""
    # not via chord_slope_gap: log_over_x_minus_1's series beats the secant near 1
    a, b = _real(a), _real(b)
    if not (0.0 < a <= 1.0 <= b):
        raise InvalidParams(f"need 0 < a <= 1 <= b, got a={a!r}, b={b!r}")
    params = ClassParams(delta, 1.0 / b, 1.0 / a)  # 1/inf is 0.0
    if not params._feasible:  # not check_finite: M = 1/a is +inf for a subnormal a
        raise Infeasible(f"empty class: {params}")
    # log(b)/(1-b) = -log_over_x_minus_1(b); the b = +inf limit is 0
    return params.delta * (log_over_x_minus_1(a) - log_over_x_minus_1(b))


def renyi_bound(alpha: float, params: ClassParams) -> float:
    """Optimal Renyi-alpha bound over the (delta, m, M) class, the monotone
    transform of the Hellinger-alpha optimum.  For finite M the bound is
    finite: where the float Hellinger bound overflows (alpha > 1, M**alpha
    past float range), ``renyi_from_hellinger`` composes it from the class
    in the log domain."""
    return renyi_from_hellinger(alpha, theorem1_bound(hellinger_generator(alpha), params), params)


def simic_kl_bound(a: float, b: float) -> float:
    """Simic's global-Jensen comparator for KL over the (m, M) class, in the
    reciprocal parameters a = 1/M < 1 < b = 1/m.  Weaker than (at best equal
    to) corollary1_bound for KL."""
    a, b = _real(a), _real(b)
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
