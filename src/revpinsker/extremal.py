"""Ternary extremal pairs attaining the optimal bound, and pair verification.

``ternary_extremal`` accepts the classes that pass the one class guard,
``ClassParams.check_finite`` (non-empty, finite M), and raises InvalidParams
when the pair it builds has a zero Q weight at the m or M atom, or misses
m or M by more than ``RATIO_TOLERANCE`` (relative to M at the M atom).
"""

from __future__ import annotations

from .bounds import ClassParams, bound_gap, theorem1_bound
from .distributions import Distribution, validate_distribution
from .divergence import f_divergence, measure_pair
from .errors import InvalidParams, Record
from .generators import Generator

#: largest |p/q - m| at the m atom, and |p/q - M| / M at the M atom, of a built pair
RATIO_TOLERANCE = 1e-12


class ExtremalPair(Record):
    """The three-atom pair P = (tp, t(1-p), 1-t), Q = (tq, t(1-q), 1-t) with
    q = (M-1)/(M-m), p = mq, t = delta (M-m) / ((M-1)(1-m)).

    By construction t(q - p) = delta, p/q = m and (1-p)/(1-q) = M, so the
    pair sits exactly in the requested class; at delta equal to the cap the
    third atom vanishes (t = 1) but the shape is kept."""

    _fields = ("P", "Q", "q", "p", "t")

    def __init__(self, P: Distribution, Q: Distribution, q: float, p: float, t: float):
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", t)


def ternary_extremal(params: ClassParams) -> ExtremalPair:
    """Construct the pair attaining the optimal bound for every generator.

    The degenerate class (delta = 0, m = M = 1) returns the one-atom pair
    P = Q = (1.0)."""
    params.check_finite()
    if params.delta == 0.0:
        point = validate_distribution([1.0])
        return ExtremalPair(P=point, Q=point, q=0.0, p=0.0, t=0.0)
    m, M, delta = params.m, params.M, params.delta
    q = (M - 1.0) / (M - m)
    p = m * q
    # 1 - q and 1 - p formed without cancellation: subtracting q from 1
    # loses the M-ratio atom's digits as m -> 1 or M -> inf
    q_c = (1.0 - m) / (M - m)
    p_c = M * q_c
    t = delta * (M - m) / ((M - 1.0) * (1.0 - m))
    t = min(t, 1.0)  # delta = cap gives t = 1 up to rounding
    P = validate_distribution([t * p, t * p_c, max(0.0, 1.0 - t)])
    Q = validate_distribution([t * q, t * q_c, max(0.0, 1.0 - t)])
    # tiny weights lose ratio digits, or underflow to zero
    (p_m, p_M, _), (q_m, q_M, _) = P.values, Q.values
    if not (min(q_m, q_M) > 0.0 and abs(p_m / q_m - m) <= RATIO_TOLERANCE
            and abs(p_M / q_M - M) <= RATIO_TOLERANCE * M):
        raise InvalidParams(f"the pair for {params} is off its class by > {RATIO_TOLERANCE}")
    return ExtremalPair(P=P, Q=Q, q=q, p=p, t=t)


class PairReport(Record):
    """Measured class parameters of a concrete pair, their deviation from a
    target, and per-generator divergence/bound gaps (each a new empty dict
    when not given)."""

    _fields = ("measured_delta", "measured_m", "measured_M", "deviation_delta",
               "deviation_m", "deviation_M", "passed", "divergences", "bounds", "gaps")

    def __init__(
        self,
        measured_delta: float,
        measured_m: float,
        measured_M: float,
        deviation_delta: float,
        deviation_m: float,
        deviation_M: float,
        passed: bool,
        divergences: dict | None = None,
        bounds: dict | None = None,
        gaps: dict | None = None,
    ):
        object.__setattr__(self, "measured_delta", measured_delta)
        object.__setattr__(self, "measured_m", measured_m)
        object.__setattr__(self, "measured_M", measured_M)
        object.__setattr__(self, "deviation_delta", deviation_delta)
        object.__setattr__(self, "deviation_m", deviation_m)
        object.__setattr__(self, "deviation_M", deviation_M)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "divergences", {} if divergences is None else divergences)
        object.__setattr__(self, "bounds", {} if bounds is None else bounds)
        object.__setattr__(self, "gaps", {} if gaps is None else gaps)


def verify_membership(
    P: Distribution,
    Q: Distribution,
    params: ClassParams,
    tol: float = 1e-9,
    generators: tuple[Generator, ...] = (),
) -> PairReport:
    """Check whether (P, Q) lies in the class given by params, to tolerance:
    delta and m to ``tol`` absolute, M to ``tol`` relative to M.

    For each supplied generator the report also carries D_f(P || Q), the
    optimal bound at the target parameters, and their gap (``bound_gap``:
    bound minus divergence, which is nonnegative for true members)."""
    delta, m, M = measure_pair(P, Q)
    dd = abs(delta - params.delta)
    dm = abs(m - params.m)
    # relative to M, as RATIO_TOLERANCE is: 0 when M-hat == M, inf included,
    # and 1 (the limit of |M-hat - M| / M) for a finite M-hat against M = inf
    dM = 0.0 if M == params.M else abs(M / params.M - 1.0)
    passed = dd <= tol and dm <= tol and dM <= tol
    divergences: dict[str, float] = {}
    bounds: dict[str, float] = {}
    gaps: dict[str, float] = {}
    for gen in generators:
        value = f_divergence(gen, P, Q)
        bound = theorem1_bound(gen, params)
        divergences[gen.name] = value
        bounds[gen.name] = bound
        gaps[gen.name] = bound_gap(bound, value)
    return PairReport(
        measured_delta=delta,
        measured_m=m,
        measured_M=M,
        deviation_delta=dd,
        deviation_m=dm,
        deviation_M=dM,
        passed=passed,
        divergences=divergences,
        bounds=bounds,
        gaps=gaps,
    )
