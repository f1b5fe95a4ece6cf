"""Ternary extremal pairs attaining the optimal bound, and pair verification.

``ternary_extremal`` accepts the classes that pass the one class guard,
``ClassParams.check_finite`` (non-empty, finite M), and raises InvalidParams
when a Q weight, delta/(1-m) or delta/(M-1), is not a normal double.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .bounds import ClassParams, theorem1_bound
from .distributions import Distribution, validate_distribution
from .divergence import f_divergence, measure_pair
from .errors import InvalidParams
from .extended import INF, bound_gap
from .generators import Generator


@dataclass(frozen=True)
class ExtremalPair:
    """The three-atom pair P = (tp, t(1-p), 1-t), Q = (tq, t(1-q), 1-t) with
    q = (M-1)/(M-m), p = mq, t = delta (M-m) / ((M-1)(1-m)).

    By construction t(q - p) = delta, p/q = m and (1-p)/(1-q) = M, so the
    pair sits exactly in the requested class; at delta equal to the cap the
    third atom vanishes (t = 1) but the shape is kept."""

    P: Distribution
    Q: Distribution
    params: ClassParams
    q: float
    p: float
    t: float


def ternary_extremal(params: ClassParams) -> ExtremalPair:
    """Construct the pair attaining the optimal bound for every generator.

    The degenerate class (delta = 0, m = M = 1) returns the one-atom pair
    P = Q = (1.0)."""
    params.check_finite()
    if params.delta == 0.0:
        point = validate_distribution([1.0])
        return ExtremalPair(P=point, Q=point, params=params, q=0.0, p=0.0, t=0.0)
    m, M, delta = params.m, params.M, params.delta
    q = (M - 1.0) / (M - m)
    p = m * q
    # 1 - q and 1 - p formed without cancellation: subtracting q from 1
    # loses the M-ratio atom's digits as m -> 1 or M -> inf
    q_c = (1.0 - m) / (M - m)
    p_c = M * q_c
    t = delta * (M - m) / ((M - 1.0) * (1.0 - m))
    t = min(t, 1.0)  # delta = cap gives t = 1 up to rounding
    if min(t * q, t * q_c) < sys.float_info.min:  # lost ratio digits, or zero
        raise InvalidParams(f"a Q weight of the pair for {params} is not a normal double")
    P = validate_distribution([t * p, t * p_c, max(0.0, 1.0 - t)])
    Q = validate_distribution([t * q, t * q_c, max(0.0, 1.0 - t)])
    return ExtremalPair(P=P, Q=Q, params=params, q=q, p=p, t=t)


@dataclass(frozen=True)
class PairReport:
    """Measured class parameters of a concrete pair, their deviation from a
    target, and per-generator divergence/bound gaps."""

    measured_delta: float
    measured_m: float
    measured_M: float
    target: ClassParams
    deviation_delta: float
    deviation_m: float
    deviation_M: float
    tolerance: float
    passed: bool
    divergences: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    gaps: dict = field(default_factory=dict)


def verify_membership(
    P: Distribution,
    Q: Distribution,
    params: ClassParams,
    tol: float = 1e-9,
    generators: tuple[Generator, ...] = (),
) -> PairReport:
    """Check whether (P, Q) lies in the class given by params, to tolerance.

    For each supplied generator the report also carries D_f(P || Q), the
    optimal bound at the target parameters, and their gap (``bound_gap``:
    bound minus divergence, which is nonnegative for true members)."""
    delta, m, M = measure_pair(P, Q)
    dd = abs(delta - params.delta)
    dm = abs(m - params.m)
    dM = abs(M - params.M) if params.M != INF else (0.0 if M == INF else INF)
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
        target=params,
        deviation_delta=dd,
        deviation_m=dm,
        deviation_M=dM,
        tolerance=tol,
        passed=passed,
        divergences=divergences,
        bounds=bounds,
        gaps=gaps,
    )
