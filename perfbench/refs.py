"""50-digit mpmath references for the closed forms and for D_f of a concrete pair.

Every reference takes the float inputs the program received and evaluates
the formula exactly on those binary values, so a disagreement beyond
REF_RTOL is an error of the program's float arithmetic, not of the inputs.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 50
#: allowed relative error of a returned value against its reference
REF_RTOL = 1e-9


def _f(twin, t):
    """Generator value at an mpf t >= 0; twin = (mp_fn, f_at_zero, slope)."""
    fn, f0, _ = twin
    return mp.mpf(f0) if t == 0 else fn(t)


def theorem1(twin, delta, m, M):
    with mp.workdps(DPS):
        d, m, M = mp.mpf(delta), mp.mpf(m), mp.mpf(M)
        return d * (_f(twin, m) / (1 - m) + _f(twin, M) / (M - 1))


def corollary1(twin, m, M):
    with mp.workdps(DPS):
        m, M = mp.mpf(m), mp.mpf(M)
        return ((M - 1) * _f(twin, m) + (1 - m) * _f(twin, M)) / (M - m)


def vajda(twin, delta):
    _, f0, slope = twin
    if math.isinf(f0) or math.isinf(slope):
        return mp.inf
    with mp.workdps(DPS):
        return mp.mpf(delta) * (mp.mpf(f0) + mp.mpf(slope))


def renyi(alpha, delta, m, M):
    with mp.workdps(DPS):
        a, d, m, M = mp.mpf(alpha), mp.mpf(delta), mp.mpf(m), mp.mpf(M)
        inner = (M**a - 1) / (M - 1) - (1 - m**a) / (1 - m)
        return mp.log(1 + d * inner) / (a - 1)


def kl_ab(delta, a, b):
    with mp.workdps(DPS):
        d, a = mp.mpf(delta), mp.mpf(a)
        second = 0 if math.isinf(b) else mp.log(b) / (1 - mp.mpf(b))
        return d * (mp.log(a) / (a - 1) + second)


def f_divergence(twin, P, Q):
    """Exact D_f of the float pair (P, Q) as given."""
    with mp.workdps(DPS):
        total = mp.mpf(0)
        for p, q in zip(P, Q):
            if q > 0:
                p, q = mp.mpf(float(p)), mp.mpf(float(q))
                total += q * _f(twin, p / q)
        return total


def class_deviation(P, Q, delta, m, M):
    """Largest of |delta' - delta|, |m' - m| and |M' - M| / M for the exact
    measured class (delta', m', M') of the float pair (P, Q)."""
    with mp.workdps(DPS):
        pairs = [(mp.mpf(float(p)), mp.mpf(float(q))) for p, q in zip(P, Q)]
        if any(q == 0 and p > 0 for p, q in pairs):
            return math.inf
        d = sum(abs(p - q) for p, q in pairs) / 2
        ratios = [p / q for p, q in pairs if q > 0]
        lo, hi = min(min(ratios), 1), max(max(ratios), 1)
        return float(max(abs(d - delta), abs(lo - m), abs(hi - M) / M))


def rel_err(value, ref) -> float:
    """|value - ref| / |ref|; 0 when both are +inf, inf when only one is."""
    if ref == mp.inf or ref == 0 or math.isinf(value):
        return 0.0 if ref == value else math.inf
    with mp.workdps(DPS):
        return float(abs(mp.mpf(value) - ref) / abs(ref))
