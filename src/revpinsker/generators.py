"""Convex generators f for f-divergences, and the chord (secant) bound.

A generator is a convex f on [0, inf) with f(1) = 0, carried together with its
two limit values: f(0+) and f'(inf) = lim f(t)/t, each possibly +inf.  These
limits are what the closed-form bounds need at the edges m = 0 and M = inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .errors import (
    DegenerateInterval,
    FailsAnchorCheck,
    FailsConvexitySample,
    InvalidAlpha,
    InvalidParams,
    MeanOutOfRange,
)
from .extended import INF

#: tolerance for the f(1) = 0 anchor and the sampled convexity check
ANCHOR_TOLERANCE = 1e-12
CONVEXITY_SAMPLES = 64
_CONVEXITY_SEED = 0x5EC4


@dataclass(frozen=True)
class Generator:
    """Convex generator with its limits at 0 and infinity.

    ``fn`` maps t in (0, inf) to f(t) and must accept numpy arrays, acting
    elementwise; :func:`custom_generator` wraps a scalar-only callable once,
    with ``np.vectorize``.  ``mp_fn``, when present, is an mpmath-safe twin
    used for sweeps beyond float range.
    """

    name: str
    fn: Callable
    f_at_zero: float
    slope_at_infinity: float
    mp_fn: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __call__(self, t: float) -> float:
        """Evaluate f at a scalar t >= 0; t = 0 returns the stored limit."""
        t = float(t)
        if t == 0.0:
            return self.f_at_zero
        # at t = +inf only meaningful when the slope at infinity is +inf or 0
        if t == INF and self.slope_at_infinity > 0:
            return INF
        # a numpy scalar overflows to inf as the array path does; a float raises
        return float(self.fn(np.float64(t)))

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on strictly positive inputs."""
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)


def kl_generator() -> Generator:
    """f(t) = t log t (natural log), the relative-entropy generator."""
    return Generator(
        name="kl",
        fn=lambda t: t * np.log(t),
        f_at_zero=0.0,
        slope_at_infinity=INF,
        mp_fn=lambda t: t * mp.log(t),
    )


def tv_generator() -> Generator:
    """f(t) = |t - 1| / 2, the total-variation generator."""
    return Generator(
        name="tv",
        fn=lambda t: 0.5 * np.abs(t - 1.0),
        f_at_zero=0.5,
        slope_at_infinity=0.5,
        mp_fn=lambda t: abs(t - 1) / 2,
    )


def chi2_generator() -> Generator:
    """f(t) = t^2 - 1, the chi-squared generator (Hellinger order 2)."""
    return Generator(
        name="chi2",
        fn=lambda t: t * t - 1.0,
        f_at_zero=-1.0,
        slope_at_infinity=INF,
        mp_fn=lambda t: t * t - 1,
    )


def check_alpha(alpha: float) -> float:
    """The Hellinger/Renyi order as a float; raise InvalidAlpha unless it is
    in (0, 1) or (1, inf)."""
    alpha = float(alpha)
    if not (0.0 < alpha < INF) or alpha == 1.0:
        raise InvalidAlpha(f"alpha must be in (0,1) or (1,inf), got {alpha}")
    return alpha


@functools.lru_cache(maxsize=64)
def hellinger_generator(alpha: float) -> Generator:
    """f(t) = (t^alpha - 1)/(alpha - 1) for alpha in (0,1) or (1,inf).

    f(0+) = 1/(1 - alpha); the slope at infinity is +inf for alpha > 1 and 0
    for alpha < 1.  Cached: ``renyi_bound`` shares one frozen Generator per order.
    """
    alpha = check_alpha(alpha)
    return Generator(
        name=f"hellinger:{alpha:g}",
        fn=lambda t: (t**alpha - 1.0) / (alpha - 1.0),
        f_at_zero=1.0 / (1.0 - alpha),
        slope_at_infinity=INF if alpha > 1.0 else 0.0,
        mp_fn=lambda t: (t**alpha - 1) / (alpha - 1),
    )


def _convexity_triples(rng: np.random.Generator, count: int) -> np.ndarray:
    # log-uniform endpoints in (1e-6, 1e6), sorted so s < u
    pts = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=(count, 2)))
    pts.sort(axis=1)
    return pts


def _accepts_arrays(f: Callable) -> bool:
    """Whether f maps an array of inputs to an array of the same shape."""
    probe = np.array([0.5, 2.0])
    try:
        return np.shape(f(probe)) == probe.shape
    except Exception:
        return False


def custom_generator(
    f: Callable[[float], float],
    f_at_zero: float,
    slope_at_infinity: float,
    name: str = "custom",
) -> Generator:
    """Wrap a user-supplied convex f with declared limit values.

    Convexity and the f(1) = 0 anchor are sample-checked (64 deterministic
    log-uniform chords); this guards against obvious mistakes, it is not a
    proof.  Both limits must be > -inf, as they are for every convex f with
    f(1) = 0; -inf and NaN raise InvalidParams.  A callable that does not
    take arrays is wrapped once with ``np.vectorize``, so ``evaluate`` is a
    direct call either way.
    """
    f_at_zero = float(f_at_zero)
    slope_at_infinity = float(slope_at_infinity)
    if not (f_at_zero > -INF):
        raise InvalidParams(f"need f(0+) > -inf, got {f_at_zero!r}")
    anchor = float(f(1.0))
    if abs(anchor) > ANCHOR_TOLERANCE:
        raise FailsAnchorCheck(f"f(1) = {anchor!r}, expected 0")
    rng = np.random.default_rng(_CONVEXITY_SEED)
    for s, u in _convexity_triples(rng, CONVEXITY_SAMPLES):
        fs, fu = float(f(s)), float(f(u))
        mid = float(f((s + u) / 2.0))
        scale = max(1.0, abs(fs), abs(fu))
        if mid > 0.5 * (fs + fu) + 1e-9 * scale:
            raise FailsConvexitySample(
                f"midpoint convexity violated on ({s!r}, {u!r})"
            )
    # checked after the convexity sample, which reports a concave f first
    if not (slope_at_infinity > -INF):
        raise InvalidParams(f"need f'(inf) > -inf, got {slope_at_infinity!r}")
    if not _accepts_arrays(f):
        f = np.vectorize(f, otypes=[float])
    return Generator(
        name=name, fn=f, f_at_zero=f_at_zero, slope_at_infinity=slope_at_infinity
    )


def chord_bound(gen_or_convex, a: float, b: float, mean: float) -> float:
    """Upper bound on E[f(kappa)] for kappa in [a, b] with the given mean.

    Returns abar*f(a) + (1-abar)*f(b) with abar = (b - mean)/(b - a), the
    chord of f through the endpoints evaluated at the mean.
    """
    a, b, mean = float(a), float(b), float(mean)
    if a == b:
        raise DegenerateInterval("chord needs a < b")
    if not (a < b) or not math.isfinite(a) or not math.isfinite(b):
        raise DegenerateInterval(f"invalid interval [{a}, {b}]")
    if not (a <= mean <= b):
        raise MeanOutOfRange(f"mean {mean} outside [{a}, {b}]")
    f = gen_or_convex  # Generator instances are callable
    abar = (b - mean) / (b - a)
    fa = float(f(a))
    fb = float(f(b))
    return abar * fa + (1.0 - abar) * fb
