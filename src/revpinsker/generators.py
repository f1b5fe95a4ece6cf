"""Convex generators f for f-divergences.

A generator is a convex f on [0, inf) with f(1) = 0, carried together with its
two limit values: f(0+) and f'(inf) = lim f(t)/t, each possibly +inf.  These
limits are what the closed-form bounds need at the edges m = 0 and M = inf.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, Optional

from .distributions import _real
from .errors import FailsAnchorCheck, FailsConvexitySample, InvalidAlpha, InvalidParams, Record

if TYPE_CHECKING:
    import numpy as np

#: tolerance for the f(1) = 0 anchor and the sampled convexity check
ANCHOR_TOLERANCE = 1e-12
CONVEXITY_SAMPLES = 64
_CONVEXITY_SEED = 0x5EC4


class Generator(Record):
    """Convex generator with its limits at 0 and infinity.

    ``fn`` maps t in (0, inf) to f(t).  ``__call__`` calls it on a Python
    float, where an ``OverflowError`` reads as +inf; ``evaluate`` calls it
    on a numpy array, where it must act elementwise.  The stock generators
    need numpy only for the array; :func:`custom_generator` wraps a
    scalar-only callable once, with ``np.vectorize``.  ``fn`` is only
    called on t > 0: at t = 0 both ``__call__`` and ``evaluate`` return
    ``f_at_zero``.  ``mp_fn``, when present, takes mpmath numbers, for
    sweeps beyond float range; a stock generator's is its ``fn``, one
    formula for floats, arrays and mpmath.  The ``repr``, equality and hash
    leave it out.
    """

    __slots__ = _fields = ("name", "fn", "f_at_zero", "slope_at_infinity", "mp_fn")
    _shown = _fields[:4]

    def __init__(
        self,
        name: str,
        fn: Callable,
        f_at_zero: float,
        slope_at_infinity: float,
        mp_fn: Optional[Callable] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "f_at_zero", f_at_zero)
        object.__setattr__(self, "slope_at_infinity", slope_at_infinity)
        object.__setattr__(self, "mp_fn", mp_fn)

    def __call__(self, t: float) -> float:
        """Evaluate f at a scalar t >= 0; t = 0 returns the stored limit,
        and t < 0, NaN or a t that is no number raises InvalidParams."""
        t = _real(t)
        if not (t >= 0.0):  # a NaN fails this too
            raise InvalidParams(f"f is defined on t >= 0, got {t!r}")
        if t == 0.0:
            return self.f_at_zero
        # at t = +inf only meaningful when the slope at infinity is +inf or 0
        if t == math.inf and self.slope_at_infinity > 0:
            return math.inf
        try:
            return float(self.fn(t))
        except OverflowError:  # a float raises where the array path gives inf
            return math.inf

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Evaluate f elementwise on an array with t >= 0; entries with
        t == 0 give the stored limit, and ``fn`` is not called on them.  An
        array with no zero entry goes to ``fn`` as it is, which must not
        write to it; the result is a float array."""
        import numpy as np

        t = np.asarray(t, dtype=float)
        zero = t == 0.0  # not t > 0: a NaN entry stays NaN
        if not np.count_nonzero(zero):
            return np.asarray(self.fn(t), dtype=float)
        return np.where(zero, self.f_at_zero, self.fn(np.where(zero, 1.0, t)))


def _kl(t):
    """t log t with the log of t's kind: math's on a float, mpmath's on an
    mpmath number (which loads no numpy) and numpy's on an array."""
    if isinstance(t, float):
        return t * math.log(t)
    if hasattr(t, "_mpf_"):
        import mpmath

        return t * mpmath.log(t)
    import numpy as np

    return t * np.log(t)


def kl_generator() -> Generator:
    """f(t) = t log t (natural log), the relative-entropy generator."""
    return Generator(name="kl", fn=_kl, f_at_zero=0.0, slope_at_infinity=math.inf, mp_fn=_kl)


def tv_generator() -> Generator:
    """f(t) = |t - 1| / 2, the total-variation generator."""
    f = lambda t: 0.5 * abs(t - 1.0)
    return Generator(name="tv", fn=f, f_at_zero=0.5, slope_at_infinity=0.5, mp_fn=f)


def chi2_generator() -> Generator:
    """f(t) = t^2 - 1, the chi-squared generator (Hellinger order 2)."""
    f = lambda t: t * t - 1.0
    return Generator(name="chi2", fn=f, f_at_zero=-1.0, slope_at_infinity=math.inf, mp_fn=f)


def check_alpha(alpha: float) -> float:
    """The Hellinger/Renyi order as a float; raise InvalidParams when it is
    no number, then InvalidAlpha unless it is in (0, 1) or (1, inf)."""
    alpha = _real(alpha)
    if not (0.0 < alpha < math.inf) or alpha == 1.0:
        raise InvalidAlpha(f"alpha must be in (0,1) or (1,inf), got {alpha}")
    return alpha


def hellinger_generator(alpha: float) -> Generator:
    """f(t) = (t^alpha - 1)/(alpha - 1) for alpha in (0,1) or (1,inf).

    f(0+) = 1/(1 - alpha); the slope at infinity is +inf for alpha > 1 and 0
    for alpha < 1.  For alpha > 1 a power that overflows gives +inf: the
    scalar ``__call__`` reads the float's OverflowError so, and an array
    gives inf with numpy's overflow warning, as chi2 does.  Cached by the
    checked order, so an order that is no number raises InvalidParams
    before the cache hashes it: ``renyi_bound`` shares one frozen Generator
    per order.
    """
    return _hellinger(check_alpha(alpha))


@functools.lru_cache(maxsize=64)
def _hellinger(alpha: float) -> Generator:
    f = lambda t: (t**alpha - 1.0) / (alpha - 1.0)
    return Generator(
        name=f"hellinger:{alpha:g}",
        fn=f,
        f_at_zero=1.0 / (1.0 - alpha),
        slope_at_infinity=math.inf if alpha > 1.0 else 0.0,
        mp_fn=f,
    )


def _convexity_triples(count: int) -> np.ndarray:
    import numpy as np

    # log-uniform endpoints in (1e-6, 1e6), sorted so s < u
    rng = np.random.default_rng(_CONVEXITY_SEED)
    pts = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=(count, 2)))
    pts.sort(axis=1)
    return pts


def _accepts_arrays(f: Callable) -> bool:
    """Whether f maps an array of inputs to an array of the same shape."""
    import numpy as np

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
    proof.  Both limits are numbers by the rule of
    ``revpinsker.distributions`` and must be > -inf, as they are for every
    convex f with f(1) = 0; -inf, NaN and a limit that is no number raise
    InvalidParams.  A callable that does not
    take arrays is wrapped once with ``np.vectorize``, so ``evaluate`` is a
    direct call either way.
    """
    f_at_zero, slope_at_infinity = _real(f_at_zero), _real(slope_at_infinity)
    if not (f_at_zero > -math.inf):
        raise InvalidParams(f"need f(0+) > -inf, got {f_at_zero!r}")
    anchor = float(f(1.0))
    # written as not (... <= ...) so that a NaN fails the check
    if not (abs(anchor) <= ANCHOR_TOLERANCE):
        raise FailsAnchorCheck(f"f(1) = {anchor!r}, expected 0")
    for s, u in _convexity_triples(CONVEXITY_SAMPLES):
        fs, fu = float(f(s)), float(f(u))
        mid = float(f((s + u) / 2.0))
        scale = max(1.0, abs(fs), abs(fu))
        if not (mid <= 0.5 * (fs + fu) + 1e-9 * scale):
            raise FailsConvexitySample(
                f"midpoint convexity violated on ({s!r}, {u!r})"
            )
    # checked after the convexity sample, which reports a concave f first
    if not (slope_at_infinity > -math.inf):
        raise InvalidParams(f"need f'(inf) > -inf, got {slope_at_infinity!r}")
    if not _accepts_arrays(f):
        import numpy as np

        f = np.vectorize(f, otypes=[float])
    return Generator(
        name=name, fn=f, f_at_zero=f_at_zero, slope_at_infinity=slope_at_infinity
    )

