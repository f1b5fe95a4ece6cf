"""Extended reals as plain IEEE doubles.

Values live in [-inf, +inf] as plain floats, and IEEE arithmetic gives the
extended-real results the bounds need: inf + x = inf for x > -inf and
x * inf = inf for x > 0.  Its two undefined forms never arise: a convex
generator has f(0+) > -inf and f'(inf) > -inf, so no inf - inf, and a
divergence sum skips zero-weight terms, so no 0 * inf.  NaN inputs raise
InvalidParams in ``ClassParams`` and ``custom_generator``.

A limit at +inf that IEEE would form as inf / inf, hence NaN, is taken in
place by the function that meets it (``tv_cap``, ``chord_slope_gap``,
``log_over_x_minus_1``).  The one shared rule is ``bound_gap``: bound -
value, read as 0 when both are +inf.
"""

import math

INF = math.inf


def bound_gap(bound: float, value: float) -> float:
    """bound - value, read as 0 when both are +inf."""
    return 0.0 if bound == value == INF else bound - value
