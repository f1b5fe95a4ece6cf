"""Extended-real arithmetic on plain floats.

Values live in [-inf, +inf] and are represented as IEEE doubles with the two
infinities; NaN is never a legal value.  A sum that has no extended-real
meaning (inf - inf) raises instead of silently producing NaN.  The product
0 * f(0) inside a divergence sum is handled at the call site by skipping
zero-weight terms, never here.
"""

import math

from .errors import UndefinedExtendedValue

INF = math.inf


def as_extended(x: float) -> float:
    """Coerce to float, rejecting NaN."""
    x = float(x)
    if math.isnan(x):
        raise UndefinedExtendedValue("NaN is not an extended real")
    return x


def ext_add(x: float, y: float) -> float:
    x, y = as_extended(x), as_extended(y)
    if math.isinf(x) and math.isinf(y) and x != y:
        raise UndefinedExtendedValue("(+inf) + (-inf) is undefined")
    return x + y
