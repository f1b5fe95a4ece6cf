"""Every scalar public function, on every combination of edge values, either
returns a float that is not NaN or raises a RevPinskerError: a NaN input
never comes back as a NaN value, and no bare Python error escapes.  Each
public entry that takes a number follows the number rule: what is no number
raises InvalidParams, and an accepted number gives the value of the equal
float."""

import itertools
import math
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter

import mpmath
import numpy as np
import pytest

from revpinsker import (
    ClassParams,
    chi2_generator,
    chord_slope_gap,
    corollary1_bound,
    custom_generator,
    hellinger_generator,
    kl_bound_ab,
    kl_generator,
    log_over_x_minus_1,
    renyi_bound,
    renyi_from_hellinger,
    sason_chi2_bound,
    search_unconstrained_sup,
    simic_kl_bound,
    ternary_extremal,
    theorem1_bound,
    tv_cap,
    tv_generator,
    vajda_bound,
    verify_membership,
)
from revpinsker.errors import InvalidParams, RevPinskerError
from revpinsker.generators import check_alpha

EDGE_VALUES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 1.0, 2.0)
GENERATORS = (kl_generator(), tv_generator(), chi2_generator(), hellinger_generator(0.5),
              hellinger_generator(3))


def _per_generator(name, arity, call):
    return [(f"{name}[{gen.name}]", arity, lambda *x, gen=gen: call(gen, *x))
            for gen in GENERATORS]


#: (name, number of float arguments, call)
SCALAR_CALLS = [
    *_per_generator("Generator.__call__", 1, lambda gen, t: gen(t)),
    *_per_generator("chord_slope_gap", 2, chord_slope_gap),
    *_per_generator("corollary1_bound", 2, corollary1_bound),
    *_per_generator("vajda_bound", 1, vajda_bound),
    *_per_generator("theorem1_bound", 3,
                    lambda gen, d, m, M: theorem1_bound(gen, ClassParams(d, m, M))),
    ("hellinger_generator", 2, lambda alpha, t: hellinger_generator(alpha)(t)),
    ("tv_cap", 2, tv_cap),
    ("log_over_x_minus_1", 1, log_over_x_minus_1),
    ("kl_bound_ab", 3, kl_bound_ab),
    ("simic_kl_bound", 2, simic_kl_bound),
    ("renyi_from_hellinger", 2, renyi_from_hellinger),
    ("renyi_bound", 4, lambda alpha, d, m, M: renyi_bound(alpha, ClassParams(d, m, M))),
    ("sason_chi2_bound", 3, lambda d, m, M: sason_chi2_bound(ClassParams(d, m, M))),
]


@pytest.mark.parametrize("name, arity, call", SCALAR_CALLS, ids=[c[0] for c in SCALAR_CALLS])
def test_edge_values_give_a_number_or_a_typed_error(name, arity, call):
    bad = []
    for args in itertools.product(EDGE_VALUES, repeat=arity):
        try:
            value = call(*args)
        except RevPinskerError:
            continue
        except Exception as exc:  # noqa: BLE001  (any other type is the failure)
            bad.append((args, type(exc).__name__))
            continue
        if not isinstance(value, float) or math.isnan(value):
            bad.append((args, value))
    assert bad == []


# The number rule of revpinsker.distributions: a number from outside is a
# Python or numpy bool, int or float (a 0-d array too), taken as a float;
# anything else raises InvalidParams.  Each public entry that takes a number,
# with (valid float, valid integer) per number slot and a plain value in
# every other slot; a generator argument is given by its name.
_KL, _TV = kl_generator(), tv_generator()
_GENS = {"kl": _KL, "tv": _TV}
_PARAMS = ClassParams(0.25, 0.5, 2.0)
_PAIR = ternary_extremal(_PARAMS)
NUMBER_ENTRIES = [
    ("ClassParams", ((0.25, 0), (0.5, 0), (2.0, 2)),
     lambda d, m, M: attrgetter("delta", "m", "M")(ClassParams(d, m, M))),
    ("tv_cap", ((0.5, 0), (2.0, 2)), tv_cap),
    ("corollary1_bound", ("kl", (0.5, 0), (2.0, 2)),
     lambda g, m, M: corollary1_bound(_GENS[g], m, M)),
    ("vajda_bound", ("tv", (0.5, 1)), lambda g, delta: vajda_bound(_GENS[g], delta)),
    ("log_over_x_minus_1", ((2.0, 2),), log_over_x_minus_1),
    ("kl_bound_ab", ((0.1, 0), (0.5, 1), (2.0, 2)), kl_bound_ab),
    ("simic_kl_bound", ((0.5, 1), (2.0, 2)), simic_kl_bound),
    ("chord_slope_gap", ("kl", (0.1, 0), (2.0, 2)),
     lambda g, m, M: chord_slope_gap(_GENS[g], m, M)),
    ("Generator.__call__", ("kl", (2.0, 2)), lambda g, t: _GENS[g](t)),
    ("check_alpha", ((0.5, 2),), check_alpha),
    ("hellinger_generator", ((0.5, 2),), lambda a: hellinger_generator(a).f_at_zero),
    ("renyi_bound", ((2.0, 2),), lambda alpha: renyi_bound(alpha, _PARAMS)),
    ("renyi_from_hellinger", ((2.0, 2), (0.1, 1)), renyi_from_hellinger),
    ("custom_generator", ("tv", (0.5, 1), (0.5, 1)),
     lambda g, f0, f1: attrgetter("f_at_zero", "slope_at_infinity")(
         custom_generator(_GENS[g].fn, f0, f1))),
    ("verify_membership", ((1e-9, 0),),
     lambda tol: verify_membership(_PAIR.P, _PAIR.Q, _PARAMS, tol=tol).passed),
    ("search_unconstrained_sup", ("tv", (0.3, 0)),
     lambda g, delta: search_unconstrained_sup(_GENS[g], delta).best_value),
]


def _slots():
    """(id, call, valid arguments, slot index, valid float, valid integer)
    for each number slot of each entry."""
    for name, slots, call in NUMBER_ENTRIES:
        args = tuple(s[0] if isinstance(s, tuple) else s for s in slots)
        for i, s in enumerate(slots):
            if isinstance(s, tuple):
                yield f"{name}[{i}]", call, args, i, *s


SLOTS = list(_slots())


def _not_numbers(v):
    """Inputs that are no number, most of them standing for the float v."""
    return {"text": repr(v), "bytes": repr(v).encode(), "decimal": Decimal(repr(v)),
            "fraction": Fraction(v), "mpf": mpmath.mpf(v), "complex": complex(v),
            "list": [v], "1-d array": np.array([v]), "none": None, "no-number text": "a"}


NOT_NUMBER_CASES = {f"{sid}-{kind}": (call, args, i, x)
                    for sid, call, args, i, v, _ in SLOTS for kind, x in _not_numbers(v).items()}


@pytest.mark.parametrize("call, args, i, x", NOT_NUMBER_CASES.values(), ids=NOT_NUMBER_CASES)
def test_what_is_no_number_raises_invalid_params(call, args, i, x):
    with pytest.raises(InvalidParams):
        call(*args[:i], x, *args[i + 1:])


def _outcome(call, args):
    """The value as bit-exact text, each float by float.hex and each bool by
    name, or the type of the domain error; another type is shown by name."""
    try:
        value = call(*args)
    except RevPinskerError as exc:
        return type(exc).__name__
    values = value if isinstance(value, tuple) else (value,)
    return tuple(v.hex() if type(v) is float else str(v) if type(v) is bool
                 else type(v).__name__ for v in values)


def _numbers(v, k):
    """Accepted numbers: the integer k as each integer kind, and the float v
    as numpy scalars and a 0-d array."""
    return {"int": k, "bool": bool(k), "np.bool": np.bool_(k), "np.int64": np.int64(k),
            "np.uint8": np.uint8(k), "np.float64": np.float64(v), "np.float32": np.float32(v),
            "0-d array": np.array(v), "0-d int array": np.array(k)}


NUMBER_CASES = {f"{sid}-{kind}": (call, args, i, x)
                for sid, call, args, i, v, k in SLOTS for kind, x in _numbers(v, k).items()}


@pytest.mark.parametrize("call, args, i, x", NUMBER_CASES.values(), ids=NUMBER_CASES)
def test_accepted_numbers_give_the_values_of_the_equal_floats(call, args, i, x):
    got = _outcome(call, (*args[:i], x, *args[i + 1:]))
    want = _outcome(call, (*args[:i], float(x), *args[i + 1:]))
    assert got == want
    if np.asarray(x).dtype.kind == "f":  # a valid value of its slot
        assert isinstance(want, tuple)


def test_chord_slope_gap_of_float32_computes_in_double():
    # a float32 argument is taken as the float of the same binary value, so
    # the coefficient is computed in double precision
    value = chord_slope_gap(kl_generator(), np.float32(0.1), 2.0)
    assert type(value) is float
    assert value == 1.130451570429176
    assert value == chord_slope_gap(kl_generator(), float(np.float32(0.1)), 2.0)
