"""Every scalar public function, on every combination of edge values, either
returns a float that is not NaN or raises a RevPinskerError: a NaN input
never comes back as a NaN value, and no bare Python error escapes."""

import itertools
import math

import pytest

from revpinsker import (
    ClassParams,
    chi2_generator,
    chord_slope_gap,
    corollary1_bound,
    hellinger_generator,
    kl_bound_ab,
    kl_generator,
    log_over_x_minus_1,
    renyi_bound,
    renyi_from_hellinger,
    sason_chi2_bound,
    simic_kl_bound,
    theorem1_bound,
    tv_cap,
    tv_generator,
    vajda_bound,
)
from revpinsker.errors import RevPinskerError

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
