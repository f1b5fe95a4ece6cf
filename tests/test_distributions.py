import array
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revpinsker import (
    ratio_extremes,
    total_variation,
    validate_distribution,
)
from revpinsker.distributions import _normalized
from revpinsker.errors import (
    EmptyVector,
    LengthMismatch,
    NegativeWeight,
    NotAbsolutelyContinuous,
    RevPinskerError,
    SumOutOfTolerance,
)


def test_validate_already_normalized():
    d = validate_distribution([0.5, 0.25, 0.25])
    np.testing.assert_allclose(d.weights, [0.5, 0.25, 0.25])


def test_validate_point_mass():
    d = validate_distribution([1.0])
    assert d.n == 1
    assert d.weights[0] == 1.0


def test_validate_rejects_negative():
    with pytest.raises(NegativeWeight):
        validate_distribution([0.5, -0.1, 0.6])


def test_validate_rejects_empty():
    with pytest.raises(EmptyVector):
        validate_distribution([])


def test_validate_rejects_bad_sum():
    with pytest.raises(SumOutOfTolerance):
        validate_distribution([0.5, 0.6])


def test_validate_renormalizes_within_tolerance():
    d = validate_distribution([0.5, 0.5 + 1e-10])
    assert math.isclose(float(d.weights.sum()), 1.0, rel_tol=0, abs_tol=1e-15)


def test_weights_are_read_only():
    d = validate_distribution([0.5, 0.5])
    with pytest.raises(ValueError):
        d.weights[0] = 0.3


def test_total_variation_identical():
    d = validate_distribution([0.5, 0.5])
    assert total_variation(d, d) == 0.0


def test_total_variation_example():
    P = validate_distribution([0.25, 0.5, 0.25])
    Q = validate_distribution([0.5, 0.25, 0.25])
    assert total_variation(P, Q) == pytest.approx(0.25, abs=1e-15)


def test_total_variation_disjoint():
    P = validate_distribution([1.0, 0.0])
    Q = validate_distribution([0.0, 1.0])
    assert total_variation(P, Q) == 1.0


def test_total_variation_length_mismatch():
    with pytest.raises(LengthMismatch):
        total_variation(validate_distribution([1.0]), validate_distribution([0.5, 0.5]))


def test_ratio_extremes_example():
    P = validate_distribution([0.25, 0.5, 0.25])
    Q = validate_distribution([0.5, 0.25, 0.25])
    m, M = ratio_extremes(P, Q)
    assert m == pytest.approx(0.5, abs=1e-15)
    assert M == pytest.approx(2.0, abs=1e-15)


def test_ratio_extremes_identical():
    d = validate_distribution([0.3, 0.7])
    assert ratio_extremes(d, d) == (1.0, 1.0)


def test_ratio_extremes_zero_atom():
    P = validate_distribution([0.0, 0.5, 0.5])
    Q = validate_distribution([0.25, 0.25, 0.5])
    m, M = ratio_extremes(P, Q)
    assert m == 0.0
    assert M == pytest.approx(2.0, abs=1e-15)


def test_ratio_extremes_requires_absolute_continuity():
    P = validate_distribution([0.5, 0.5])
    Q = validate_distribution([1.0, 0.0])
    with pytest.raises(NotAbsolutelyContinuous):
        ratio_extremes(P, Q)


@pytest.mark.parametrize("n", range(1, 8))
def test_values_match_the_numpy_normalization_below_eight_atoms(n):
    # left to right is numpy's summation order below 8 terms
    rng = np.random.default_rng(n)
    for _ in range(500):
        w = rng.dirichlet(np.ones(n))
        w[rng.random(n) < 0.2] *= rng.choice([1e-8, 1e-300])
        w *= (1.0 + rng.uniform(-1e-9, 1e-9)) / w.sum()  # within SUM_TOLERANCE
        assert validate_distribution(w).values == tuple((w / w.sum()).tolist())


def test_values_is_a_tuple_of_floats():
    d = validate_distribution(np.array([1, 3]) / 4)
    assert d.values == (0.25, 0.75)
    assert all(type(x) is float for x in d.values)
    assert validate_distribution(1.0).values == (1.0,)


def test_len_is_the_support_size():
    d = validate_distribution([0.2, 0.3, 0.5, 0.0])
    assert len(d) == d.n == 4


def test_weights_is_a_read_only_array_of_the_values():
    d = validate_distribution([0.2, 0.3, 0.5])
    assert isinstance(d.weights, np.ndarray) and not d.weights.flags.writeable
    assert d.weights.tolist() == list(d.values)
    assert d.weights is d.weights  # built once


@pytest.mark.parametrize("weights", [[[0.5, 0.5]], np.ones((2, 2)) / 4])
def test_validate_rejects_nested_input(weights):
    with pytest.raises(EmptyVector):
        validate_distribution(weights)


def test_validate_rejects_an_item_that_is_not_a_number():
    # float("a") raises ValueError, which is a domain error here
    with pytest.raises(EmptyVector):
        validate_distribution(["a", 1])


@pytest.mark.parametrize("text", ["1", "11", "0.5", b"1", bytearray(b"1")],
                         ids=["str-1", "str-11", "str-0.5", "bytes", "bytearray"])
def test_validate_rejects_text(text):
    # a str or bytes used to be iterated: "1" gave Distribution([1.0]) and
    # b"1" the byte 49
    with pytest.raises(EmptyVector):
        validate_distribution(text)


def test_validate_rejects_nan():
    with pytest.raises(NegativeWeight):
        validate_distribution([0.5, math.nan, 0.5])


@pytest.mark.parametrize("weights", [
    {0.25: 0, 0.75: 0}, {0.75, 0.25}, frozenset((0.25, 0.75)),
    ["0.5", "0.5"], [b"0.5", 0.5], [" 1 "], [bytearray(b"1")],
    memoryview(b"\x01"), [memoryview(b"1")], array.array("d", [0.5, 0.5]), range(1, 2),
    (w for w in (0.5, 0.5)), [Decimal("0.5"), Decimal("0.5")], [Fraction(1, 2), Fraction(1, 2)],
    np.array([0.5, 0.5], dtype=object), np.array([0.5, 0.5], dtype=complex),
], ids=["dict", "set", "frozenset", "str-items", "bytes-item", "padded-str-item",
        "bytearray-item", "memoryview", "memoryview-item", "array.array", "range", "generator",
        "decimal-items", "fraction-items", "object-array", "complex-array"])
def test_validate_rejects_mappings_sets_and_text_items(weights):
    # none is a vector of weights: a dict used to be read by its keys, a set
    # in hash order, and float() parsed text, buffer, Decimal, Fraction and
    # object items; a memoryview, an array.array, a range and a generator
    # were iterated
    with pytest.raises(EmptyVector):
        validate_distribution(weights)


@pytest.mark.parametrize("weights", [[0.5, 10**400], (10**400,), 10**400, [0.5, -10**309]],
                         ids=["list", "tuple", "one-weight", "negative"])
def test_validate_rejects_an_int_past_float_range(weights):
    # float() of such an int raised a bare OverflowError; an object array of
    # it is already no weight vector, and a list of it is none either
    with pytest.raises(EmptyVector):
        validate_distribution(weights)


#: inputs the rule accepts, each with the list of floats it equals
WEIGHTS = {
    "float-list": ([0.5, 0.5], [0.5, 0.5]), "float-tuple": ((0.5, 0.5), [0.5, 0.5]),
    "int-list": ([1, 0], [1.0, 0.0]), "int-tuple": ((1, 0), [1.0, 0.0]),
    "bool-list": ([True, False], [1.0, 0.0]), "bool-tuple": ((True, False), [1.0, 0.0]),
    "float-array": (np.array([0.5, 0.5]), [0.5, 0.5]),
    "float32-array": (np.array([0.5, 0.5], np.float32), [0.5, 0.5]),
    "int-array": (np.array([1, 0]), [1.0, 0.0]),
    "uint8-array": (np.array([1, 0], np.uint8), [1.0, 0.0]),
    "bool-array": (np.array([True, False]), [1.0, 0.0]),
    "float32-items": ([np.float32(0.5), np.float32(0.5)], [0.5, 0.5]),
    "numpy-int-items": ((np.int64(1), np.uint8(0)), [1.0, 0.0]),
    "numpy-bool-items": ([np.True_, np.False_], [1.0, 0.0]),
    "float": (1.0, [1.0]), "int": (1, [1.0]), "bool": (True, [1.0]),
    "float64-scalar": (np.float64(1.0), [1.0]), "float32-scalar": (np.float32(1.0), [1.0]),
    "int64-scalar": (np.int64(1), [1.0]), "bool-scalar": (np.True_, [1.0]),
    "0-d-array": (np.array(1.0), [1.0]),
}


@pytest.mark.parametrize("weights, floats", WEIGHTS.values(), ids=WEIGHTS.keys())
def test_accepted_weights_give_the_values_of_the_equal_floats(weights, floats):
    assert validate_distribution(weights).values == validate_distribution(floats).values


#: single weights that reach each value check: NaN, signed zeros,
#: subnormals, negatives and infinities
SPECIAL_WEIGHTS = st.sampled_from((math.nan, 0.0, -0.0, 5e-324, 1e-310, -5e-324, -0.25,
                                   math.inf, -math.inf))
WEIGHT_TUPLES = st.one_of(
    # sums anywhere, mostly further than SUM_TOLERANCE from one
    st.lists(st.one_of(st.floats(allow_nan=True), SPECIAL_WEIGHTS), min_size=1, max_size=8),
    # sums within SUM_TOLERANCE of one, or off by about 1e-9
    st.tuples(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
              st.sampled_from((0.0, 5e-10, -5e-10, 2e-9, -2e-9))).map(
        lambda drawn: [x * (1.0 + drawn[1]) / math.fsum(drawn[0]) for x in drawn[0]]
        if math.fsum(drawn[0]) > 0.0 else drawn[0]),
).map(tuple)


def outcome(normalize, w):
    """The values as float.hex, bit for bit, or the error's type and message."""
    try:
        return [x.hex() for x in normalize(w).values]
    except RevPinskerError as exc:
        return type(exc), str(exc)


@given(WEIGHT_TUPLES)
@settings(max_examples=500, deadline=None)
def test_normalizer_agrees_with_validate_distribution(w):
    assert outcome(lambda v: validate_distribution(list(v)), w) == outcome(_normalized, w)
