import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revpinsker import (
    INF,
    batch_f_divergence,
    chi2_generator,
    custom_generator,
    f_divergence,
    hellinger_generator,
    kl_generator,
    measure_pair,
    renyi_from_hellinger,
    total_variation,
    tv_generator,
    validate_distribution,
)
from revpinsker.distributions import _validate_batch
from revpinsker.divergence import _row_sums
from revpinsker.errors import (
    EmptyVector,
    InvalidAlpha,
    LengthMismatch,
    LogDomain,
    NegativeWeight,
    NotAbsolutelyContinuous,
)


@pytest.fixture
def pair():
    P = validate_distribution([0.25, 0.5, 0.25])
    Q = validate_distribution([0.5, 0.25, 0.25])
    return P, Q


def test_kl_identical_is_zero():
    d = validate_distribution([0.2, 0.3, 0.5])
    assert f_divergence(kl_generator(), d, d) == 0.0


def test_kl_worked_example(pair):
    P, Q = pair
    # direct evaluation: 0.5 f(0.5) + 0.25 f(2) + 0.25 f(1) = 0.25 ln 2
    expected = 0.5 * (0.5 * math.log(0.5)) + 0.25 * (2 * math.log(2))
    assert expected == pytest.approx(0.25 * math.log(2), abs=1e-15)
    assert f_divergence(kl_generator(), P, Q) == pytest.approx(expected, abs=1e-15)


def test_tv_generator_matches_total_variation(pair):
    P, Q = pair
    assert f_divergence(tv_generator(), P, Q) == pytest.approx(
        total_variation(P, Q), abs=1e-12
    )


def test_zero_p_atom_uses_limit():
    P = validate_distribution([0.0, 0.5, 0.5])
    Q = validate_distribution([0.25, 0.25, 0.5])
    # chi2 has f(0) = -1, so the zero atom contributes -0.25
    direct = 0.25 * (-1.0) + 0.25 * (2**2 - 1) + 0.5 * 0.0
    assert f_divergence(chi2_generator(), P, Q) == pytest.approx(direct, abs=1e-15)


def test_infinite_limit_gives_infinite_divergence():
    # reverse-KL style generator with f(0) = +inf
    g = custom_generator(lambda t: -math.log(t), f_at_zero=INF, slope_at_infinity=0.0)
    P = validate_distribution([0.0, 1.0])
    Q = validate_distribution([0.5, 0.5])
    assert f_divergence(g, P, Q) == INF


def test_batch_row_with_zero_p_atom_is_inf_alone():
    g = custom_generator(lambda t: -math.log(t), f_at_zero=INF, slope_at_infinity=0.0)
    p = np.array([[0.0, 1.0], [0.25, 0.75], [0.5, 0.5]])
    q = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    values = batch_f_divergence(g, p, q)
    assert values[0] == INF
    assert values[1] == pytest.approx(-0.5 * math.log(0.5) - 0.5 * math.log(1.5))
    assert values[2] == 0.0


def test_requires_absolute_continuity():
    P = validate_distribution([0.5, 0.5])
    Q = validate_distribution([1.0, 0.0])
    with pytest.raises(NotAbsolutelyContinuous):
        f_divergence(kl_generator(), P, Q)


@pytest.mark.parametrize("gen", [kl_generator(), tv_generator()], ids=["kl", "tv"])
def test_batch_rejects_a_row_without_absolute_continuity(gen):
    # the truncated sum over q > 0 would give -0.3466 for KL and 0.25 for TV
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    q = np.array([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(NotAbsolutelyContinuous):
        batch_f_divergence(gen, p, q)


def test_unequal_lengths_raise_length_mismatch():
    P = validate_distribution([0.5, 0.5])
    Q = validate_distribution([0.25, 0.25, 0.5])
    with pytest.raises(LengthMismatch):
        f_divergence(kl_generator(), P, Q)
    with pytest.raises(LengthMismatch):
        batch_f_divergence(kl_generator(), P.weights[None], Q.weights[None])


def _masked_batch_f_divergence(gen, p, q):
    """The masked D_f sum, with ``Generator.evaluate``'s f(0+) rule written
    out: every q = 0 atom's ratio is set to 1 and its term to 0."""
    support = q > 0
    if (p[~support] > 0).any():
        raise NotAbsolutelyContinuous("P has mass where Q has none")
    ratios = np.divide(p, q, out=np.ones_like(p), where=support)
    zero = ratios == 0.0
    f = np.where(zero, gen.f_at_zero, gen.fn(np.where(zero, 1.0, ratios)))
    return np.where(support, q * f, 0.0).sum(axis=1)


def _sqrt_hellinger(t):
    """(sqrt t - 1)^2, through math.sqrt, so it takes no arrays."""
    s = math.sqrt(t) - 1.0
    return s * s


#: the last, -log t, has f(1) = -0.0: its q = 0 terms are 0 * -0.0 = -0.0,
#: where the masked reference writes +0.0
BATCH_GENERATORS = (kl_generator(), tv_generator(), chi2_generator(),
                    hellinger_generator(0.5), hellinger_generator(3),
                    custom_generator(_sqrt_hellinger, f_at_zero=1.0, slope_at_infinity=1.0),
                    custom_generator(lambda t: -math.log(t), f_at_zero=INF, slope_at_infinity=0.0,
                                     name="reverse_kl"))

_positive = st.one_of(st.floats(5e-324, 1.0), st.floats(1.0, 1e300))
_weight = st.one_of(st.just(0.0), _positive)


@st.composite
def _batches(draw):
    """(p, q) of one shape, with p = 0 atoms and, in some batches, q = 0
    atoms, each of them under a p = 0 atom or under mass, in C or Fortran
    order.

    Up to 40 rows and 20 columns, or 255 to 257 rows, so the sum, masked
    or not, is taken both by ndarray.sum and, below 8 columns from 256
    rows, by ``_row_sums``.  The weights are drawn from a pool that hypothesis
    picks, placed by a seeded generator, which keeps a 257 x 20 batch
    within hypothesis's data budget."""
    n = draw(st.integers(1, 20))
    rows = draw(st.one_of(st.integers(1, 40), st.sampled_from((255, 256, 257))))
    p_pool = draw(st.lists(_weight, min_size=1, max_size=12))
    q_pool = draw(st.lists(_positive, min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.choice(p_pool, size=(rows, n))
    q = rng.choice(q_pool, size=(rows, n))
    if draw(st.booleans()):
        zeros = rng.random((rows, n)) < draw(st.floats(0.0, 1.0))
        q[zeros] = 0.0
        if draw(st.booleans()):
            p[zeros] = 0.0
    if draw(st.booleans()):
        p, q = np.asfortranarray(p), np.asfortranarray(q)
    return p, q


@given(st.sampled_from(BATCH_GENERATORS), _batches())
@settings(max_examples=300, deadline=None)
def test_batch_is_the_masked_sum_bit_for_bit(gen, batch):
    p, q = batch
    with np.errstate(all="ignore"):
        try:
            expected = _masked_batch_f_divergence(gen, p, q)
        except NotAbsolutelyContinuous:
            with pytest.raises(NotAbsolutelyContinuous):
                batch_f_divergence(gen, p, q)
            return
        got = batch_f_divergence(gen, p, q)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _special_rows(rng, rows, n):
    """rows x n terms: normals scaled by 1e-3 to 1e3, so that the order of
    the additions shows in the last bits, with terms from 1e-300 to 1e300
    and special values sprinkled; led by (as far as there are rows) one row
    each of -0.0, mixed zeros, +inf, -inf, inf - inf, NaN, subnormals and
    terms that overflow when added."""
    terms = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, n))
    wide = rng.random((rows, n)) < 0.05
    terms[wide] *= 10.0 ** rng.integers(-297, 298, wide.sum())
    specials = (-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308)
    mask = rng.random((rows, n)) < 0.05
    terms[mask] = rng.choice(specials, size=mask.sum())
    normal = rng.standard_normal(n)
    lead = (
        np.full(n, -0.0),
        rng.choice((0.0, -0.0), size=n),
        np.r_[normal[1:], math.inf],
        np.r_[-math.inf, normal[1:]],
        np.resize((math.inf, -math.inf), n),
        np.where(np.arange(n) == n // 2, math.nan, normal),
        5e-324 * rng.integers(-1000, 1001, n),
        np.full(n, 1e308),
    )[:rows]
    terms[:len(lead)] = lead
    return terms


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", range(1, 8))
def test_row_sums_is_ndarray_sum(n, order):
    """Below 8 columns ``_row_sums`` is ``ndarray.sum(axis=1)`` bit for bit
    in either memory layout: this numpy (2.4) sums such a row as a running
    sum from +0.0, and the test pins that order.  float.hex is compared,
    so a NaN's sign, which numpy does not fix, is not."""
    rng = np.random.default_rng(n)
    for rows in (n + 1, 2000):
        terms = np.asarray(_special_rows(rng, rows, n), order=order)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = terms.sum(axis=1)
            got = _row_sums(terms)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert list(map(float.hex, got.tolist())) == list(map(float.hex, expected.tolist()))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [*range(1, 21), 127, 128, 129, 300])
def test_unmasked_batch_is_ndarray_sum_in_either_order(n, order):
    """The unmasked D_f rows equal ``ndarray.sum(axis=1)`` of the terms in
    the batch's own memory layout, on either side of the ``_row_sums``
    gate: numpy sums a C-ordered row of 8 or more columns pairwise and a
    Fortran-ordered one a column at a time, and the two differ in the
    last bits."""
    gen = kl_generator()
    rng = np.random.default_rng(n)
    for rows in (n + 1, 256, 2000):
        p = np.asarray(rng.random((rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, n)), order=order)
        q = np.asarray(rng.random((rows, n)) + 1e-3, order=order)
        terms = gen.evaluate(p / q)
        terms *= q
        expected = terms.sum(axis=1)
        got = batch_f_divergence(gen, p, q)
        assert list(map(float.hex, got.tolist())) == list(map(float.hex, expected.tolist()))


@pytest.mark.parametrize("gen", BATCH_GENERATORS, ids=lambda g: g.name)
def test_batch_checks_shapes_before_the_support(gen):
    with pytest.raises(LengthMismatch):
        batch_f_divergence(gen, np.full((2, 3), 0.5), np.full((2, 2), 0.5))
    with pytest.raises(LengthMismatch):
        batch_f_divergence(gen, np.full((2, 3), 0.5), np.zeros((3, 2)))


@pytest.mark.parametrize("shape", [(2,), (1, 1, 2)], ids=["1-D", "3-D"])
def test_batch_rejects_arrays_that_are_not_2d(shape):
    # a 1-D pair raised IndexError and a 3-D one summed to a 2-D result
    with pytest.raises(LengthMismatch):
        batch_f_divergence(kl_generator(), np.full(shape, 0.5), np.full(shape, 0.5))


#: (p, q) that are not weights; each returned numbers or raised
#: NotAbsolutelyContinuous before it was checked
BAD_WEIGHTS = [
    ([[-0.5, 1.5]], [[0.5, 0.5]]),
    ([[math.nan, 1.0]], [[0.5, 0.5]]),
    ([[0.5, 0.5]], [[-0.5, 1.5]]),
    ([[0.5, 0.5]], [[math.nan, 0.5]]),
    ([[-0.5, 1.5, 0.0]], [[0.5, 0.5, 0.0]]),  # a q = 0 atom: the masked ratios
]


@pytest.mark.parametrize("gen", BATCH_GENERATORS[:3], ids=lambda g: g.name)
@pytest.mark.parametrize("p, q", BAD_WEIGHTS,
                         ids=["p-negative", "p-nan", "q-negative", "q-nan", "p-negative-q-zero"])
def test_batch_rejects_negative_or_nan_weights(gen, p, q):
    with pytest.raises(NegativeWeight):
        batch_f_divergence(gen, np.array(p), np.array(q))


#: p that is no array of weights, against q = [[0.25, 0.75]]; the text
#: and the Fraction items gave tv 0.25, the dict and the ragged list raised
#: a bare TypeError and ValueError
NOT_WEIGHT_BATCHES = {
    "str": [["0.5", "0.5"]],
    "bytes": [[b"0.5", b"0.5"]],
    "str-array": np.array([["0.5", "0.5"]]),
    "fraction": [[Fraction(1, 2), Fraction(1, 2)]],
    "dict": {0: 1},
    "ragged": [[0.5], [0.5, 0.5]],
    "complex-array": np.array([[0.5, 0.5]], dtype=complex),
}


@pytest.mark.parametrize("side", ["p", "q"])
@pytest.mark.parametrize("p", NOT_WEIGHT_BATCHES.values(), ids=NOT_WEIGHT_BATCHES.keys())
def test_batch_rejects_what_is_no_array_of_weights(p, side):
    q = [[0.25, 0.75]]
    with pytest.raises(EmptyVector):
        batch_f_divergence(tv_generator(), *((p, q) if side == "p" else (q, p)))


@pytest.mark.parametrize("gen", BATCH_GENERATORS[:3], ids=lambda g: g.name)
@pytest.mark.parametrize("p, q", [
    ([[0.5, 0.5]], [[0.25, 0.75]]),
    (((1, 0), (0, 1)), [[True, False], [False, True]]),
    (np.array([[1, 0]], np.uint8), np.array([[0.5, 0.5]], np.float32)),
], ids=["lists", "int-and-bool", "uint8-and-float32"])
def test_batch_of_accepted_weights_is_the_batch_of_the_equal_floats(gen, p, q):
    floats = np.array(p, dtype=float), np.array(q, dtype=float)
    assert batch_f_divergence(gen, p, q).tobytes() == batch_f_divergence(gen, *floats).tobytes()


def test_batch_keeps_a_float_batch_as_it_is():
    p = np.array([[0.5, 0.5]])
    assert all(a is b for a, b in zip(_validate_batch(p, p), (p, p)))


def test_chi2_closed_form(pair):
    P, Q = pair
    direct = sum(
        (p - q) ** 2 / q for p, q in zip(P.weights, Q.weights) if q > 0
    )
    assert f_divergence(hellinger_generator(2), P, Q) == pytest.approx(
        direct, abs=1e-12
    )


def test_renyi_from_hellinger_values():
    assert renyi_from_hellinger(2, 0.0) == 0.0
    assert renyi_from_hellinger(2, 0.5) == pytest.approx(math.log(1.5), abs=1e-12)
    assert renyi_from_hellinger(2, INF) == INF


@pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0])
@pytest.mark.parametrize("h", [0.0, -0.0])
def test_renyi_from_hellinger_zero_is_positive_zero(alpha, h):
    # log(1) / (alpha - 1) alone is -0.0 for alpha < 1
    value = renyi_from_hellinger(alpha, h)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@given(st.sampled_from((0.25, 0.5, 2.0, 3.0)), st.floats(-300.0, -3.0))
@settings(max_examples=200, deadline=None)
def test_renyi_from_hellinger_keeps_small_values(alpha, log_h):
    # 1 + (alpha-1) h would round a small h away; the 50-digit reference does not
    h = 10.0**log_h
    with mpmath.workdps(50):
        exact = mpmath.log1p((alpha - 1) * mpmath.mpf(h)) / (alpha - 1)
        rel = abs((renyi_from_hellinger(alpha, h) - exact) / exact)
    assert rel <= 1e-15


def test_renyi_from_hellinger_log_domain():
    with pytest.raises(LogDomain):
        renyi_from_hellinger(0.5, 3.0)
    with pytest.raises(LogDomain):
        renyi_from_hellinger(0.5, INF)


def test_renyi_from_hellinger_rejects_nan_value():
    with pytest.raises(LogDomain):
        renyi_from_hellinger(2, math.nan)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -2.0, INF, math.nan])
def test_renyi_from_hellinger_rejects_bad_alpha(alpha):
    # the order is checked as hellinger_generator and renyi_bound check it
    with pytest.raises(InvalidAlpha):
        renyi_from_hellinger(alpha, 0.5)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
def test_renyi_divergence_of_finite_hellinger_is_the_transform(alpha, pair):
    h = f_divergence(hellinger_generator(alpha), *pair)
    assert renyi_from_hellinger(alpha, h, pair) == renyi_from_hellinger(alpha, h)


def test_renyi_divergence_past_hellinger_overflow():
    # sum p**3 / q**2 is about 1e599: the Hellinger value overflows, the
    # Renyi value is its log over 2
    P = validate_distribution([0.1, 0.1, 0.8])
    Q = validate_distribution([0.2, 1e-301, 0.8])
    with np.errstate(over="ignore"):
        h = f_divergence(hellinger_generator(3), P, Q)
    assert h == INF
    with mpmath.workdps(50):
        terms = (mpmath.mpf(p) ** 3 / mpmath.mpf(q) ** 2 for p, q in zip(P.values, Q.values))
        exact = mpmath.log(mpmath.fsum(terms)) / 2
    assert abs(renyi_from_hellinger(3, h, (P, Q)) - exact) <= 1e-12
    assert renyi_from_hellinger(3, h) == INF  # no source: the value stays +inf


def test_renyi_divergence_requires_absolute_continuity():
    P = validate_distribution([0.5, 0.5])
    Q = validate_distribution([1.0, 0.0])
    with pytest.raises(NotAbsolutelyContinuous):
        renyi_from_hellinger(2, INF, (P, Q))


def test_measure_pair(pair):
    P, Q = pair
    assert measure_pair(P, Q) == (0.25, 0.5, 2.0)
