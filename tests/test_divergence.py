import math

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
from revpinsker.errors import InvalidAlpha, LengthMismatch, LogDomain, NotAbsolutelyContinuous


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


def test_measure_pair(pair):
    P, Q = pair
    assert measure_pair(P, Q) == (0.25, 0.5, 2.0)
