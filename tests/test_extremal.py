import math

import numpy as np
import pytest

from revpinsker import (
    ClassParams,
    ExtremalPair,
    PairReport,
    chi2_generator,
    corollary1_bound,
    default_grid,
    f_divergence,
    hellinger_generator,
    kl_generator,
    measure_pair,
    ternary_extremal,
    theorem1_bound,
    tv_cap,
    tv_generator,
    validate_distribution,
    verify_membership,
)
from revpinsker.errors import Infeasible, InvalidParams, UnboundedM

GENERATORS = [
    kl_generator(),
    tv_generator(),
    chi2_generator(),
    hellinger_generator(0.5),
    hellinger_generator(3),
]


def test_result_fields():
    # no field repeats an input the caller already holds
    assert list(ExtremalPair._fields) == ["P", "Q", "q", "p", "t"]
    assert list(PairReport._fields) == [
        "measured_delta", "measured_m", "measured_M", "deviation_delta", "deviation_m",
        "deviation_M", "passed", "divergences", "bounds", "gaps",
    ]


def test_worked_example():
    pair = ternary_extremal(ClassParams(0.25, 0.5, 2.0))
    np.testing.assert_allclose(pair.P.weights, [0.25, 0.5, 0.25], atol=1e-15)
    np.testing.assert_allclose(pair.Q.weights, [0.5, 0.25, 0.25], atol=1e-15)
    assert pair.t == pytest.approx(0.75)


def test_zero_ratio_atom_retained():
    pair = ternary_extremal(ClassParams(0.25, 0.0, 2.0))
    np.testing.assert_allclose(pair.P.weights, [0.0, 0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(pair.Q.weights, [0.25, 0.25, 0.5], atol=1e-15)


def test_degenerate_class_returns_point_mass():
    pair = ternary_extremal(ClassParams(0.0, 1.0, 1.0))
    assert pair.P.n == 1
    assert pair.P.weights[0] == 1.0
    assert pair.Q.weights[0] == 1.0


def test_infeasible_raises():
    with pytest.raises(Infeasible):
        ternary_extremal(ClassParams(0.5, 0.5, 2.0))


def test_unbounded_M_raises():
    with pytest.raises(UnboundedM):
        ternary_extremal(ClassParams(0.25, 0.5, math.inf))


def test_construction_matches_class_parameters():
    for params in default_grid():
        pair = ternary_extremal(params)
        delta, m, M = measure_pair(pair.P, pair.Q)
        assert delta == pytest.approx(params.delta, abs=1e-12)
        assert m == pytest.approx(params.m, abs=1e-12)
        assert M == pytest.approx(params.M, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("params", [
    # t (1 - q) = 1e-600 underflows: P = [0, 1e-300, 1] against Q = [1e-300, 0, 1]
    ClassParams(1e-300, 1e-300, 1e300),
    # subnormal weights: the pair would measure M = 2, not 3
    ClassParams(5e-324 * tv_cap(0.0, 3.0), 0.0, 3.0),
])
def test_q_weight_below_normal_range_raises(params):
    with pytest.raises(InvalidParams):
        ternary_extremal(params)


def test_small_normal_q_weights_stay_in_class():
    # Q weights 2e-300 and 1e-300 are normal doubles; the ratios keep their digits
    params = ClassParams(1e-300, 0.5, 2.0)
    pair = ternary_extremal(params)
    delta, m, M = measure_pair(pair.P, pair.Q)
    assert delta == pytest.approx(1e-300, rel=1e-12)
    assert (m, M) == pytest.approx((0.5, 2.0), rel=1e-12)


def test_subnormal_q_weight_with_exact_ratios_stays_in_class():
    # delta/(M-1) = 1e-308 is below the normal doubles, yet the M atom's
    # ratio keeps its digits
    params = ClassParams(tv_cap(0.99999999, 1e300), 0.99999999, 1e300)
    pair = ternary_extremal(params)
    assert 0.0 < pair.Q.weights[1] < 2.0**-1022
    delta, m, M = measure_pair(pair.P, pair.Q)
    assert abs(delta - params.delta) <= 1e-12
    assert abs(m - params.m) <= 1e-12
    assert abs(M - params.M) <= 1e-12 * params.M


@pytest.mark.parametrize("m, M", [(0.98046875, 766828.0), (1.0 - 1e-6, 1e6)])
def test_construction_near_m_one_with_large_M(m, M):
    # 1 - q = (1 - m)/(M - m) is tiny here; forming it as 1 - q loses digits
    params = ClassParams(tv_cap(m, M), m, M)
    pair = ternary_extremal(params)
    delta, m_hat, M_hat = measure_pair(pair.P, pair.Q)
    assert delta == pytest.approx(params.delta, abs=1e-12)
    assert m_hat == pytest.approx(m, abs=1e-12)
    assert M_hat == pytest.approx(M, rel=1e-12)


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.name)
def test_attainment_on_grid(gen):
    for params in default_grid():
        pair = ternary_extremal(params)
        value = f_divergence(gen, pair.P, pair.Q)
        bound = theorem1_bound(gen, params)
        assert abs(value - bound) <= 1e-10


def test_boundary_cap_pair_attains_corollary1():
    for m in (0.0, 0.25, 0.5):
        for M in (1.5, 2.0, 10.0):
            params = ClassParams(tv_cap(m, M), m, M)
            pair = ternary_extremal(params)
            assert pair.t == pytest.approx(1.0, abs=1e-12)
            assert pair.P.weights[2] == 0.0
            for gen in GENERATORS:
                value = f_divergence(gen, pair.P, pair.Q)
                assert value == pytest.approx(
                    corollary1_bound(gen, m, M), rel=1e-10, abs=1e-10
                )


def test_verify_membership_roundtrip():
    for params in default_grid()[::7]:
        pair = ternary_extremal(params)
        report = verify_membership(pair.P, pair.Q, params, tol=1e-10)
        assert report.passed


def test_verify_membership_attainment_gap():
    params = ClassParams(0.25, 0.5, 2.0)
    pair = ternary_extremal(params)
    report = verify_membership(
        pair.P, pair.Q, params, tol=1e-12, generators=(kl_generator(),)
    )
    assert report.passed
    assert abs(report.divergences["kl"] - 0.25 * math.log(2)) <= 1e-12
    assert abs(report.gaps["kl"]) <= 1e-12


def test_verify_membership_identical_pair():
    d = validate_distribution([1.0])
    report = verify_membership(d, d, ClassParams(0.0, 1.0, 1.0), tol=1e-12)
    assert report.passed
    assert report.deviation_delta == 0.0


def test_verify_membership_measures_M_relative_to_M():
    # the pair's measured M is 1e8 + 1.5e-8, an error of 1.5e-16 relative
    params = ClassParams(0.5 * tv_cap(0.5, 1e8), 0.5, 1e8)
    pair = ternary_extremal(params)
    report = verify_membership(pair.P, pair.Q, params)
    assert report.measured_M != 1e8
    assert report.deviation_M <= 1e-15
    assert report.passed


def test_verify_membership_finite_M_against_infinite_target():
    P = validate_distribution([0.25, 0.5, 0.25])
    Q = validate_distribution([0.5, 0.25, 0.25])
    report = verify_membership(P, Q, ClassParams(0.25, 0.5, math.inf))
    assert report.deviation_M == 1.0
    assert not report.passed


def test_verify_membership_detects_wrong_delta():
    P = validate_distribution([0.25, 0.5, 0.25])
    Q = validate_distribution([0.5, 0.25, 0.25])
    report = verify_membership(P, Q, ClassParams(0.3, 0.5, 2.0), tol=1e-12)
    assert not report.passed
    assert report.deviation_delta == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_verify_membership_rejects_a_negative_or_nan_tol(tol):
    params = ClassParams(0.25, 0.5, 2.0)
    pair = ternary_extremal(params)
    with pytest.raises(InvalidParams, match="tol"):
        verify_membership(pair.P, pair.Q, params, tol=tol)


def test_verify_membership_infinite_tol_passes_any_measured_pair():
    P = validate_distribution([0.25, 0.5, 0.25])
    Q = validate_distribution([0.5, 0.25, 0.25])
    report = verify_membership(P, Q, ClassParams(0.0, 0.1, 10.0), tol=math.inf)
    assert report.deviation_delta == 0.25
    assert report.passed
