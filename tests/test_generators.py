import math

import mpmath
import numpy as np
import pytest

from revpinsker import (
    INF,
    Generator,
    chi2_generator,
    corollary1_bound,
    custom_generator,
    hellinger_generator,
    kl_generator,
    tv_generator,
)
from revpinsker.errors import (
    FailsAnchorCheck,
    FailsConvexitySample,
    InvalidAlpha,
    InvalidParams,
)


def test_kl_generator_limits():
    g = kl_generator()
    assert g(1.0) == 0.0
    assert g.f_at_zero == 0.0
    assert g.slope_at_infinity == INF
    assert g(2.0) == pytest.approx(2 * math.log(2), abs=1e-15)


def test_tv_generator_limits():
    g = tv_generator()
    assert g(1.0) == 0.0
    assert g.f_at_zero == 0.5
    assert g.slope_at_infinity == 0.5


def test_chi2_generator_matches_hellinger_two():
    g = chi2_generator()
    h = hellinger_generator(2)
    assert g.f_at_zero == -1.0
    assert g.slope_at_infinity == INF
    for t in (0.1, 0.5, 1.0, 2.0, 7.0):
        assert g(t) == pytest.approx(h(t), abs=1e-12)
    assert h(2.0) == pytest.approx(3.0, abs=1e-15)


@pytest.mark.parametrize("alpha,f0,slope", [(0.5, 2.0, 0.0), (3.0, -0.5, INF)])
def test_hellinger_limits(alpha, f0, slope):
    g = hellinger_generator(alpha)
    assert g(1.0) == 0.0
    assert g.f_at_zero == pytest.approx(f0)
    assert g.slope_at_infinity == slope


@pytest.mark.parametrize("alpha", [0.0, 1.0, -2.0, INF])
def test_hellinger_rejects_bad_alpha(alpha):
    with pytest.raises(InvalidAlpha):
        hellinger_generator(alpha)


def test_named_generators_approach_declared_limits():
    # sampled consistency of the stored limit fields with the map itself
    for g in (tv_generator(), hellinger_generator(0.5), chi2_generator()):
        if math.isfinite(g.f_at_zero):
            assert g(1e-12) == pytest.approx(g.f_at_zero, abs=1e-5)
        if math.isfinite(g.slope_at_infinity):
            assert g(1e12) / 1e12 == pytest.approx(g.slope_at_infinity, abs=1e-5)


def test_custom_generator_quadratic():
    g = custom_generator(lambda t: (t - 1.0) ** 2, f_at_zero=1.0, slope_at_infinity=INF)
    assert g(3.0) == 4.0
    assert g.f_at_zero == 1.0


def test_custom_generator_linear_has_zero_divergence():
    from revpinsker import f_divergence, validate_distribution

    g = custom_generator(lambda t: t - 1.0, f_at_zero=-1.0, slope_at_infinity=1.0)
    P = validate_distribution([0.25, 0.5, 0.25])
    Q = validate_distribution([0.5, 0.25, 0.25])
    assert f_divergence(g, P, Q) == pytest.approx(0.0, abs=1e-15)


def test_custom_generator_rejects_concave():
    with pytest.raises(FailsConvexitySample):
        custom_generator(lambda t: -(t**2) + 1.0, f_at_zero=1.0, slope_at_infinity=-INF)


def test_custom_generator_rejects_bad_anchor():
    with pytest.raises(FailsAnchorCheck):
        custom_generator(lambda t: t * t, f_at_zero=0.0, slope_at_infinity=INF)


def test_custom_generator_rejects_nan_anchor():
    with pytest.raises(FailsAnchorCheck):
        custom_generator(lambda t: math.nan, 0.0, 1.0)


def test_custom_generator_rejects_nan_off_the_anchor():
    with pytest.raises(FailsConvexitySample):
        custom_generator(lambda t: 0.0 if t == 1.0 else math.nan, 0.0, 1.0)


def test_custom_generator_rejects_minus_inf_at_zero():
    with pytest.raises(InvalidParams):
        custom_generator(lambda t: t - 1.0, f_at_zero=-INF, slope_at_infinity=1.0)


@pytest.mark.parametrize("f_at_zero, slope", [(1.0, -INF), (math.nan, 1.0), (1.0, math.nan)])
def test_custom_generator_rejects_minus_inf_and_nan_limits(f_at_zero, slope):
    # |t - 1| is convex with f(1) = 0, so only the declared limits are wrong
    with pytest.raises(InvalidParams):
        custom_generator(lambda t: abs(t - 1.0), f_at_zero, slope)


@pytest.mark.parametrize("f_at_zero, slope", [(-INF, INF), (1.0, -INF), (math.nan, 1.0),
                                               (1.0, math.nan)])
def test_generator_record_rejects_minus_inf_and_nan_limits(f_at_zero, slope):
    # the record checks its limits itself: vajda_bound gave NaN on
    # Generator("g", t*t - 1, -inf, inf)
    with pytest.raises(InvalidParams):
        Generator("g", lambda t: t * t - 1.0, f_at_zero, slope)


def test_corollary1_tv_recovers_cap():
    # the tv bound at the cap is the cap itself, (M-1)(1-m)/(M-m) = 1/3
    assert corollary1_bound(tv_generator(), 0.5, 2.0) == pytest.approx(1 / 3, abs=1e-12)


def test_scalar_only_custom_generator_matches_kl():
    # math.log rejects arrays: custom_generator wraps f once, evaluate stays direct
    import numpy as np

    from revpinsker import (
        ClassParams,
        SearchConfig,
        batch_f_divergence,
        f_divergence,
        search_sup,
        validate_distribution,
    )

    scalar = custom_generator(lambda t: t * math.log(t), 0.0, INF)
    kl = kl_generator()
    P = validate_distribution([0.1, 0.2, 0.3, 0.4])
    Q = validate_distribution([0.4, 0.3, 0.2, 0.1])
    assert f_divergence(scalar, P, Q) == pytest.approx(f_divergence(kl, P, Q), rel=1e-12)

    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(5), size=40)
    q = rng.dirichlet(np.ones(5), size=40)
    np.testing.assert_allclose(
        batch_f_divergence(scalar, p, q), batch_f_divergence(kl, p, q), rtol=1e-12
    )

    params = ClassParams(0.2, 0.25, 5.0)
    config = SearchConfig(trials=500, seed=11)
    got, want = search_sup(scalar, params, config), search_sup(kl, params, config)
    assert got.violations == want.violations == 0
    assert got.bound == pytest.approx(want.bound, rel=1e-12)
    assert got.best_value == pytest.approx(want.best_value, rel=1e-12)


def test_array_custom_generator_is_not_wrapped():
    f = lambda t: (t - 1.0) ** 2  # noqa: E731
    assert custom_generator(f, f_at_zero=1.0, slope_at_infinity=INF).fn is f


@pytest.mark.parametrize("gen", [
    kl_generator(),
    tv_generator(),
    chi2_generator(),
    hellinger_generator(0.5),
    hellinger_generator(3),
    # scalar-only: math.log raises at 0, so fn must not be called there
    custom_generator(lambda t: -math.log(t), f_at_zero=INF, slope_at_infinity=0.0),
], ids=lambda gen: gen.name)
def test_evaluate_at_zero_returns_the_limit(gen):
    values = gen.evaluate(np.array([0.0, 2.0, -0.0]))
    assert values[0] == values[2] == gen.f_at_zero
    assert math.isfinite(values[1])
    with pytest.raises(InvalidParams):  # NaN is no t >= 0, as for __call__
        gen.evaluate(np.array([0.0, 2.0, math.nan]))


#: log-spaced t in [1e-300, 1e300], ratios near 1, and the points where
#: hellinger:3 and chi2 overflow
SCALAR_POINTS = sorted(
    {float(t) for t in np.geomspace(1e-300, 1e300, 1201)}
    | {float(t) for t in np.random.default_rng(9).uniform(0.5, 2.0, 400)}
    | {1e103, 1e154, 1e155, 1e300}
)


@pytest.mark.parametrize("gen", [tv_generator(), chi2_generator()], ids=lambda g: g.name)
def test_scalar_and_array_paths_agree_bit_for_bit(gen):
    with np.errstate(over="ignore"):
        array = gen.evaluate(SCALAR_POINTS)
    assert [gen(t) for t in SCALAR_POINTS] == array.tolist()


def test_kl_scalar_and_array_paths_agree_to_two_ulp():
    # math.log and numpy's log may differ by one ulp of log t (numpy's SIMD
    # builds); times t and rounded, that is at most two ulp of t log t
    gen = kl_generator()
    array = gen.evaluate(SCALAR_POINTS).tolist()
    for t, a in zip(SCALAR_POINTS, array):
        s = gen(t)
        assert abs(s - a) <= 2.0 * math.ulp(max(abs(s), abs(a))), t


@pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0, 3.0])
def test_hellinger_scalar_and_array_paths_agree_to_one_ulp_of_the_power(alpha):
    # the scalar path raises t to alpha with libm's pow, the array path with
    # numpy's power, which may differ by one ulp of t**alpha; less 1 and over
    # alpha - 1 that is at most 4 ulp(max(t**alpha, 1)) / |alpha - 1|.  An
    # overflow is inf on both paths: the scalar path reads OverflowError so.
    gen = hellinger_generator(alpha)
    with np.errstate(over="ignore"):
        array = gen.evaluate(SCALAR_POINTS).tolist()
    for t, a in zip(SCALAR_POINTS, array):
        s = gen(t)
        if math.isinf(a):
            assert s == a, t
            continue
        scale = max(t**alpha, 1.0)
        assert abs(s - a) <= 4.0 * math.ulp(scale) / abs(alpha - 1.0), t
    assert alpha < 3.0 or gen(1e300) == math.inf


def test_scalar_call_rejects_negative_t():
    for gen in (kl_generator(), hellinger_generator(0.5), tv_generator()):
        with pytest.raises(InvalidParams):
            gen(-1.0)


def test_infinite_t_reads_inf_without_calling_f():
    # t log t - t + 1 is inf - inf = NaN at a float inf, so an inf result
    # shows that the call took the infinite slope instead of f
    def f(t):
        return t * math.log(t) - t + 1

    assert math.isnan(f(math.inf))
    assert custom_generator(f, 1.0, math.inf)(math.inf) == math.inf


#: each stock generator's formula written for mpmath alone, which its one
#: formula for every input kind must match exactly
MP_FORMULAS = [
    (kl_generator(), lambda t: t * mpmath.log(t)),
    (tv_generator(), lambda t: abs(t - 1) / 2),
    (chi2_generator(), lambda t: t * t - 1),
] + [
    (hellinger_generator(a), lambda t, a=a: (t**a - 1) / (a - 1))
    for a in (0.25, 0.5, 2.0, 3.0)
]
MP_POINTS = [1e-300, 1e-8, 0.5, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 2.0, 1e8, 1e300]


@pytest.mark.parametrize("gen, formula", MP_FORMULAS, ids=[g.name for g, _ in MP_FORMULAS])
def test_one_formula_serves_mpmath_with_unchanged_values(gen, formula):
    assert gen.mp_fn is gen.fn
    with mpmath.workdps(50):
        for t in MP_POINTS:
            value = gen.mp_fn(mpmath.mpf(t))
            assert isinstance(value, mpmath.mpf)
            assert value == formula(mpmath.mpf(t)), t
