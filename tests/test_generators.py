import math

import pytest

from revpinsker import (
    INF,
    chi2_generator,
    chord_bound,
    custom_generator,
    hellinger_generator,
    kl_generator,
    tv_generator,
)
from revpinsker.errors import (
    DegenerateInterval,
    FailsAnchorCheck,
    FailsConvexitySample,
    InvalidAlpha,
    InvalidParams,
    MeanOutOfRange,
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


def test_custom_generator_rejects_minus_inf_at_zero():
    with pytest.raises(InvalidParams):
        custom_generator(lambda t: t - 1.0, f_at_zero=-INF, slope_at_infinity=1.0)


@pytest.mark.parametrize("f_at_zero, slope", [(1.0, -INF), (math.nan, 1.0), (1.0, math.nan)])
def test_custom_generator_rejects_minus_inf_and_nan_limits(f_at_zero, slope):
    # |t - 1| is convex with f(1) = 0, so only the declared limits are wrong
    with pytest.raises(InvalidParams):
        custom_generator(lambda t: abs(t - 1.0), f_at_zero, slope)


def test_chord_bound_tv_recovers_cap():
    # chord of |t-1|/2 over [m, M] at mean 1 is the feasibility cap
    assert chord_bound(tv_generator(), 0.5, 2.0, 1.0) == pytest.approx(1 / 3, abs=1e-12)


def test_chord_bound_square():
    assert chord_bound(lambda t: t * t, 0.0, 2.0, 1.0) == pytest.approx(2.0, abs=1e-15)


def test_chord_bound_anchor_degenerate_weighting():
    # mean at the left endpoint puts all weight on f(a) = f(1) = 0
    assert chord_bound(kl_generator(), 1.0, 2.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_chord_bound_errors():
    with pytest.raises(DegenerateInterval):
        chord_bound(kl_generator(), 1.0, 1.0, 1.0)
    with pytest.raises(MeanOutOfRange):
        chord_bound(kl_generator(), 0.5, 2.0, 3.0)


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
