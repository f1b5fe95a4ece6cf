import math

import pytest

from revpinsker import (
    INF,
    ClassParams,
    SearchConfig,
    chord_slope_gap,
    corollary1_bound,
    default_grid,
    f_divergence,
    feasible,
    hellinger_generator,
    kl_bound_ab,
    kl_generator,
    log_over_x_minus_1,
    renyi_bound,
    renyi_from_hellinger,
    sample_pair_in_class,
    sason_chi2_bound,
    search_sup,
    simic_kl_bound,
    ternary_extremal,
    theorem1_bound,
    tv_cap,
    tv_generator,
    vajda_bound,
)
from revpinsker import chi2_generator
from revpinsker.errors import Infeasible, InvalidParams, UnboundedM

KL = kl_generator()
TV = tv_generator()
CHI2 = chi2_generator()


class TestTvCap:
    def test_values(self):
        assert tv_cap(0.5, 2.0) == pytest.approx(1 / 3, abs=1e-15)
        assert tv_cap(1.0, 1.0) == 0.0
        assert tv_cap(0.0, INF) == 1.0

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            tv_cap(1.5, 2.0)
        with pytest.raises(InvalidParams):
            tv_cap(0.5, 0.9)


class TestClassParams:
    @pytest.mark.parametrize("slot", range(3))
    def test_nan_raises_invalid_params(self, slot):
        values = [0.25, 0.5, 2.0]
        values[slot] = math.nan
        with pytest.raises(InvalidParams):
            ClassParams(*values)


class TestFeasible:
    def test_examples(self):
        assert feasible(ClassParams(0.25, 0.5, 2.0))
        assert feasible(ClassParams(0.0, 1.0, 1.0))
        assert not feasible(ClassParams(0.5, 0.5, 2.0))  # above the cap

    def test_degenerate_requires_zero_delta(self):
        assert not feasible(ClassParams(0.1, 1.0, 1.0))

    def test_zero_delta_with_spread_ratios_is_empty(self):
        assert not feasible(ClassParams(0.0, 0.5, 2.0))

    def test_one_sided_degenerate_is_empty(self):
        assert not feasible(ClassParams(0.1, 1.0, 2.0))
        assert not feasible(ClassParams(0.1, 0.5, 1.0))
        assert not feasible(ClassParams(0.0, 1.0, 2.0))
        assert not feasible(ClassParams(0.0, 0.5, 1.0))
        assert not feasible(ClassParams(0.0, 1.0, INF))

    def test_degenerate_accepts_rounding_of_one(self):
        # a measured pair can give m = 1 and M = 1 + 2**-52 with delta = 0
        assert feasible(ClassParams(0.0, 1.0, 1.0 + 2.0**-52))
        assert feasible(ClassParams(0.0, 1.0 - 2.0**-53, 1.0))
        assert not feasible(ClassParams(1e-22, 1.0, 1.0 + 2.0**-52))
        assert theorem1_bound(KL, ClassParams(0.0, 1.0, 1.0 + 2.0**-52)) == 0.0


class TestClassGuard:
    """Every class-level caller raises what ClassParams.check_finite raises,
    Infeasible before UnboundedM."""

    CALLERS = {
        "theorem1_bound": lambda p: theorem1_bound(KL, p),
        "renyi_bound": lambda p: renyi_bound(2.0, p),
        "sason_chi2_bound": sason_chi2_bound,
        "ternary_extremal": ternary_extremal,
        "search_sup": lambda p: search_sup(KL, p, SearchConfig(trials=10)),
        "sample_pair_in_class": lambda p: sample_pair_in_class(p, 4, 0),
    }

    @pytest.mark.parametrize("name", sorted(CALLERS))
    def test_empty_class_raises_infeasible(self, name):
        for params in (ClassParams(0.5, 0.5, 2.0), ClassParams(0.5, 1.0, INF)):
            with pytest.raises(Infeasible):
                self.CALLERS[name](params)

    @pytest.mark.parametrize("name", sorted(CALLERS))
    def test_infinite_M_raises_unbounded(self, name):
        with pytest.raises(UnboundedM):
            self.CALLERS[name](ClassParams(0.25, 0.5, INF))

    def test_check_finite_passes_finite_nonempty_classes(self):
        for params in default_grid() + [ClassParams(0.0, 1.0, 1.0)]:
            params.check_finite()


class TestTheorem1:
    def test_kl_value(self):
        assert theorem1_bound(KL, ClassParams(0.25, 0.5, 2.0)) == pytest.approx(
            0.25 * math.log(2), abs=1e-12
        )

    def test_tv_self_bound_is_delta(self):
        for params in default_grid():
            assert theorem1_bound(TV, params) == pytest.approx(
                params.delta, abs=1e-12
            )

    def test_degenerate_class_is_zero(self):
        assert theorem1_bound(KL, ClassParams(0.0, 1.0, 1.0)) == 0.0

    def test_chi2_closed_form(self):
        params = ClassParams(0.25, 0.5, 2.0)
        assert theorem1_bound(CHI2, params) == pytest.approx(
            params.delta * (params.M - params.m), abs=1e-12
        )

    def test_infeasible_raises(self):
        with pytest.raises(Infeasible):
            theorem1_bound(KL, ClassParams(0.5, 0.5, 2.0))

    def test_unbounded_M_raises(self):
        with pytest.raises(UnboundedM):
            theorem1_bound(KL, ClassParams(0.25, 0.5, INF))

    def test_m_zero_uses_limit(self):
        # KL has f(0+) = 0, so only the M term survives
        params = ClassParams(0.25, 0.0, 2.0)
        assert theorem1_bound(KL, params) == pytest.approx(
            0.25 * 2 * math.log(2), abs=1e-12
        )

    def test_monotone_in_delta(self):
        values = [
            theorem1_bound(KL, ClassParams(d, 0.5, 2.0))
            for d in (0.05, 0.1, 0.2, 1 / 3)
        ]
        assert values == sorted(values)


class TestCorollary1:
    def test_kl_value(self):
        assert corollary1_bound(KL, 0.5, 2.0) == pytest.approx(
            math.log(2) / 3, abs=1e-12
        )

    def test_degenerate(self):
        assert corollary1_bound(KL, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("gen, m, M", [
        (hellinger_generator(0.5), 1.0, 2.0),   # was -0.0
        (hellinger_generator(0.5), 0.5, 1.0),
        (CHI2, 1.0, 1e200),                     # was inf: f(M) overflows
        (CHI2, 0.0, 1.0),
        (KL, 1.0, 1e300),
    ])
    def test_one_sided_degenerate_is_positive_zero(self, gen, m, M):
        # m = 1 or M = 1 forces P = Q, whatever f(m) and f(M) evaluate to
        value = corollary1_bound(gen, m, M)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_chi2(self):
        assert corollary1_bound(CHI2, 0.5, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_equals_theorem1_at_cap(self):
        gens = [KL, TV, CHI2, hellinger_generator(0.5), hellinger_generator(3)]
        for m in (0.0, 0.1, 0.5, 0.9):
            for M in (1.1, 2.0, 10.0, 100.0):
                cap = tv_cap(m, M)
                params = ClassParams(cap, m, M)
                for gen in gens:
                    a = theorem1_bound(gen, params)
                    b = corollary1_bound(gen, m, M)
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestVajda:
    def test_tv_self_bound(self):
        assert vajda_bound(TV, 0.37) == pytest.approx(0.37, abs=1e-15)

    def test_kl_is_infinite(self):
        assert vajda_bound(KL, 0.3) == INF

    def test_zero_delta(self):
        assert vajda_bound(KL, 0.0) == 0.0

    def test_dominates_theorem1(self):
        gens = [TV, hellinger_generator(0.5)]
        for params in default_grid():
            for gen in gens:
                assert theorem1_bound(gen, params) <= vajda_bound(
                    gen, params.delta
                ) + 1e-12


class TestKlAb:
    def test_matches_theorem1(self):
        assert kl_bound_ab(0.25, 0.5, 2.0) == pytest.approx(
            0.25 * math.log(2), abs=1e-12
        )

    def test_degenerate(self):
        assert kl_bound_ab(0.0, 1.0, 1.0) == 0.0

    def test_verdu_limit(self):
        assert kl_bound_ab(0.25, 0.5, INF) == pytest.approx(
            0.5 * math.log(2), abs=1e-12
        )

    def test_reparametrization_identity(self):
        for params in default_grid():
            if params.m == 0.0:
                continue
            direct = theorem1_bound(KL, params)
            via_ab = kl_bound_ab(params.delta, 1.0 / params.M, 1.0 / params.m)
            assert via_ab == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_stable_near_one(self):
        # series branch agrees with the direct quotient
        x = 1.0 + 3e-9
        assert log_over_x_minus_1(x) == pytest.approx(1.0 - 1.5e-9, abs=1e-13)


class TestRenyi:
    def test_value(self):
        assert renyi_bound(2, ClassParams(0.25, 0.5, 2.0)) == pytest.approx(
            math.log(1.375), abs=1e-12
        )

    def test_degenerate(self):
        assert renyi_bound(2, ClassParams(0.0, 1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_degenerate_is_positive_zero(self, alpha):
        value = renyi_bound(alpha, ClassParams(0.0, 1.0, 1.0))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_M_is_inf(self):
        # (1e300)**3 overflows to inf; a Python-float power would raise
        assert renyi_bound(3, ClassParams(0.1, 0.5, 1e300)) == INF

    def test_m_zero_specialization(self):
        assert renyi_bound(2, ClassParams(0.25, 0.0, 2.0)) == pytest.approx(
            math.log(1.5), abs=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_consistent_with_hellinger_transform(self, alpha):
        for params in default_grid():
            h = theorem1_bound(hellinger_generator(alpha), params)
            composed = renyi_from_hellinger(alpha, h)
            direct = renyi_bound(alpha, params)
            assert direct == pytest.approx(composed, rel=1e-12, abs=1e-12)


class TestComparators:
    def test_simic_value(self):
        # (0.5*ln2 + 2*ln2)/1.5 + ln(1.5/(2*ln2)) - 1, evaluated at 50 digits
        assert simic_kl_bound(0.5, 2.0) == pytest.approx(0.2340761490631256, abs=5e-6)

    def test_simic_dominates_corollary1(self):
        for m in (0.1, 0.25, 0.5, 0.9):
            for M in (1.1, 2.0, 5.0, 10.0, 100.0):
                assert simic_kl_bound(1.0 / M, 1.0 / m) >= corollary1_bound(
                    KL, m, M
                ) - 1e-12

    def test_simic_invalid(self):
        with pytest.raises(InvalidParams):
            simic_kl_bound(1.0, 1.0)

    def test_sason_chi2_examples(self):
        assert sason_chi2_bound(ClassParams(0.25, 0.5, 2.0)) == pytest.approx(0.5)
        assert sason_chi2_bound(ClassParams(0.1, 0.0, 1.5)) == pytest.approx(0.2)

    def test_sason_chi2_dominates(self):
        for params in default_grid():
            new = theorem1_bound(CHI2, params)
            assert sason_chi2_bound(params) >= new - 1e-12


class TestChordSlopeGap:
    def test_nonnegative_for_all_generators(self):
        gens = [KL, TV, CHI2, hellinger_generator(0.5), hellinger_generator(3)]
        for gen in gens:
            for m in (0.0, 0.2, 0.7, 0.99):
                for M in (1.01, 2.0, 50.0):
                    assert chord_slope_gap(gen, m, M) >= 0.0

    @pytest.mark.parametrize("gen", [KL, TV, CHI2, hellinger_generator(0.5)])
    def test_infinite_M_takes_the_slope_limit(self, gen):
        # inf / inf would be NaN; the M term tends to f'(inf)
        assert chord_slope_gap(gen, 0.5, INF) == gen(0.5) / 0.5 + gen.slope_at_infinity
        assert chord_slope_gap(gen, 0.0, INF) == vajda_bound(gen, 1.0)


class TestGrid:
    def test_default_grid_is_feasible(self):
        grid = default_grid()
        assert len(grid) == 75
        assert all(feasible(p) for p in grid)

    def test_soundness_on_extremal_pairs(self):
        # bound evaluated against a real member of each class
        for params in default_grid()[::5]:
            pair = ternary_extremal(params)
            assert f_divergence(KL, pair.P, pair.Q) <= theorem1_bound(
                KL, params
            ) + 1e-10
