import copy
import importlib.util
import math
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    measure_pair,
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
from revpinsker import bounds, chi2_generator, distributions
from revpinsker.bounds import bound_gap
from revpinsker.errors import Infeasible, InvalidParams, LogDomain, UnboundedM

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

    @given(st.floats(-13.0, -3.0), st.floats(-12.0, 3.0), st.sampled_from((1.0, 0.5)))
    @settings(max_examples=300, deadline=None)
    def test_measured_extremal_pair_is_accepted(self, log_one_minus_m, log_M_minus_one, frac):
        # near m = 1 or M = 1 one ulp of rounding in the measured m or M
        # moves the cap by far more than FEASIBILITY_SLACK
        m, M = 1.0 - 10.0**log_one_minus_m, 1.0 + 10.0**log_M_minus_one
        pair = ternary_extremal(ClassParams(frac * tv_cap(m, M), m, M))
        measured = ClassParams(*measure_pair(pair.P, pair.Q))
        assert feasible(measured)
        assert theorem1_bound(KL, measured) >= 0.0

    def test_kl_bound_ab_at_the_cap_of_reciprocal_extremes(self):
        # 1 / (1 / m) is m only to an ulp, which is 1e-8 of 1 - m here
        m, M = 0.9999999802002065, 728900.8256496971
        value = kl_bound_ab(tv_cap(m, M), 1.0 / M, 1.0 / m)
        assert value == pytest.approx(corollary1_bound(KL, m, M), rel=1e-6)


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


def value_dump_classes() -> list[tuple[float, float, float]]:
    """The classes of scripts/value_dump.py: its grid and its extra classes."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "value_dump.py"
    spec = importlib.util.spec_from_file_location("value_dump", path)
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    grid = [(frac * tv_cap(m, M), m, M) for m in dump.M_LOW for M in dump.M_HIGH
            for frac in dump.CAP_FRACTIONS]
    return grid + list(dump.EXTRA_CLASSES)


def count_calls(monkeypatch, homes: dict) -> dict:
    """Count the calls of each named function of ``homes`` (name -> home
    module), rebound in every revpinsker module that imported it."""
    import revpinsker.cli  # noqa: F401  (every module that may bind the names)
    import revpinsker.oracle  # noqa: F401

    counts = dict.fromkeys(homes, 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for name, home in homes.items():
        original = getattr(home, name)
        wrapper = counting(name, original)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "revpinsker" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


class TestOneVerdict:
    """A class is judged once, when it is built, and the guard reads that
    verdict; the weights the package computes skip validate_distribution."""

    #: the bounds_grid evaluation's stock generators with their Renyi orders
    STOCK = ((KL, 2.0), (TV, 0.5), (CHI2, 2.0), (hellinger_generator(0.5), 0.5),
             (hellinger_generator(3.0), 3.0))
    #: next to the value-dump grid: the slack cases at m = 1 or M = 1
    SLACK_CLASSES = ((0.0, 1.0 - 2.0**-53, 1.0), (0.0, 1.0, 1.0 + 2.0**-52),
                     (1e-22, 1.0, 1.0 + 2.0**-52))

    @pytest.mark.parametrize("gen, alpha", STOCK, ids=[gen.name for gen, _ in STOCK])
    def test_each_class_and_weight_vector_is_checked_once(self, monkeypatch, gen, alpha):
        counts = count_calls(monkeypatch, {"feasible": bounds,
                                           "validate_distribution": distributions})
        delta, m, M = 0.25, 0.5, 2.0
        params = ClassParams(delta, m, M)
        theorem1_bound(gen, params)
        corollary1_bound(gen, m, M)
        renyi_bound(alpha, params)
        vajda_bound(gen, delta)
        if gen.name == "kl":
            kl_bound_ab(delta, 1.0 / M, 1.0 / m)  # builds its own class
        pair = ternary_extremal(params)
        f_divergence(gen, pair.P, pair.Q)
        assert counts == {"feasible": 2 if gen.name == "kl" else 1,
                          "validate_distribution": 0}

    def test_kl_bound_ab_takes_a_subnormal_a(self):
        # 1/a is +inf, so the class has M = +inf; kl_bound_ab covers it and
        # raises only for an empty class, not UnboundedM
        assert kl_bound_ab(0.1, 5e-324, 2.0) == 74.37469247408214
        assert kl_bound_ab(0.1, 1e-310, INF) == 71.38013788281542

    @pytest.mark.parametrize("rebuild", [
        lambda p: p, copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p)),
    ], ids=["built", "copy", "deepcopy", "pickle"])
    def test_check_finite_raises_infeasible_exactly_where_feasible_is_false(self, rebuild):
        verdicts = set()
        for args in value_dump_classes() + list(self.SLACK_CLASSES):
            params = rebuild(ClassParams(*args))
            assert params == ClassParams(*args)
            try:
                params.check_finite()
                raised = False
            except Infeasible:
                raised = True
            except UnboundedM:
                raised = False
            assert raised is not feasible(params), args
            verdicts.add(raised)
        assert verdicts == {True, False}


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


class TestUndefinedForms:
    def test_bound_gap_reads_inf_minus_inf_as_zero(self):
        assert bound_gap(INF, INF) == 0.0
        assert bound_gap(INF, 1.0) == INF
        assert bound_gap(2.0, 0.5) == 1.5

    def test_inf_is_a_plain_float(self):
        assert INF is math.inf
        assert importlib.util.find_spec("revpinsker.extended") is None


class TestKlAb:
    def test_matches_theorem1(self):
        assert kl_bound_ab(0.25, 0.5, 2.0) == pytest.approx(
            0.25 * math.log(2), abs=1e-12
        )

    def test_degenerate(self):
        assert kl_bound_ab(0.0, 1.0, 1.0) == 0.0

    # (delta, a, b): above the cap of (m, M) = (1/2, 2); M = 1 with delta > 0;
    # delta = 0 with m < 1 < M
    @pytest.mark.parametrize("args", [(0.9, 0.5, 2.0), (0.3, 1.0, 2.0), (0.0, 0.5, 2.0)])
    def test_empty_class_raises_infeasible(self, args):
        with pytest.raises(Infeasible):
            kl_bound_ab(*args)

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

    def test_log_over_x_minus_1_rejects_zero(self):
        with pytest.raises(LogDomain):
            log_over_x_minus_1(0.0)


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

    @staticmethod
    def mp_renyi(alpha, delta, m, M):
        """log(1 + (alpha-1) h) / (alpha-1) of the Hellinger bound h at 50 digits."""
        import mpmath as mp

        with mp.workdps(50):
            a, d, m, M = (mp.mpf(x) for x in (alpha, delta, m, M))
            f = hellinger_generator(alpha).mp_fn
            h = d * (f(m) / (1 - m) + f(M) / (M - 1))
            return mp.log1p((a - 1) * h) / (a - 1)

    def test_overflowing_M_is_finite(self):
        # (1e300)**3 overflows, so the float Hellinger bound is inf; the Renyi
        # bound is composed in the log domain
        value = renyi_bound(3, ClassParams(0.1, 0.5, 1e300))
        assert value == pytest.approx(689.624235351717, rel=1e-14)
        assert value == pytest.approx(float(self.mp_renyi(3, 0.1, 0.5, 1e300)), rel=1e-14)

    def test_class_source_is_the_renyi_bound(self):
        # the one transform takes the class's log-domain form past overflow
        params = ClassParams(0.1, 0.5, 1e300)
        assert renyi_from_hellinger(3, INF, params) == renyi_bound(3, params) == 689.6242353517168
        assert renyi_from_hellinger(3, INF) == INF  # no source: the value stays +inf

    @pytest.mark.parametrize("alpha, delta, m, M", [
        (2.0, 0.1, 0.5, 1e200),     # f(M)/(M-1) is finite, f(M) overflows
        (1.5, 0.3, 0.0, 1e250),
        (3.0, 1e-300, 0.0, 1e300),
        (2.0, 0.5, 0.0, 1e308),
        (1.5, 1e-5, 0.9, 1e300),
        (2000.0, 0.2, 0.5, 1.5),    # 1.5**2000 overflows at a small M
        (1.2, 1e-290, 0.5, 1e299),  # log x < 0: the argument stays near 1
    ])
    def test_overflowing_hellinger_bound_matches_mpmath(self, alpha, delta, m, M):
        assert theorem1_bound(hellinger_generator(alpha), ClassParams(delta, m, M)) == INF
        value = renyi_bound(alpha, ClassParams(delta, m, M))
        assert value == pytest.approx(float(self.mp_renyi(alpha, delta, m, M)), rel=1e-13)

    def test_small_delta_keeps_its_digits(self):
        # the Hellinger bound is 1.5e-17, which 1 + h rounds away
        value = renyi_bound(2, ClassParams(1e-17, 0.5, 2.0))
        assert value == pytest.approx(float(self.mp_renyi(2, 1e-17, 0.5, 2.0)), rel=1e-15)

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
