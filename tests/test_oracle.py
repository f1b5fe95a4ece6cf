import math
import threading

import numpy as np
import pytest

from revpinsker import (
    ClassParams,
    SearchConfig,
    batch_f_divergence,
    chi2_generator,
    custom_generator,
    falsify_feasibility,
    feasible,
    hellinger_generator,
    kl_generator,
    measure_pair,
    sample_pair_in_class,
    search_sup,
    search_unconstrained_sup,
    ternary_extremal,
    theorem1_bound,
    tv_cap,
    tv_generator,
    verify_membership,
)
from revpinsker.errors import Infeasible, InvalidParams
from revpinsker import oracle
from revpinsker.oracle import (
    DIVERGENCE_THRESHOLD,
    MATCH_TOLERANCE,
    PERTURBATION_STEPS,
    _beats,
    _sample_batch,
    _search_for_member,
)

PARAMS = ClassParams(0.25, 0.5, 2.0)


class TestTinyScaleClasses:
    # t (1 - q) = 1e-600 underflows, so ternary_extremal raises for a zero Q
    # weight; the oracle builds every sample from that pair and inherits the check
    PARAMS = ClassParams(1e-300, 1e-300, 1e300)

    def test_sample_pair_in_class_raises(self):
        with pytest.raises(InvalidParams):
            sample_pair_in_class(self.PARAMS, 6, 0)

    def test_search_sup_raises(self):
        with pytest.raises(InvalidParams):
            search_sup(kl_generator(), self.PARAMS, SearchConfig(trials=10))

    def test_search_sup_with_subnormal_q_weight_is_sound(self):
        # a Q weight of 1e-308 is subnormal, but the pair is within 1e-12 of its class
        params = ClassParams(tv_cap(0.99999999, 1e300), 0.99999999, 1e300)
        out = search_sup(kl_generator(), params, SearchConfig(trials=500))
        assert out.violations == 0


class TestSamplePair:
    def test_membership(self):
        for seed in range(5):
            P, Q = sample_pair_in_class(PARAMS, 6, seed)
            assert verify_membership(P, Q, PARAMS, tol=1e-9).passed

    def test_zero_ratio_class(self):
        params = ClassParams(0.25, 0.0, 2.0)
        P, Q = sample_pair_in_class(params, 7, 3)
        assert verify_membership(P, Q, params, tol=1e-9).passed

    def test_boundary_cap_class(self):
        params = ClassParams(1 / 3, 0.5, 2.0)
        P, Q = sample_pair_in_class(params, 5, 11)
        assert verify_membership(P, Q, params, tol=1e-9).passed

    def test_degenerate_class_gives_identical_pair(self):
        P, Q = sample_pair_in_class(ClassParams(0.0, 1.0, 1.0), 5, 0)
        np.testing.assert_allclose(P.weights, Q.weights)
        assert measure_pair(P, Q) == (0.0, 1.0, 1.0)

    def test_infeasible_raises(self):
        with pytest.raises(Infeasible):
            sample_pair_in_class(ClassParams(0.5, 0.5, 2.0), 5, 0)

    def test_small_support_rejected(self):
        with pytest.raises(InvalidParams):
            sample_pair_in_class(PARAMS, 2, 0)

    # the inputs SearchConfig rejects: a negative seed, a support size or
    # seed that is not an integer, and a support size above 12
    @pytest.mark.parametrize("n, seed", [(6, -1), (6.5, 0), (6, 1.5), (40, 0)],
                             ids=["negative-seed", "float-n", "float-seed", "large-n"])
    def test_search_config_rules(self, n, seed):
        with pytest.raises(InvalidParams):
            sample_pair_in_class(PARAMS, n, seed)

    def test_deterministic(self):
        a = sample_pair_in_class(PARAMS, 6, 42)
        b = sample_pair_in_class(PARAMS, 6, 42)
        np.testing.assert_array_equal(a[0].weights, b[0].weights)
        np.testing.assert_array_equal(a[1].weights, b[1].weights)


class TestSampleBatch:
    INTERIOR = ClassParams(0.2, 0.3, 5.0)

    def ratios(self, steps, n):
        params = self.INTERIOR
        rng = np.random.default_rng(17)
        p, q = _sample_batch(params, ternary_extremal(params), n, 500, rng, steps)
        return p / q

    def test_split_alone_keeps_parent_ratios(self):
        r = self.ratios(steps=0, n=8)
        m, M = self.INTERIOR.m, self.INTERIOR.M
        on_parent = np.isclose(r, m, rtol=1e-12) | np.isclose(r, 1.0, rtol=1e-12)
        assert np.all(on_parent | np.isclose(r, M, rtol=1e-12))

    def test_transfers_move_ratios_into_the_bands(self):
        # a sampler whose transfers moved no mass would still be in class.
        # About 2/3 of rows get an interior ratio here: a row whose band
        # members all sit at an extreme ratio has no slack to move.
        r = self.ratios(steps=4, n=8)
        m, M = self.INTERIOR.m, self.INTERIOR.M
        tol = 1e-9
        inside = ((r > m + tol) & (r < 1.0 - tol)) | ((r > 1.0 + tol) & (r < M - tol))
        assert inside.any(axis=1).mean() >= 0.5

    @pytest.mark.parametrize("params", [
        ClassParams(0.0, 1.0, 1.0),
        ClassParams(0.0, 1.0, 1.0 + 2**-52),
        ClassParams(0.0, 1.0 - 2**-53, 1.0),
    ])
    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_zero_delta_rows_are_identical_pairs(self, params, n):
        # the one-atom base P = Q = (1) splits into p == q; transfers move 0
        rng = np.random.default_rng(n)
        p, q = _sample_batch(params, ternary_extremal(params), n, 200, rng, 8)
        np.testing.assert_array_equal(p, q)
        assert np.all(p > 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestSearchConfig:
    @pytest.mark.parametrize("n", [2, 13])
    def test_support_size_out_of_range(self, n):
        with pytest.raises(InvalidParams):
            SearchConfig(support_size=n)

    @pytest.mark.parametrize("n", [3, 12])
    def test_support_size_limits_accepted(self, n):
        assert SearchConfig(support_size=n).support_size == n

    @pytest.mark.parametrize("field, value", [
        ("support_size", 6.5), ("support_size", "6"),
        ("trials", 2.5), ("trials", True), ("trials", None),
        ("seed", 1.5), ("seed", -1), ("seed", False),
    ])
    def test_field_not_a_valid_integer(self, field, value):
        with pytest.raises(InvalidParams, match=field):
            SearchConfig(**{field: value})

    def test_integer_like_fields_become_ints(self):
        config = SearchConfig(np.int64(4), np.int32(10), np.uint8(3))
        assert [type(v) for v in (config.support_size, config.trials, config.seed)] == [int] * 3
        assert config == SearchConfig(4, 10, 3)


class TestSearchSup:
    def test_kl_attains_bound(self):
        out = search_sup(kl_generator(), PARAMS, SearchConfig(trials=5000, seed=1))
        assert out.violations == 0
        assert abs(out.best_value - 0.25 * math.log(2)) <= 1e-9

    def test_chi2_attains_bound(self):
        out = search_sup(chi2_generator(), PARAMS, SearchConfig(trials=5000, seed=2))
        assert out.violations == 0
        assert abs(out.best_value - 0.375) <= 1e-9

    def test_degenerate_class(self):
        out = search_sup(
            kl_generator(), ClassParams(0.0, 1.0, 1.0), SearchConfig(trials=100, seed=0)
        )
        assert out.best_value == 0.0
        assert out.bound == 0.0
        assert out.violations == 0

    def test_unseeded_gap_is_nonnegative(self):
        # the 3000 rows that search_sup draws at seed 5, without the extremal pair
        p, q = _sample_batch(PARAMS, ternary_extremal(PARAMS), 6, 3000,
                             np.random.default_rng(5), 4)
        gen = kl_generator()
        assert np.all(batch_f_divergence(gen, p, q) <= theorem1_bound(gen, PARAMS) + 1e-12)

    def test_extremal_pair_wins_a_tie(self):
        # at delta = 0 every sampled 6-atom row ties the one-atom extremal pair
        out = search_sup(kl_generator(), ClassParams(0.0, 1.0, 1.0),
                         SearchConfig(trials=50, seed=0))
        assert [d.weights.tolist() for d in out.best_pair] == [[1.0], [1.0]]

    def test_large_bound_tolerance_is_relative(self):
        # sampled values beat this bound by rounding in its large f(M) terms
        params = ClassParams(tv_cap(0.5, 1e3), 0.5, 1e3)
        out = search_sup(hellinger_generator(3), params, SearchConfig(trials=2000, seed=1))
        assert out.violations == 0

    @pytest.mark.parametrize("bound, value, beats", [
        (0.5, 0.5 + 2e-10, True),
        (0.5, 0.5 + 5e-11, False),
        (1e6, 1e6 + 1e-5, False),
        (1e6, 1e6 + 1e-3, True),
        (math.inf, 1e300, False),
    ])
    def test_violation_rule(self, bound, value, beats):
        assert _beats(value, bound) == beats
        assert _beats(np.array([value]), bound)[0] == beats

    def test_config_has_only_caller_settings(self):
        assert list(SearchConfig._fields) == ["support_size", "trials", "seed"]

    def test_deterministic_outcome(self):
        cfg = SearchConfig(trials=2000, seed=99)
        a = search_sup(kl_generator(), PARAMS, cfg)
        b = search_sup(kl_generator(), PARAMS, cfg)
        assert a.best_value == b.best_value
        assert a.violations == b.violations
        np.testing.assert_array_equal(a.best_pair[0].weights, b.best_pair[0].weights)

    def test_history_has_one_entry_per_chunk(self):
        out = search_sup(kl_generator(), PARAMS, SearchConfig(trials=25_000, seed=3))
        assert [rows for rows, _, _ in out.history] == [20_000, 5_000]
        assert out.history[-1] == (5_000, out.best_value, out.violations)
        bests = [best for _, best, _ in out.history]
        assert bests == sorted(bests)
        assert all(isinstance(best, float) for best in bests)

    def test_history_counts_the_extremal_seed(self):
        # at delta = 0 nothing beats the one-atom seed, whose value is 0
        out = search_sup(kl_generator(), ClassParams(0.0, 1.0, 1.0),
                         SearchConfig(trials=30, seed=0))
        assert out.history == ((30, 0.0, 0),)


def _interleaved_calls():
    """Sampler and search calls that differ in class, support size, trial
    count and seed; the 25 000-trial search spans two chunks."""
    return [
        ("batch", ClassParams(0.2, 0.3, 5.0), 6, 2_000, 1),
        ("search", PARAMS, 12, 25_000, 2),
        ("batch", ClassParams(0.0, 1.0, 1.0), 3, 50, 3),
        ("batch", ClassParams(0.1, 0.0, 100.0), 12, 700, 4),
        ("search", ClassParams(tv_cap(0.5, 2.0), 0.5, 2.0), 4, 300, 5),
        ("batch", PARAMS, 9, 1, 6),
    ]


def _run(call):
    """The arrays a call returns: (p, q) for the sampler; the best pair and
    the history for a search."""
    kind, params, n, trials, seed = call
    if kind == "batch":
        rng = np.random.default_rng(seed)
        return _sample_batch(params, ternary_extremal(params), n, trials, rng,
                             PERTURBATION_STEPS)
    out = search_sup(kl_generator(), params, SearchConfig(n, trials, seed))
    return (out.best_pair[0].weights, out.best_pair[1].weights,
            np.array(out.history), np.array([out.violations]))


def _same_bits(a, b) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b, strict=True))


class TestScratchArena:
    def test_interleaved_calls_reproduce_their_first_run(self):
        calls = _interleaved_calls()
        first = [_run(c) for c in calls]
        kept = [tuple(a.copy() for a in arrays) for arrays in first]
        again = [_run(c) for c in reversed(calls)][::-1]
        for c, a, b, k in zip(calls, first, again, kept):
            assert _same_bits(a, b), c
            assert _same_bits(a, k), c  # later calls left the first outputs alone

    def test_outputs_share_no_memory_with_later_calls(self):
        params = ClassParams(0.2, 0.3, 5.0)
        base = ternary_extremal(params)
        outputs = [_sample_batch(params, base, 6, 500, np.random.default_rng(s), 4)
                   for s in range(3)]
        arrays = [a for pair in outputs for a in pair]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
            for buf in oracle._scratch.arrays.values():
                assert not np.shares_memory(a, buf)

    def test_concurrent_searches_match_serial(self):
        jobs = [(kl_generator(), params, SearchConfig(n, trials, seed))
                for _, params, n, trials, seed in _interleaved_calls()]
        jobs += [(chi2_generator(), ClassParams(0.2, 0.3, 5.0), SearchConfig(8, 3_000, 7))]

        def key(out):
            return (out.best_value, out.violations, out.history,
                    out.best_pair[0].values, out.best_pair[1].values)

        serial = [key(search_sup(*job)) for job in jobs]
        results = {}
        barrier = threading.Barrier(2)

        def worker(name, order):
            barrier.wait()
            results[name] = [(k, key(search_sup(*jobs[k]))) for k in order * 3]

        threads = [threading.Thread(target=worker, args=(name, order)) for name, order in
                   (("forward", list(range(len(jobs)))),
                    ("backward", list(reversed(range(len(jobs))))))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 2
        for outcomes in results.values():
            for k, outcome in outcomes:
                assert outcome == serial[k], jobs[k]


class TestUnconstrainedSweep:
    def test_tv_is_flat_at_delta(self):
        out = search_unconstrained_sup(tv_generator(), 0.3)
        assert out.bound == pytest.approx(0.3)
        assert out.best_value == pytest.approx(0.3, abs=1e-12)
        values = [v for _, v in out.history]
        assert all(abs(v - 0.3) <= 1e-12 for v in values)

    def test_hellinger_half_approaches_vajda(self):
        out = search_unconstrained_sup(hellinger_generator(0.5), 0.3)
        assert out.bound == pytest.approx(0.6)
        values = [v for _, v in out.history]
        # nondecreasing in M up to one-ulp jitter
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert abs(out.best_value - 0.6) / 0.6 <= 1e-6

    def test_kl_diverges_past_threshold(self):
        out = search_unconstrained_sup(kl_generator(), 0.3)
        assert out.bound == math.inf
        assert out.best_value > DIVERGENCE_THRESHOLD

    @pytest.mark.parametrize("delta", [0.05, 0.3, 0.9])
    def test_infinite_limit_at_zero_reads_inf(self, delta):
        # f(0+) = +inf: every swept pair has a p = 0 atom where Q has mass
        gen = custom_generator(lambda t: -math.log(t), math.inf, 0.0)
        out = search_unconstrained_sup(gen, delta)
        assert out.bound == math.inf
        assert out.best_value == math.inf
        assert len(out.history) == 41
        assert out.history[0][1] == math.inf

    def test_zero_delta(self):
        out = search_unconstrained_sup(kl_generator(), 0.0)
        assert out.best_value == 0.0
        assert out.bound == 0.0


class TestFalsifyFeasibility:
    def test_above_cap(self):
        assert falsify_feasibility(ClassParams(0.5, 0.5, 2.0), SearchConfig())

    def test_feasible_witness(self):
        assert falsify_feasibility(ClassParams(0.25, 0.5, 2.0), SearchConfig())

    def test_degenerate_with_positive_delta(self):
        assert falsify_feasibility(ClassParams(0.1, 1.0, 1.0), SearchConfig())

    @pytest.mark.parametrize("delta, member", [(1e-7, True), (MATCH_TOLERANCE, True),
                                               (2e-6, False), (0.5, False)])
    def test_member_search_at_m_equal_M_equal_one(self, delta, member):
        # P = Q is the only shape there, matched iff delta <= MATCH_TOLERANCE
        assert _search_for_member(ClassParams(delta, 1.0, 1.0), SearchConfig()) == member

    def test_one_sided_degenerate(self):
        assert falsify_feasibility(ClassParams(0.1, 1.0, 2.0), SearchConfig())

    @pytest.mark.parametrize("params", [ClassParams(0.25, 0.5, math.inf),
                                        ClassParams(1e-300, 0.0, 1e300)])
    def test_feasible_class_without_a_finite_sample_is_a_verdict(self, params):
        # M = +inf has no finite pair, and the tiny-scale class has no
        # extremal pair in class: both disagree with feasible, and say so
        assert feasible(params)
        assert falsify_feasibility(params, SearchConfig()) is False

    def test_near_boundary_infeasible_point_is_detected_as_searchable(self):
        # a point just above the cap has 1e-6-close members; the search finds
        # them, contradicting the (correctly) infeasible predicate, so the
        # corroboration fails -- this pins the advertised match tolerance
        cap = 1 / 3
        assert not falsify_feasibility(
            ClassParams(cap + 1e-9, 0.5, 2.0), SearchConfig()
        )
