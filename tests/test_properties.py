"""Property-based invariants on randomized distribution pairs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from revpinsker import (
    INF,
    ClassParams,
    batch_f_divergence,
    chi2_generator,
    chord_slope_gap,
    corollary1_bound,
    custom_generator,
    f_divergence,
    hellinger_generator,
    kl_generator,
    measure_pair,
    ratio_extremes,
    renyi_bound,
    renyi_from_hellinger,
    ternary_extremal,
    theorem1_bound,
    total_variation,
    tv_cap,
    tv_generator,
    vajda_bound,
    validate_distribution,
)
from revpinsker.errors import RevPinskerError
from revpinsker.oracle import _sample_batch

GENERATORS = [
    kl_generator(),
    tv_generator(),
    chi2_generator(),
    hellinger_generator(0.5),
    hellinger_generator(3),
]

weights = st.lists(
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=1, max_size=8
)


def normalized(raw):
    total = sum(raw)
    return validate_distribution([w / total for w in raw])


def strictly_positive_pair(raw_p, raw_q):
    n = min(len(raw_p), len(raw_q))
    return normalized(raw_p[:n]), normalized(raw_q[:n])


@given(weights, weights)
@settings(max_examples=200, deadline=None)
def test_nonnegativity(raw_p, raw_q):
    P, Q = strictly_positive_pair(raw_p, raw_q)
    for gen in GENERATORS:
        assert f_divergence(gen, P, Q) >= -1e-12


#: a scalar-only generator with f(0+) = +inf (reverse KL)
REVERSE_KL = custom_generator(lambda t: -math.log(t), f_at_zero=INF, slope_at_infinity=0.0)

# an atom's raw (p, q) weights; p is 0 wherever q is, so every pair is
# absolutely continuous, and p = 0 atoms with q > 0 occur
atom = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
).map(lambda a: (a[0] if a[1] > 0 else 0.0, a[1]))


@given(
    st.sampled_from(GENERATORS + [REVERSE_KL]),
    st.lists(atom, min_size=1, max_size=8).filter(
        lambda atoms: min(sum(p for p, _ in atoms), sum(q for _, q in atoms)) > 0
    ),
)
@settings(max_examples=300, deadline=None)
def test_f_divergence_is_the_batch_row(gen, atoms):
    P = normalized([p for p, _ in atoms])
    Q = normalized([q for _, q in atoms])
    # the pair is row 0 of a batch whose row 1 is (Q, Q)
    p = np.stack([P.weights, Q.weights])
    q = np.stack([Q.weights, Q.weights])
    row = batch_f_divergence(gen, p, q)[0]
    assert f_divergence(gen, P, Q).hex() == float(row).hex()


@given(weights)
@settings(max_examples=100, deadline=None)
def test_identity_of_indiscernibles(raw):
    P = normalized(raw)
    for gen in GENERATORS:
        assert f_divergence(gen, P, P) == 0.0


@given(weights, weights)
@settings(max_examples=200, deadline=None)
def test_tv_consistency(raw_p, raw_q):
    P, Q = strictly_positive_pair(raw_p, raw_q)
    assert abs(f_divergence(tv_generator(), P, Q) - total_variation(P, Q)) <= 1e-12


@given(weights, weights)
@settings(max_examples=100, deadline=None)
def test_chi2_identity(raw_p, raw_q):
    P, Q = strictly_positive_pair(raw_p, raw_q)
    direct = float(np.sum((P.weights - Q.weights) ** 2 / Q.weights))
    # tiny q atoms inflate chi-squared far above 1; scale the slack with it
    assert abs(f_divergence(hellinger_generator(2), P, Q) - direct) <= 1e-12 * max(
        1.0, direct
    )


@given(weights, weights)
@settings(max_examples=100, deadline=None)
def test_ratio_extremes_straddle_one(raw_p, raw_q):
    P, Q = strictly_positive_pair(raw_p, raw_q)
    m, M = ratio_extremes(P, Q)
    assert m <= 1.0 <= M


@given(weights, weights)
@settings(max_examples=150, deadline=None)
def test_measured_tv_never_exceeds_cap(raw_p, raw_q):
    P, Q = strictly_positive_pair(raw_p, raw_q)
    delta = total_variation(P, Q)
    m, M = ratio_extremes(P, Q)
    assert delta <= tv_cap(m, M) + 1e-12


@given(weights, weights)
# rounding measures m = 1.0, M = 1 + 2**-52 and delta ~ 1e-22, capped to 0
@example([1.0, 1.0000000000000002e-06], [1.0, 1e-06])
@settings(max_examples=150, deadline=None)
def test_soundness_against_measured_class(raw_p, raw_q):
    # every real pair obeys the bound at its own measured parameters
    P, Q = strictly_positive_pair(raw_p, raw_q)
    delta, m, M = measure_pair(P, Q)
    if delta == 0.0:
        return
    params = ClassParams(min(delta, tv_cap(m, M)), m, M)
    for gen in GENERATORS:
        bound = theorem1_bound(gen, params)
        # extreme ratios make the bound huge; scale the slack accordingly
        assert f_divergence(gen, P, Q) <= bound + 1e-10 * max(1.0, bound)


@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=8),
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_chord_dominance(points, raw_weights):
    # E[f(kappa)] <= chord bound for discrete kappa on [a, b] with that mean
    n = min(len(points), len(raw_weights))
    support = np.asarray(points[:n])
    probs = np.asarray(raw_weights[:n])
    probs = probs / probs.sum()
    a, b = float(support.min()), float(support.max())
    if b - a < 1e-9:
        return
    mean = float(np.dot(probs, support))
    mean = min(max(mean, a), b)
    for gen in GENERATORS:
        values = np.array([gen(t) for t in support])
        if np.any(np.isinf(values)):
            continue
        sample_mean = float(np.dot(probs, values))
        # the chord of f through (a, f(a)) and (b, f(b)), at the mean
        abar = (b - mean) / (b - a)
        assert sample_mean <= abar * gen(a) + (1.0 - abar) * gen(b) + 1e-12


def class_deviation(params, p, q):
    """Per row: (|delta' - delta|, |m' - m|, |M' - M| / M) of stacked pairs.

    M' is compared relative to M: an M near 1e6 carries rounding of a few
    1e-10 in absolute terms whatever the sampler does."""
    support = q > 0
    ratio = p / np.where(support, q, 1.0)
    m = np.minimum(np.where(support, ratio, np.inf).min(axis=1), 1.0)
    M = np.maximum(np.where(support, ratio, -np.inf).max(axis=1), 1.0)
    delta = 0.5 * np.abs(p - q).sum(axis=1)
    return (np.abs(delta - params.delta), np.abs(m - params.m),
            np.abs(M - params.M) / params.M)


@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    # delta stays above ~1e-232; near 1e-300 the atoms' weights go subnormal
    # and their ratios lose digits, a float limit rather than a sampler fault
    st.floats(min_value=1e-200, max_value=1.0),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_sampled_rows_lie_in_class(m, M, cap_fraction, n, steps, seed):
    # delta ranges over (0, cap]; every sampled row must be a pair of
    # distributions in exactly this class
    params = ClassParams(cap_fraction * tv_cap(m, M), m, M)
    rng = np.random.default_rng(seed)
    p, q = _sample_batch(params, ternary_extremal(params), n, 64, rng, steps)
    assert p.shape == q.shape == (64, n)
    assert not np.any((q == 0.0) & (p > 0.0))  # absolutely continuous
    assert np.all(p >= 0.0) and np.all(q >= 0.0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for dev in class_deviation(params, p, q):
        assert dev.max() <= 1e-9


@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    st.floats(min_value=1e-200, max_value=1.0),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_transfers_touch_only_runs_of_two_or_more(m, M, cap_fraction, n, steps, seed):
    # the same draws with and without transfer steps: q and the anchors
    # never move, nor does an atom alone on its band in its row
    params = ClassParams(cap_fraction * tv_cap(m, M), m, M)
    base = ternary_extremal(params)
    trials = 64
    p0, q0 = _sample_batch(params, base, n, trials, np.random.default_rng(seed), 0)
    p, q = _sample_batch(params, base, n, trials, np.random.default_rng(seed), steps)
    assert q.tobytes() == q0.tobytes()
    # the sampler's first draw is each free atom's code c: parent c >> 1
    # of the base atoms with Q mass, whose index in base is its side of 1
    # (0 below, 1 above, 2 at ratio 1); band c & 1 at ratio 1, else that side
    active = [j for j, w in enumerate(base.Q.values) if w > 0.0]
    k0 = len(active)
    codes = np.random.default_rng(seed).integers(0, 2 * k0, size=(trials, n - k0))
    band = np.array([c & 1 if active[c >> 1] == 2 else active[c >> 1]
                     for c in range(2 * k0)])[codes]
    members = np.stack([np.count_nonzero(band == k, axis=1) for k in (0, 1)], axis=1)
    alone = np.take_along_axis(members, band, axis=1) < 2
    assert p[:, :k0].tobytes() == p0[:, :k0].tobytes()
    assert p[:, k0:][alone].tobytes() == p0[:, k0:][alone].tobytes()


def outcome(fn, *args):
    """fn(*args) as the hex of its float (bit for bit, sign of zero included),
    or the type of the domain error it raised."""
    try:
        return float(fn(*args)).hex()
    except RevPinskerError as e:
        return type(e)


ratio_low = st.floats(min_value=0.0, max_value=1.0 - 1e-15)
ratio_high = st.floats(min_value=1.0, max_value=1e300, exclude_min=True)
total_variation_value = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@given(st.sampled_from(GENERATORS), ratio_low, ratio_high)
@settings(max_examples=300, deadline=None)
def test_corollary1_is_theorem1_at_the_cap(gen, m, M):
    params = ClassParams(tv_cap(m, M), m, M)
    assert outcome(corollary1_bound, gen, m, M) == outcome(theorem1_bound, gen, params)


@given(st.sampled_from((0.25, 0.5, 2.0, 3.0)), total_variation_value, ratio_low, ratio_high)
# a direct M**alpha form of the Renyi bound differs here in the last digits
@example(0.25, 0.3985, 0.396, 79.856)
@example(3.0, 1.0, 0.0, 5.643803094122362e102)  # the Hellinger bound overflows
@settings(max_examples=300, deadline=None)
def test_renyi_is_the_transformed_hellinger_bound(alpha, delta, m, M):
    # bit for bit, except where the float Hellinger bound overflows: the
    # transform of inf reads inf, and renyi_bound composes in the log domain
    params = ClassParams(min(delta, tv_cap(m, M)), m, M)
    composed = outcome(
        lambda: renyi_from_hellinger(alpha, theorem1_bound(hellinger_generator(alpha), params))
    )
    if composed != math.inf.hex():
        assert outcome(renyi_bound, alpha, params) == composed
        return
    import mpmath as mp

    with mp.workdps(50):
        a, d, lo, hi = (mp.mpf(x) for x in (alpha, params.delta, m, M))
        h = d * ((lo**a - 1) / (1 - lo) + (hi**a - 1) / (hi - 1)) / (a - 1)
        exact = float(mp.log1p((a - 1) * h) / (a - 1))
    assert renyi_bound(alpha, params) == pytest.approx(exact, rel=1e-13)


@given(st.sampled_from(GENERATORS), total_variation_value)
@settings(max_examples=200, deadline=None)
def test_vajda_is_the_gap_at_zero_and_infinity(gen, delta):
    assert outcome(vajda_bound, gen, delta) == outcome(
        lambda: delta * chord_slope_gap(gen, 0.0, INF)
    )
