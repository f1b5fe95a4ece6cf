#!/usr/bin/env python3
"""Print the library's values over a fixed grid, one line per value.

Each line names a call and its arguments, then gives the value as
``float.hex`` (bit-exact, -0.0 apart from 0.0) or, when the call raises, the
exception's type name.  Two commits agree on every value exactly when their
dumps are byte-identical, so a change meant to keep values is checked with

    python3 scripts/value_dump.py > after.txt
    diff before.txt after.txt

The grid is 11 m x 12 M x 5 fractions of the total-variation cap, with
m and M reaching 0, 1 and +inf and the ill-conditioned points next to them,
for the generators kl, tv, chi2 and Hellinger 0.25, 0.5, 2 and 3.  Per class
it covers ``theorem1_bound``, ``corollary1_bound``, ``vajda_bound``,
``renyi_bound``, ``kl_bound_ab``, the extremal pair (weights, q, p, t and
D_f), ``verify_membership`` of that pair, ``theorem1_bound`` for KL on the
pair's measured class and ``falsify_feasibility``; per
generator, ``search_unconstrained_sup`` at four total variations.  The
oracle's hot path is covered at a few classes, per (n, trials) of
``SAMPLE_SHAPES`` (rows <= n, rows > n, n >= 8, and 256 rows or more,
which ``batch_f_divergence`` sums a column at a time): the p and q of a
seeded ``_sample_batch``, ``batch_f_divergence`` of its rows for each
generator, also with the last atom's p and q set to 0 (the q = 0 ratios),
and each generator's ``search_sup`` outcome (best value and pair, bound,
gap, violations and history).  The Renyi value of a pair, its Hellinger
value through ``renyi_from_hellinger`` with the pair as source, is dumped
per order on each sampled class's extremal pair and on ``OVERFLOW_PAIR``,
whose Hellinger-3 value overflows.  ``batch_f_divergence`` is also dumped
per generator on each pair of ``BAD_WEIGHTS``, batches that are not
weights, and ``validate_distribution`` on each of ``NOT_WEIGHT_VECTORS``
and on a generator, inputs that are no weight vector.  Each public entry
that takes a number (``number_entries``, the ``Generator`` record's two
limits included) is dumped with each of ``not_numbers`` of a valid value in
each of its number slots, ``chord_slope_gap`` per generator on numpy
float32 arguments, and ``Generator.evaluate`` per generator on each of
``NOT_T_ARRAYS``.  A ``memoryview`` or a generator is named by a fixed
text, since its repr holds an address, an int past float range by its bit
length, and a numpy scalar that is no Python float is dumped as its type
name and its value.  Runs in process and is deterministic.
"""

import argparse
import array
import math
import types
import warnings
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter

import mpmath
import numpy as np

from revpinsker import (
    ClassParams,
    Distribution,
    Generator,
    SearchConfig,
    batch_f_divergence,
    chi2_generator,
    chord_slope_gap,
    corollary1_bound,
    custom_generator,
    f_divergence,
    falsify_feasibility,
    hellinger_generator,
    kl_bound_ab,
    kl_generator,
    log_over_x_minus_1,
    measure_pair,
    renyi_bound,
    renyi_from_hellinger,
    search_sup,
    search_unconstrained_sup,
    simic_kl_bound,
    ternary_extremal,
    theorem1_bound,
    tv_cap,
    tv_generator,
    validate_distribution,
    vajda_bound,
    verify_membership,
)
from revpinsker.errors import RevPinskerError
from revpinsker.oracle import PERTURBATION_STEPS, _sample_batch

M_LOW = (0.0, 1e-300, 1e-15, 1e-8, 0.1, 0.396, 0.5, 0.9, 1 - 1e-8, 1 - 1e-15, 1.0)
M_HIGH = (1.0, 1 + 1e-15, 1 + 1e-8, 1.1, 2.0, 5.0, 79.856, 1e8, 1e15, 1e100, 1e300, math.inf)
CAP_FRACTIONS = (0.0, 1e-300, 0.1, 0.5, 1.0)
HELLINGER_ORDERS = (0.25, 0.5, 2.0, 3.0)
#: classes off the grid that reach the member search's special cases
EXTRA_CLASSES = ((1e-7, 1.0, 1.0), (2e-6, 1.0, 1.0), (0.5, 1.0, 1.0),
                 (0.1, 1.0, 2.0), (0.1, 0.5, 1.0), (0.9, 0.5, 2.0))
SWEEP_DELTAS = (0.0, 0.05, 0.3, 0.9)
FEASIBILITY_CONFIG = SearchConfig(trials=200, seed=0)
#: classes the oracle samples and searches: k0 = 3 parents, one at m = 0,
#: two at the cap and one at delta = 0
SAMPLE_CLASSES = ((0.25, 0.5, 2.0), (0.05, 0.1, 100.0), (0.4, 0.0, 5.0),
                  (tv_cap(0.5, 2.0), 0.5, 2.0), (0.0, 1.0, 1.0))
#: (n, trials) of the sampled batches and searches
SAMPLE_SHAPES = ((3, 2), (6, 7), (12, 13), (12, 40), (6, 300))
SAMPLE_SEED = 1
#: a pair whose sum p**3 / q**2 is about 1e599, past float range
OVERFLOW_PAIR = ((0.1, 0.1, 0.8), (0.2, 1e-301, 0.8))
#: (p, q) with a negative or NaN entry, one with a q = 0 atom; then p that
#: is no array of weights: text, Fraction items, a dict and a ragged list
BAD_WEIGHTS = (([[-0.5, 1.5]], [[0.5, 0.5]]), ([[math.nan, 1.0]], [[0.5, 0.5]]),
               ([[0.5, 0.5]], [[-0.5, 1.5]]), ([[0.5, 0.5]], [[math.nan, 0.5]]),
               ([[-0.5, 1.5, 0.0]], [[0.5, 0.5, 0.0]]),
               ([["0.5", "0.5"]], [[0.25, 0.75]]), ([[b"0.5", b"0.5"]], [[0.25, 0.75]]),
               (np.array([["0.5", "0.5"]]), [[0.25, 0.75]]),
               ([[Fraction(1, 2), Fraction(1, 2)]], [[0.25, 0.75]]), ({0: 1}, [[0.25, 0.75]]),
               ([[0.5], [0.5, 0.5]], [[0.25, 0.75]]))
#: inputs that are no weight vector: a dict (its keys are floats), a set, text
#: items, buffers, a range, and Decimal, Fraction and object items
NOT_WEIGHT_VECTORS = ({0.25: 0, 0.75: 0}, {0.75, 0.25}, ["0.5", "0.5"], [b"0.5", 0.5],
                      [" 1 "], memoryview(b"\x01"), [memoryview(b"1")],
                      array.array("d", [0.5, 0.5]), range(1, 2),
                      [Decimal("0.5"), Decimal("0.5")], [Fraction(1, 2), Fraction(1, 2)],
                      np.array([0.5, 0.5], dtype=object), [0.5, 10**400])
#: arrays that are no array of t >= 0: text, Fraction, object and complex
#: items, negative entries and a NaN
NOT_T_ARRAYS = (["2"], [Fraction(1, 2)], np.array([2.0], dtype=object), [2.0 + 0j],
                [-1.0], [-2.0], [0.0, math.nan])
REPORT_FIELDS = ("measured_delta", "measured_m", "measured_M", "deviation_delta",
                 "deviation_m", "deviation_M", "passed", "divergences", "bounds", "gaps")


def text(value) -> str:
    """A value as bit-exact text: floats by float.hex, containers item by item."""
    if value is None or isinstance(value, (bool, int, str)):
        return str(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.generic):  # a numpy scalar that is no Python float
        return f"{type(value).__name__}:{text(value.item())}"
    if isinstance(value, dict):
        return " ".join(f"{k}={text(v)}" for k, v in value.items())
    if isinstance(value, Distribution):
        return text(value.values)
    return "[" + " ".join(text(v) for v in value) + "]"


def shown(arg) -> str:
    """repr(arg), with a fixed text for a memoryview or a generator."""
    if isinstance(arg, memoryview):
        return f"memoryview({arg.tobytes()!r})"
    if isinstance(arg, types.GeneratorType):
        return "<generator>"
    if isinstance(arg, int) and arg.bit_length() > 1024:  # past float range
        return f"<int of {arg.bit_length()} bits>"
    if isinstance(arg, list):
        return "[" + ", ".join(map(shown, arg)) + "]"
    return repr(arg)


def emit(name: str, args: tuple, call) -> None:
    try:
        value = text(call())
    except Exception as exc:  # the error type is the dumped value
        value = type(exc).__name__
    print(f"{name}({', '.join(map(shown, args))}) {value}")


def dump_class(gens, delta: float, m: float, M: float) -> None:
    args = (delta, m, M)
    params = ClassParams(delta, m, M)
    b = 1.0 / m if m > 0.0 else math.inf
    emit("kl_bound_ab", (delta, 1.0 / M, b), lambda: kl_bound_ab(delta, 1.0 / M, b))
    for alpha in HELLINGER_ORDERS:
        emit("renyi_bound", (alpha,) + args, lambda: renyi_bound(alpha, params))
    for gen in gens:
        emit("theorem1_bound", (gen.name,) + args, lambda: theorem1_bound(gen, params))
        emit("vajda_bound", (gen.name, delta), lambda: vajda_bound(gen, delta))
    emit("falsify_feasibility", args, lambda: falsify_feasibility(params, FEASIBILITY_CONFIG))
    try:
        pair = ternary_extremal(params)
    except RevPinskerError as exc:
        print(f"ternary_extremal{args} {type(exc).__name__}")
        return
    for field in ("P", "Q", "q", "p", "t"):
        emit(f"ternary_extremal.{field}", args, lambda: getattr(pair, field))
    for gen in gens:
        emit("f_divergence", (gen.name,) + args, lambda: f_divergence(gen, pair.P, pair.Q))
    report = verify_membership(pair.P, pair.Q, params, generators=tuple(gens))
    for field in REPORT_FIELDS:
        emit(f"verify_membership.{field}", args, lambda: getattr(report, field))
    # rounding in the measured m and M must not empty the class
    measured = measure_pair(pair.P, pair.Q)
    emit("theorem1_bound.measured", ("kl",) + args,
         lambda: theorem1_bound(kl_generator(), ClassParams(*measured)))


def dump_oracle(gens, delta: float, m: float, M: float) -> None:
    params = ClassParams(delta, m, M)
    base = ternary_extremal(params)
    for n, trials in SAMPLE_SHAPES:
        args = (delta, m, M, n, trials)
        rng = np.random.default_rng(SAMPLE_SEED)
        p, q = _sample_batch(params, base, n, trials, rng, PERTURBATION_STEPS)
        emit("_sample_batch.p", args, lambda: p.ravel().tolist())
        emit("_sample_batch.q", args, lambda: q.ravel().tolist())
        p0, q0 = p.copy(), q.copy()
        p0[:, -1] = q0[:, -1] = 0.0
        config = SearchConfig(n, trials, SAMPLE_SEED)
        for gen in gens:
            emit("batch_f_divergence", (gen.name,) + args,
                 lambda: batch_f_divergence(gen, p, q).tolist())
            emit("batch_f_divergence.zero_atom", (gen.name,) + args,
                 lambda: batch_f_divergence(gen, p0, q0).tolist())
            emit("search_sup", (gen.name,) + args,
                 lambda: vars(search_sup(gen, params, config)))
    dump_renyi_pair((delta, m, M), base.P, base.Q)


def dump_renyi_pair(args: tuple, P: Distribution, Q: Distribution) -> None:
    for alpha in HELLINGER_ORDERS:
        gen = hellinger_generator(alpha)
        emit("renyi_pair", (alpha,) + args,
             lambda: renyi_from_hellinger(alpha, f_divergence(gen, P, Q), (P, Q)))


def number_entries():
    """(name, valid arguments, call) of each public entry that takes a
    number; a generator argument is given by its name."""
    gens = {"kl": kl_generator(), "tv": tv_generator()}
    params = ClassParams(0.25, 0.5, 2.0)
    pair = ternary_extremal(params)
    return (
        ("ClassParams", (0.25, 0.5, 2.0), ClassParams),
        ("tv_cap", (0.5, 2.0), tv_cap),
        ("corollary1_bound", ("kl", 0.5, 2.0), lambda g, m, M: corollary1_bound(gens[g], m, M)),
        ("vajda_bound", ("tv", 0.5), lambda g, delta: vajda_bound(gens[g], delta)),
        ("log_over_x_minus_1", (2.0,), log_over_x_minus_1),
        ("kl_bound_ab", (0.1, 0.5, 2.0), kl_bound_ab),
        ("simic_kl_bound", (0.5, 2.0), simic_kl_bound),
        ("chord_slope_gap", ("kl", 0.1, 2.0), lambda g, m, M: chord_slope_gap(gens[g], m, M)),
        ("Generator.__call__", ("kl", 2.0), lambda g, t: gens[g](t)),
        ("Generator.limits", ("tv", 0.5, 0.5),
         lambda g, *limits: attrgetter("f_at_zero", "slope_at_infinity")(
             Generator(g, gens[g].fn, *limits))),
        ("hellinger_generator.f_at_zero", (0.5,), lambda a: hellinger_generator(a).f_at_zero),
        ("renyi_bound", (2.0,), lambda alpha: renyi_bound(alpha, params)),
        ("renyi_from_hellinger", (2.0, 0.1), renyi_from_hellinger),
        ("custom_generator.limits", ("tv", 0.5, 0.5),
         lambda g, *limits: attrgetter("f_at_zero", "slope_at_infinity")(
             custom_generator(gens[g].fn, *limits))),
        ("verify_membership.passed", (1e-9,),
         lambda tol: verify_membership(pair.P, pair.Q, params, tol=tol).passed),
        ("search_unconstrained_sup.best_value", ("tv", 0.3),
         lambda g, delta: search_unconstrained_sup(gens[g], delta).best_value),
    )


def not_numbers(v: float) -> tuple:
    """Inputs that are no number, most of them standing for v: its text,
    bytes, Decimal, Fraction, mpmath number, complex number, list and 1-D
    array, then None, text that is no number and an int past float range."""
    return (repr(v), repr(v).encode(), Decimal(repr(v)), Fraction(v), mpmath.mpf(v),
            complex(v), [v], np.array([v]), None, "a", 10**400)


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    gens = [kl_generator(), tv_generator(), chi2_generator()]
    gens += [hellinger_generator(alpha) for alpha in HELLINGER_ORDERS]
    with warnings.catch_warnings():
        # hellinger:3 overflows to inf at huge M, with numpy's warning on stderr
        warnings.simplefilter("ignore", RuntimeWarning)
        for m in M_LOW:
            for M in M_HIGH:
                for gen in gens:
                    emit("corollary1_bound", (gen.name, m, M),
                         lambda: corollary1_bound(gen, m, M))
                for frac in CAP_FRACTIONS:
                    dump_class(gens, frac * tv_cap(m, M), m, M)
        for delta, m, M in EXTRA_CLASSES:
            dump_class(gens, delta, m, M)
        for gen in gens:
            for delta in SWEEP_DELTAS:
                emit("search_unconstrained_sup", (gen.name, delta),
                     lambda: vars(search_unconstrained_sup(gen, delta)))
        for delta, m, M in SAMPLE_CLASSES:
            dump_oracle(gens, delta, m, M)
        dump_renyi_pair(OVERFLOW_PAIR, *map(validate_distribution, OVERFLOW_PAIR))
        for p, q in BAD_WEIGHTS:
            for gen in gens:
                emit("batch_f_divergence.bad_weight", (gen.name, p, q),
                     lambda: batch_f_divergence(gen, p, q).tolist())
        # a generator is made here, as a run would use one up
        for weights in NOT_WEIGHT_VECTORS + ((w for w in (1.0,)),):
            emit("validate_distribution", (weights,), lambda: validate_distribution(weights))
        for name, args, call in number_entries():
            for i, v in enumerate(args):
                for x in not_numbers(v) if isinstance(v, float) else ():
                    bad = args[:i] + (x,) + args[i + 1:]
                    emit(name, bad, lambda: call(*bad))
        for gen in gens:
            for m, M in ((np.float32(0.1), 2.0), (0.1, np.float32(2.0))):
                emit("chord_slope_gap", (gen.name, m, M), lambda: chord_slope_gap(gen, m, M))
        for gen in gens:
            for t in NOT_T_ARRAYS:
                emit("Generator.evaluate", (gen.name, t), lambda: gen.evaluate(t).tolist())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
