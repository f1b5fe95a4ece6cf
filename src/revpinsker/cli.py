"""Command-line front end.

Subcommands: bound, divergence, extremal, verify, compare, fuzz.  Every
command prints exactly one JSON record (or one CSV table) on stdout;
diagnostics go to stderr.  Exit codes: 0 success, 1 fuzz bound violation,
2 infeasible/invalid domain parameters, 3 parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from functools import partial

from .bounds import (
    INF,
    ClassParams,
    bound_gap,
    corollary1_bound,
    default_grid,
    kl_bound_ab,
    renyi_bound,
    sason_chi2_bound,
    simic_kl_bound,
    theorem1_bound,
    tv_cap,
    vajda_bound,
)
from .divergence import f_divergence, measure_pair, renyi_divergence
from .errors import RevPinskerError
from .extremal import ternary_extremal, verify_membership
from .generators import (
    Generator,
    chi2_generator,
    hellinger_generator,
    kl_generator,
    tv_generator,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits 3 on a parse error (its default is 2) and reads
    every negative number as a value, ``--M -inf`` and ``--delta -1e-3`` too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents and infinities
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def _parse_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"not a number: {text!r}")
    if math.isnan(value):
        raise ParseError("NaN is not accepted")
    return value


def _parse_weights(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ParseError(f"bad weight list: {text!r}")


def _same(value: float, pair=None) -> float:
    return value


def _resolve_divergence(spec: str):
    """Return (Generator, report, class_bound) for a --div spec.
    ``report(value, pair)`` maps the generator's divergence of ``pair``, or
    a bound on it (no pair), to the printed value; ``class_bound(params)``
    is the printed optimal bound over a class.  They are the identity and
    ``theorem1_bound(gen, .)``, except for renyi:alpha: there the generator
    is Hellinger's of order alpha, named renyi:alpha, report is the monotone
    ``renyi_divergence(alpha, .)``, and class_bound is
    ``renyi_bound(alpha, .)``; both are finite where the float Hellinger
    value overflows."""
    spec = spec.strip().lower()
    named = {"kl": kl_generator, "tv": tv_generator, "chi2": chi2_generator}
    if spec in named:
        gen = named[spec]()
    elif spec.startswith("hellinger:"):
        gen = hellinger_generator(_parse_number(spec.split(":", 1)[1]))
    elif spec.startswith("renyi:"):
        alpha = _parse_number(spec.split(":", 1)[1])
        h = hellinger_generator(alpha)
        gen = Generator(f"renyi:{alpha:g}", h.fn, h.f_at_zero, h.slope_at_infinity, h.mp_fn)
        return gen, partial(renyi_divergence, alpha), partial(renyi_bound, alpha)
    else:
        raise ParseError(f"unknown divergence {spec!r}")
    return gen, _same, partial(theorem1_bound, gen)


def _fmt(x, csv: bool):
    """An output value.  Floats keep their exact repr in JSON and get 12
    significant digits in CSV; an infinity is the text "inf" or "-inf" in
    both, since JSON has no literal for it.  CSV joins a list with ";"."""
    if isinstance(x, dict):
        return {k: _fmt(v, csv) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        items = [_fmt(v, csv) for v in x]
        return ";".join(items) if csv else items
    if isinstance(x, float) and (csv or math.isinf(x)):
        return f"{x:.12g}"
    return str(x) if csv else x


def csv_row(values) -> str:
    """One CSV line of numbers, formatted as every CSV output is."""
    return ",".join(_fmt(v, csv=True) for v in values)


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_fmt(record, csv=False)))
    else:
        print("key,value")
        for section in ("command", "status"):
            print(f"{section},{record[section]}")
        for section in ("inputs", "results"):
            for key, value in record[section].items():
                print(f"{section}.{key},{_fmt(value, csv=True)}")


def _record(command: str, inputs: dict, results: dict, status: str = "n/a") -> dict:
    return {"command": command, "inputs": inputs, "results": results, "status": status}


def _cmd_bound(args) -> int:
    gen, report, class_bound = _resolve_divergence(args.div)
    inputs = {"div": args.div, "formula": args.formula, "delta": args.delta,
              "m": args.m, "M": args.M}
    if args.formula == "thm1":
        if args.delta is None or args.m is None or args.M is None:
            raise ParseError("thm1 needs --delta, --m and --M")
        value = class_bound(ClassParams(delta=args.delta, m=args.m, M=args.M))
    elif args.formula == "cor1":
        if args.m is None or args.M is None:
            raise ParseError("cor1 needs --m and --M")
        # the class bound at delta = cap; a zero cap (m = 1 or M = 1) is
        # the class P = Q, which corollary1_bound reads as 0
        cap = tv_cap(args.m, args.M)
        if cap > 0.0:
            value = class_bound(ClassParams(delta=cap, m=args.m, M=args.M))
        else:
            value = report(corollary1_bound(gen, args.m, args.M))
    else:  # cor2; argparse restricts --formula to the three choices
        if args.delta is None:
            raise ParseError("cor2 needs --delta")
        value = report(vajda_bound(gen, args.delta))
    _emit_record(_record("bound", inputs, {"bound": value}), args.format)
    return EXIT_OK


def _cmd_divergence(args) -> int:
    gen, report, _ = _resolve_divergence(args.div)
    from .distributions import validate_distribution

    P = validate_distribution(_parse_weights(args.p))
    Q = validate_distribution(_parse_weights(args.q))
    value = report(f_divergence(gen, P, Q), (P, Q))
    delta, m, M = measure_pair(P, Q)
    record = _record(
        "divergence",
        {"div": args.div, "p": args.p, "q": args.q},
        {"divergence": value, "delta": delta, "m": m, "M": M},
    )
    _emit_record(record, args.format)
    return EXIT_OK


def _cmd_extremal(args) -> int:
    params = ClassParams(delta=args.delta, m=args.m, M=args.M)
    pair = ternary_extremal(params)
    record = _record(
        "extremal",
        {"delta": args.delta, "m": args.m, "M": args.M},
        {
            "P": list(pair.P.values),
            "Q": list(pair.Q.values),
            "q": pair.q,
            "p": pair.p,
            "t": pair.t,
        },
    )
    _emit_record(record, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .distributions import validate_distribution

    P = validate_distribution(_parse_weights(args.p))
    Q = validate_distribution(_parse_weights(args.q))
    params = ClassParams(delta=args.delta, m=args.m, M=args.M)
    divs = [_resolve_divergence(d) for d in args.div.split(",")]
    pair = verify_membership(P, Q, params, tol=args.tol)
    results = {
        "measured_delta": pair.measured_delta,
        "measured_m": pair.measured_m,
        "measured_M": pair.measured_M,
        "deviation_delta": pair.deviation_delta,
        "deviation_m": pair.deviation_m,
        "deviation_M": pair.deviation_M,
    }
    for gen, report, class_bound in divs:
        value = report(f_divergence(gen, P, Q), (P, Q))
        bound = class_bound(params)
        results[f"divergence.{gen.name}"] = value
        results[f"bound.{gen.name}"] = bound
        results[f"gap.{gen.name}"] = bound_gap(bound, value)
    record = _record(
        "verify",
        {"p": args.p, "q": args.q, "delta": args.delta, "m": args.m,
         "M": args.M, "tol": args.tol},
        results,
        status="pass" if pair.passed else "fail",
    )
    _emit_record(record, args.format)
    return EXIT_OK


COMPARE_HEADER = "m,M,delta,new_bound,prior_bound,ratio"


def comparison_rows(comparator: str, alpha: float):
    """Yield the (m, M, delta, new_bound, prior_bound, ratio) rows of one
    comparison table over the default grid, the rows ``compare`` prints
    under COMPARE_HEADER."""
    kl, chi2 = kl_generator(), chi2_generator()
    seen = set()
    for params in default_grid():
        m, M, delta = params.m, params.M, params.delta
        if comparator == "simic":
            # one row per (m, M), at the cap
            if m <= 0.0 or (m, M) in seen:
                continue
            seen.add((m, M))
            delta = tv_cap(m, M)
            new = corollary1_bound(kl, m, M)
            prior = simic_kl_bound(1.0 / M, 1.0 / m)
        elif comparator == "sason-chi2":
            new = theorem1_bound(chi2, params)
            prior = sason_chi2_bound(params)
        elif comparator == "verdu":
            new = theorem1_bound(kl, params)
            prior = kl_bound_ab(delta, 1.0 / M, INF)
        elif comparator == "sason-renyi":
            new = renyi_bound(alpha, params)
            prior = renyi_bound(alpha, ClassParams(delta, 0.0, M))
        else:
            raise ParseError(f"unknown comparator {comparator!r}")
        yield m, M, delta, new, prior, prior / new if new > 0 else INF


def _cmd_compare(args) -> int:
    # every row first, so a domain error leaves stdout empty
    rows = list(comparison_rows(args.comparator, args.alpha))
    print(COMPARE_HEADER)
    for row in rows:
        print(csv_row(row))
    ok = all(prior >= new - 1e-12 for _, _, _, new, prior, _ in rows)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_fuzz(args) -> int:
    from .oracle import SearchConfig, search_sup

    gen, report, class_bound = _resolve_divergence(args.div)
    params = ClassParams(delta=args.delta, m=args.m, M=args.M)
    config = SearchConfig(support_size=args.n, trials=args.trials, seed=args.seed)
    outcome = search_sup(gen, params, config)
    # report is monotone, so it keeps the ordering and the violation count
    best = report(outcome.best_value, outcome.best_pair)
    bound = class_bound(params)
    record = _record(
        "fuzz",
        {"div": args.div, "delta": args.delta, "m": args.m, "M": args.M,
         "trials": args.trials, "seed": args.seed, "n": args.n},
        {"best_value": best, "bound": bound, "gap": bound_gap(bound, best),
         "violations": outcome.violations},
        status="pass" if outcome.violations == 0 else "fail",
    )
    _emit_record(record, args.format)
    return EXIT_OK if outcome.violations == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="revpinsker", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_class(p, required=True):
        for flag in ("--delta", "--m", "--M"):
            p.add_argument(flag, type=_parse_number, required=required)

    p = sub.add_parser("bound", help="closed-form optimal bound")
    p.add_argument("--div", required=True)
    p.add_argument("--formula", choices=("thm1", "cor1", "cor2"), required=True)
    add_class(p, required=False)
    add_common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("divergence", help="evaluate D_f on a concrete pair")
    p.add_argument("--div", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("extremal", help="ternary pair attaining the bound")
    add_class(p)
    add_common(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="check class membership of a pair")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    add_class(p)
    p.add_argument("--tol", type=_parse_number, default=1e-9)
    p.add_argument("--div", default="kl,tv,chi2")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="dominance table against prior bounds")
    p.add_argument(
        "--comparator",
        choices=("simic", "sason-chi2", "sason-renyi", "verdu"),
        required=True,
    )
    p.add_argument("--alpha", type=_parse_number, default=2.0)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fuzz", help="randomized soundness/tightness search")
    p.add_argument("--div", required=True)
    add_class(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6)
    add_common(p)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            # a value that overflows prints as "inf"; numpy's warning that
            # it did, from any generator or from p / q, is noise on stderr
            warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
            return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RevPinskerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def __getattr__(name: str):
    # search_sup and SearchConfig stay names of this module, but the oracle
    # is compiled only when one of them or fuzz is used
    if name in ("SearchConfig", "search_sup"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
