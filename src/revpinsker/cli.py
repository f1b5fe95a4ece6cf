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
import sys

from .bounds import (
    ClassParams,
    GRID_CAP_FRACTIONS,
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
from .divergence import f_divergence, measure_pair, renyi_from_hellinger
from .errors import RevPinskerError
from .extended import INF
from .extremal import ternary_extremal, verify_membership
from .generators import (
    Generator,
    chi2_generator,
    hellinger_generator,
    kl_generator,
    tv_generator,
)
from .oracle import SearchConfig, search_sup

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract wants 3
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def _parse_extended(text: str) -> float:
    text = text.strip().lower()
    if text == "inf":
        return INF
    if text == "-inf":
        return -INF
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


def _resolve_divergence(spec: str):
    """Return (Generator, renyi_alpha_or_None) for a --div spec."""
    spec = spec.strip().lower()
    if spec == "kl":
        return kl_generator(), None
    if spec == "tv":
        return tv_generator(), None
    if spec == "chi2":
        return chi2_generator(), None
    if spec.startswith("hellinger:"):
        return hellinger_generator(_parse_extended(spec.split(":", 1)[1])), None
    if spec.startswith("renyi:"):
        alpha = _parse_extended(spec.split(":", 1)[1])
        return hellinger_generator(alpha), alpha
    raise ParseError(f"unknown divergence {spec!r}")


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
    gen, renyi_alpha = _resolve_divergence(args.div)
    inputs = {"div": args.div, "formula": args.formula, "delta": args.delta,
              "m": args.m, "M": args.M}
    if args.formula == "thm1":
        if args.delta is None or args.m is None or args.M is None:
            raise ParseError("thm1 needs --delta, --m and --M")
        params = ClassParams(delta=args.delta, m=args.m, M=args.M)
        if renyi_alpha is not None:
            value = renyi_bound(renyi_alpha, params)
        else:
            value = theorem1_bound(gen, params)
    elif args.formula == "cor1":
        if args.m is None or args.M is None:
            raise ParseError("cor1 needs --m and --M")
        value = corollary1_bound(gen, args.m, args.M)
        if renyi_alpha is not None:
            value = renyi_from_hellinger(renyi_alpha, value)
    elif args.formula == "cor2":
        if args.delta is None:
            raise ParseError("cor2 needs --delta")
        value = vajda_bound(gen, args.delta)
        if renyi_alpha is not None:
            value = renyi_from_hellinger(renyi_alpha, value)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown formula {args.formula!r}")
    _emit_record(_record("bound", inputs, {"bound": value}), args.format)
    return EXIT_OK


def _cmd_divergence(args) -> int:
    gen, renyi_alpha = _resolve_divergence(args.div)
    from .distributions import validate_distribution

    P = validate_distribution(_parse_weights(args.p))
    Q = validate_distribution(_parse_weights(args.q))
    value = f_divergence(gen, P, Q)
    if renyi_alpha is not None:
        value = renyi_from_hellinger(renyi_alpha, value)
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
            "P": list(pair.P.weights),
            "Q": list(pair.Q.weights),
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
    generators = tuple(_resolve_divergence(d)[0] for d in args.div.split(","))
    report = verify_membership(P, Q, params, tol=args.tol, generators=generators)
    results = {
        "measured_delta": report.measured_delta,
        "measured_m": report.measured_m,
        "measured_M": report.measured_M,
        "deviation_delta": report.deviation_delta,
        "deviation_m": report.deviation_m,
        "deviation_M": report.deviation_M,
    }
    for name in report.divergences:
        results[f"divergence.{name}"] = report.divergences[name]
        results[f"bound.{name}"] = report.bounds[name]
        results[f"gap.{name}"] = report.gaps[name]
    record = _record(
        "verify",
        {"p": args.p, "q": args.q, "delta": args.delta, "m": args.m,
         "M": args.M, "tol": args.tol},
        results,
        status="pass" if report.passed else "fail",
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
    if args.grid != "default":
        raise ParseError("only --grid default is supported")
    print(COMPARE_HEADER)
    ok = True
    for row in comparison_rows(args.comparator, args.alpha):
        new, prior = row[3:5]
        ok = ok and prior >= new - 1e-12
        print(csv_row(row))
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_fuzz(args) -> int:
    gen, renyi_alpha = _resolve_divergence(args.div)
    params = ClassParams(delta=args.delta, m=args.m, M=args.M)
    config = SearchConfig(
        support_size=args.n,
        trials=args.trials,
        seed=args.seed,
        perturbation_steps=args.steps,
        step_scale=args.step_scale,
        tolerance=args.tol,
    )
    outcome = search_sup(gen, params, config, seed_extremal=not args.no_seed_extremal)
    best, bound, gap = outcome.best_value, outcome.bound, outcome.gap
    if renyi_alpha is not None:
        # a monotone transform preserves ordering, hence violation counts
        best = renyi_from_hellinger(renyi_alpha, best)
        bound = renyi_from_hellinger(renyi_alpha, bound)
        gap = 0.0 if bound == best == INF else bound - best
    record = _record(
        "fuzz",
        {"div": args.div, "delta": args.delta, "m": args.m, "M": args.M,
         "trials": args.trials, "seed": args.seed, "n": args.n},
        {"best_value": best, "bound": bound, "gap": gap,
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

    p = sub.add_parser("bound", help="closed-form optimal bound")
    p.add_argument("--div", required=True)
    p.add_argument("--formula", choices=("thm1", "cor1", "cor2"), required=True)
    p.add_argument("--delta", type=_parse_extended)
    p.add_argument("--m", type=_parse_extended)
    p.add_argument("--M", type=_parse_extended)
    add_common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("divergence", help="evaluate D_f on a concrete pair")
    p.add_argument("--div", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("extremal", help="ternary pair attaining the bound")
    p.add_argument("--delta", type=_parse_extended, required=True)
    p.add_argument("--m", type=_parse_extended, required=True)
    p.add_argument("--M", type=_parse_extended, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="check class membership of a pair")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--delta", type=_parse_extended, required=True)
    p.add_argument("--m", type=_parse_extended, required=True)
    p.add_argument("--M", type=_parse_extended, required=True)
    p.add_argument("--tol", type=_parse_extended, default=1e-9)
    p.add_argument("--div", default="kl,tv,chi2")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="dominance table against prior bounds")
    p.add_argument("--grid", default="default")
    p.add_argument(
        "--comparator",
        choices=("simic", "sason-chi2", "sason-renyi", "verdu"),
        required=True,
    )
    p.add_argument("--alpha", type=_parse_extended, default=2.0)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fuzz", help="randomized soundness/tightness search")
    p.add_argument("--div", required=True)
    p.add_argument("--delta", type=_parse_extended, required=True)
    p.add_argument("--m", type=_parse_extended, required=True)
    p.add_argument("--M", type=_parse_extended, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--step-scale", type=_parse_extended, default=0.9)
    p.add_argument("--tol", type=_parse_extended, default=1e-10)
    p.add_argument("--no-seed-extremal", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RevPinskerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
