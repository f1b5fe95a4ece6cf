"""The four workloads: seeded inputs, the timed operation and its untimed check.

Importing this module loads only the standard library.  The program and its
dependencies (numpy, mpmath) are imported in ``Workload.setup``, which
probe.py times in fresh processes as the benchmark's set-up.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: measured (delta, m, M) of a sampled or extremal pair must be this close
#: to the target class (the tolerance of ``verify_membership``)
CLASS_TOL = 1e-9
#: relative tolerance for numbers the CLI prints with 12 digits (CSV)
CSV_RTOL = 1e-11
#: a CLI process that runs longer than this is killed and counted as failed
CLI_TIMEOUT_S = 60

STOCK = ("kl", "tv", "chi2", "hellinger:0.5", "hellinger:3")
#: the ratio extremes and cap fractions of the library's default grid
GRID_M = (0.0, 0.1, 0.25, 0.5, 0.9)
GRID_BIG_M = (1.1, 2.0, 5.0, 10.0, 100.0)
GRID_FRACTIONS = (0.1, 0.5, 1.0)
GRID_SIZE = len(GRID_M) * len(GRID_BIG_M) * len(GRID_FRACTIONS)


def program_env() -> dict:
    """Environment for program processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def tv_cap(m: float, M: float) -> float:
    return (M - 1.0) * (1.0 - m) / (M - m)


def stock_generator(spec: str):
    import revpinsker as rp

    if spec.startswith("hellinger:"):
        return rp.hellinger_generator(float(spec.split(":", 1)[1]))
    return {"kl": rp.kl_generator, "tv": rp.tv_generator, "chi2": rp.chi2_generator}[spec]()


def twin(gen):
    """(mp_fn, f(0+), f'(inf)) of a stock generator, the reference's input."""
    return gen.mp_fn, gen.f_at_zero, gen.slope_at_infinity


# Scalar-only generators: each fails on an array argument, so the program's
# Generator.evaluate must take its per-element fallback.
def kl_scalar(t):
    return t * math.log(t)


def hockey_scalar(t):
    return max(t - 0.5, 0.0) - 0.5


def hellinger_half_scalar(t):
    return 2.0 * (1.0 - math.sqrt(t))


def _mp_kl(t):
    import mpmath as mp

    return t * mp.log(t)


def _mp_hellinger_half(t):
    import mpmath as mp

    return 2 * (1 - mp.sqrt(t))


#: name, scalar f, f(0+), f'(inf) and the 50-digit twin of f
CUSTOM = (
    ("kl_scalar", kl_scalar, 0.0, math.inf, _mp_kl),
    ("hockey_scalar", hockey_scalar, -0.5, 1.0, hockey_scalar),
    ("hellinger_half_scalar", hellinger_half_scalar, 2.0, 0.0, _mp_hellinger_half),
)


def class_deviation_rows(params, p, q):
    """Per row of the stacked pairs (p, q): the largest of |delta' - delta|,
    |m' - m| and |M' - M| / M between the measured and the target class."""
    import numpy as np

    support = q > 0
    safe_q = np.where(support, q, 1.0)
    ratio = p / safe_q
    m = np.minimum(np.where(support, ratio, np.inf).min(axis=1), 1.0)
    M = np.maximum(np.where(support, ratio, -np.inf).max(axis=1), 1.0)
    delta = 0.5 * np.abs(p - q).sum(axis=1)
    dev = np.maximum(np.abs(delta - params.delta), np.abs(m - params.m))
    dev = np.maximum(dev, np.abs(M - params.M) / params.M)
    # mass where Q has none leaves the class whatever the ratios say
    return np.where(((~support) & (p > 0)).any(axis=1), np.inf, dev)


class Verdict:
    """Failure reasons of one operation and its largest reference error."""

    def __init__(self):
        self.reasons: list[str] = []
        self.rel_err = 0.0

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)

    def ref(self, label: str, value, ref) -> None:
        from . import refs

        err = refs.rel_err(value, ref)
        if math.isfinite(err):
            self.rel_err = max(self.rel_err, err)
        if not err <= refs.REF_RTOL:
            self.fail(f"ref:{label}")


class Workload:
    """Seeded operations, run one at a time in a closed loop."""

    name = ""
    #: what one unit of ``work_per_s`` counts
    work_unit = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = self.make_ops(random.Random(seed))

    def make_ops(self, rng: random.Random) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """Import the program and build its input objects."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work that depends only on the inputs (references)."""

    def run(self, i: int):
        """The timed operation, as a user of the program runs it."""
        raise NotImplementedError

    def run_in_process(self, i: int):
        """The operation in this process, where the tracer can see it."""
        return self.run(i)

    def ungated_report(self) -> dict:
        """Untimed figures for the detail line that do not gate the run."""
        return {}

    def issue_order(self):
        """Operation indices in the order a run issues them: pass after pass
        over every operation, each pass in its own seeded order, so that an
        operation's repeats fall at unrelated moments of the run."""
        rng = random.Random(self.seed)
        order = list(range(len(self.ops)))
        while True:
            yield from order
            rng.shuffle(order)

    def work(self, i: int) -> int:
        return 1

    def check(self, i: int, out) -> Verdict:
        raise NotImplementedError

    def digest(self, out):
        """A value equal across reruns of one operation iff its output is."""
        raise NotImplementedError


class _Fuzz(Workload):
    """``search_sup`` over generators x default-grid points."""

    work_unit = "trials"
    support_size = 0
    trials = 0
    #: default-grid points drawn, without replacement, for each generator
    points_per_generator = 0

    def generators(self) -> list:
        """(Generator, reference twin) pairs."""
        raise NotImplementedError

    def points(self, rng: random.Random) -> list[int]:
        return rng.sample(range(GRID_SIZE), self.points_per_generator)

    def make_ops(self, rng):
        ops = [
            (g, k, rng.randrange(2**31))
            for g in range(self.n_generators)
            for k in self.points(rng)
        ]
        rng.shuffle(ops)
        return ops

    def setup(self):
        import revpinsker as rp
        from revpinsker import oracle

        self.oracle = oracle
        self.gens, self.twins = zip(*self.generators())
        grid = rp.default_grid()
        self.params = [grid[k % len(grid)] for _, k, _ in self.ops]
        self.configs = [
            rp.SearchConfig(support_size=self.support_size, trials=self.trials, seed=s)
            for _, _, s in self.ops
        ]

    def prepare(self):
        from . import refs

        self.bound_refs = [
            refs.theorem1(self.twins[g], p.delta, p.m, p.M)
            for (g, _, _), p in zip(self.ops, self.params)
        ]

    def run(self, i):
        return self.oracle.search_sup(self.gens[self.ops[i][0]], self.params[i], self.configs[i])

    def work(self, i):
        return self.trials

    def check(self, i, out):
        import numpy as np

        v = Verdict()
        v.ref("bound", out.bound, self.bound_refs[i])
        if out.violations:
            v.fail("violation")
        P, Q = out.best_pair
        dev = class_deviation_rows(self.params[i], np.atleast_2d(P.weights), np.atleast_2d(Q.weights))
        if not dev[0] <= CLASS_TOL:
            v.fail("out_of_class")
        return v

    def digest(self, out):
        return out.best_value, out.bound, out.violations


class Sweep(_Fuzz):
    """The ``scripts/fuzz_sweep.py`` load: 5 stock generators x default-grid
    points, n = 6, 2 000 trials per call.

    A run draws 22 of the 75 points per generator, so that each of its 110
    calls repeats about 45 times in 35 s.  The calls cost the same to within
    a few per cent, so a call's fastest repeat is what separates its cost
    from the machine's slow spells; with the full 375 calls and about 12
    repeats each, whether the tail read fast or slow followed the share of
    the run the machine spent in slow spells.
    """

    name = "sweep"
    support_size = 6
    trials = 2000
    n_generators = len(STOCK)
    #: 110 calls: the tail, with 10 samples above it, sits at p90.9
    points_per_generator = 22

    def generators(self):
        return [(g, twin(g)) for g in map(stock_generator, STOCK)]


class CustomFuzz(_Fuzz):
    """Scalar-only custom generators, n = 12, calls longer than the
    sampler's 20 000-row chunk.  Not in BENCHMARK.json: a run holds only
    about 100 of these calls, too few to be steady on a shared machine."""

    name = "custom_fuzz"
    support_size = 12
    trials = 22_000
    n_generators = len(CUSTOM)
    #: enough distinct calls that the tail can have 10 samples above it at p90
    points_per_generator = 40

    def generators(self):
        import revpinsker as rp

        return [
            (rp.custom_generator(f, f0, slope, name=name), (mp_f, f0, slope))
            for name, f, f0, slope, mp_f in CUSTOM
        ]


def _ladder(rng, exponents, exact, value):
    """value(e) per exponent; all but the ``exact`` rung jitter by <= 0.4 decade."""
    return [value(e if e == exact else e + rng.uniform(-0.4, 0.4)) for e in exponents]


class BoundsGrid(Workload):
    """The scalar closed forms, the extremal pair and its divergence over a
    log-spaced (delta, m, M) grid.

    The timed operations are the grid's well-conditioned points.  The
    ill-conditioned corners (m -> 1, M -> 1 and M -> inf), where the program
    is known to lose accuracy, are evaluated once per run, untimed, and
    reported in the detail line without gating the run.
    """

    name = "bounds_grid"
    work_unit = "evaluations"
    #: the Renyi order evaluated alongside each generator
    RENYI_ALPHA = (2.0, 0.5, 2.0, 0.5, 3.0)
    LABELS = ("theorem1", "corollary1", "renyi", "vajda")
    #: a corner has m above MAX_m, M - 1 below MIN_M_MINUS_1 or M above MAX_M;
    #: each limit lies between two rungs of the jittered ladders below
    MAX_m = 0.5
    MIN_M_MINUS_1 = 1e-5
    MAX_M = 1e7

    def make_ops(self, rng):
        grid = []
        for g in range(len(STOCK)):
            ms = (
                [0.0]
                + _ladder(rng, range(-12, 0, 2), -12, lambda e: 10.0**e)
                + [0.5]
                + _ladder(rng, range(-2, -9, -2), -8, lambda e: 1.0 - 10.0**e)
            )
            Ms = _ladder(rng, range(-8, 0, 2), -8, lambda e: 1.0 + 10.0**e) + _ladder(
                rng, (1, 2, 4, 6, 8, 10, 12), 12, lambda e: 10.0**e
            )
            for m in ms:
                for M in Ms:
                    b = 1.0 / m if m > 0 else math.inf
                    for frac in GRID_FRACTIONS:
                        grid.append((g, frac * tv_cap(m, M), m, M, 1.0 / M, b))
        rng.shuffle(grid)
        self.corners = [op for op in grid if self.is_corner(op)]
        return [op for op in grid if not self.is_corner(op)]

    @classmethod
    def is_corner(cls, op) -> bool:
        _, _, m, M, _, _ = op
        return m > cls.MAX_m or M - 1.0 < cls.MIN_M_MINUS_1 or M > cls.MAX_M

    def setup(self):
        from revpinsker import bounds, divergence, extremal

        self.bounds, self.divergence, self.extremal = bounds, divergence, extremal
        self.gens = [stock_generator(s) for s in STOCK]

    def prepare(self):
        self.refs = [self.references(op) for op in self.ops]

    def references(self, op):
        from . import refs

        g, delta, m, M, a, b = op
        tw = twin(self.gens[g])
        row = [
            refs.theorem1(tw, delta, m, M),
            refs.corollary1(tw, m, M),
            refs.renyi(self.RENYI_ALPHA[g], delta, m, M),
            refs.vajda(tw, delta),
        ]
        if STOCK[g] == "kl":
            row.append(refs.kl_ab(delta, a, b))
        return row

    def run(self, i):
        return self.evaluate(self.ops[i])

    def evaluate(self, op):
        g, delta, m, M, a, b = op
        B, gen = self.bounds, self.gens[g]
        params = B.ClassParams(delta, m, M)
        values = [
            B.theorem1_bound(gen, params),
            B.corollary1_bound(gen, m, M),
            B.renyi_bound(self.RENYI_ALPHA[g], params),
            B.vajda_bound(gen, delta),
        ]
        if STOCK[g] == "kl":
            values.append(B.kl_bound_ab(delta, a, b))
        pair = self.extremal.ternary_extremal(params)
        values.append(self.divergence.f_divergence(gen, pair.P, pair.Q))
        return values, pair

    def check(self, i, out):
        return self.verdict(self.ops[i], self.refs[i], out)

    def verdict(self, op, refs_row, out):
        from . import refs

        g, delta, m, M, _, _ = op
        values, pair = out
        P, Q = pair.P.weights, pair.Q.weights
        v = Verdict()
        labels = self.LABELS + (("kl_ab",) if STOCK[g] == "kl" else ())
        for label, value, ref in zip(labels, values, refs_row):
            v.ref(label, value, ref)
        v.ref("f_divergence", values[-1], refs.f_divergence(twin(self.gens[g]), P, Q))
        if not refs.class_deviation(P, Q, delta, m, M) <= CLASS_TOL:
            v.fail("extremal_out_of_class")
        return v

    def digest(self, out):
        return tuple(out[0])

    def ungated_report(self):
        failed, rel_err, reasons = 0, 0.0, {}
        for op in self.corners:
            try:
                v = self.verdict(op, self.references(op), self.evaluate(op))
            except Exception as e:  # a failed evaluation, counted and reported
                v = Verdict()
                v.fail(f"raise:{type(e).__name__}")
            failed += bool(v.reasons)
            rel_err = max(rel_err, v.rel_err)
            for r in v.reasons:
                reasons[r] = reasons.get(r, 0) + 1
        return {"corners": {
            "evaluations": len(self.corners), "failed": failed,
            "failed_frac": failed / len(self.corners), "ref_max_rel_err": rel_err,
            "failure_reasons": dict(sorted(reasons.items(), key=lambda kv: -kv[1])),
        }}


def _extremal_weights(delta, m, M):
    """The ternary extremal pair, built here independently of the program."""
    q = (M - 1.0) / (M - m)
    p = m * q
    t = min(delta * (M - m) / ((M - 1.0) * (1.0 - m)), 1.0)
    rest = max(0.0, 1.0 - t)
    return [t * p, t * (1.0 - p), rest], [t * q, t * (1.0 - q), rest]


def _num(x):
    return float(x) if isinstance(x, str) else x


class Cli(Workload):
    """Fresh ``python -m revpinsker`` processes, one at a time."""

    name = "cli"
    work_unit = "processes"
    KINDS = ("bound", "extremal", "verify", "compare", "fuzz")
    #: enough distinct processes that the tail can have 10 samples above it at p90
    PER_KIND = 24
    FUZZ_TRIALS = 1000

    def make_ops(self, rng):
        ops = [self._op(rng, kind) for kind in self.KINDS for _ in range(self.PER_KIND)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(rng, kind):
        m, M, frac = rng.choice(GRID_M), rng.choice(GRID_BIG_M), rng.choice(GRID_FRACTIONS)
        meta = {"kind": kind, "delta": frac * tv_cap(m, M), "m": m, "M": M}
        cls = ["--delta", repr(meta["delta"]), "--m", repr(m), "--M", repr(M)]
        if kind == "bound":
            meta.update(div=rng.choice(STOCK), formula=rng.choice(("thm1", "cor1", "cor2")))
            argv = ["bound", "--div", meta["div"], "--formula", meta["formula"], *cls]
        elif kind == "extremal":
            argv = ["extremal", *cls]
        elif kind == "verify":
            meta["P"], meta["Q"] = _extremal_weights(meta["delta"], m, M)
            argv = ["verify", "--p", ",".join(map(repr, meta["P"])),
                    "--q", ",".join(map(repr, meta["Q"])), *cls]
        elif kind == "compare":
            argv = ["compare", "--comparator", "simic"]
        else:
            meta.update(div=rng.choice(STOCK), seed=rng.randrange(2**31))
            argv = ["fuzz", "--div", meta["div"], *cls, "--trials", str(Cli.FUZZ_TRIALS),
                    "--seed", str(meta["seed"]), "--n", "6"]
        return tuple(argv), meta

    def setup(self):
        from revpinsker import cli

        self.cli = cli
        self.env = program_env()

    def run(self, i):
        proc = subprocess.run(
            [sys.executable, "-m", "revpinsker", *self.ops[i][0]],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=CLI_TIMEOUT_S, check=False,
        )
        return proc.returncode, proc.stdout.decode()

    def run_in_process(self, i):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(list(self.ops[i][0]))
        return code, out.getvalue()

    @staticmethod
    def expected(meta):
        """(results, status, reference or None) from the library, in process."""
        import revpinsker as rp

        from . import refs

        kind = meta["kind"]
        if kind == "compare":
            kl, rows = rp.kl_generator(), []
            for p in rp.default_grid():
                row = (p.m, p.M, rp.tv_cap(p.m, p.M))
                if p.m > 0 and row not in [r[:3] for r in rows]:
                    new = rp.corollary1_bound(kl, p.m, p.M)
                    prior = rp.simic_kl_bound(1.0 / p.M, 1.0 / p.m)
                    rows.append(row + (new, prior, prior / new))
            return rows, None, None
        params = rp.ClassParams(meta["delta"], meta["m"], meta["M"])
        if kind == "bound":
            gen = stock_generator(meta["div"])
            if meta["formula"] == "thm1":
                value = rp.theorem1_bound(gen, params)
                ref = refs.theorem1(twin(gen), params.delta, params.m, params.M)
            elif meta["formula"] == "cor1":
                value = rp.corollary1_bound(gen, params.m, params.M)
                ref = refs.corollary1(twin(gen), params.m, params.M)
            else:
                value, ref = rp.vajda_bound(gen, params.delta), refs.vajda(twin(gen), params.delta)
            return {"bound": value}, "n/a", (value, ref)
        if kind == "extremal":
            pair = rp.ternary_extremal(params)
            return {"P": list(pair.P.weights), "Q": list(pair.Q.weights),
                    "q": pair.q, "p": pair.p, "t": pair.t}, "n/a", None
        if kind == "verify":
            gens = tuple(stock_generator(s) for s in ("kl", "tv", "chi2"))
            report = rp.verify_membership(
                rp.validate_distribution(meta["P"]), rp.validate_distribution(meta["Q"]),
                params, tol=CLASS_TOL, generators=gens,
            )
            results = {k: getattr(report, k) for k in (
                "measured_delta", "measured_m", "measured_M",
                "deviation_delta", "deviation_m", "deviation_M")}
            for name in report.divergences:
                results[f"divergence.{name}"] = report.divergences[name]
                results[f"bound.{name}"] = report.bounds[name]
                results[f"gap.{name}"] = report.gaps[name]
            return results, "pass", None
        gen = stock_generator(meta["div"])
        out = rp.search_sup(gen, params, rp.SearchConfig(
            support_size=6, trials=Cli.FUZZ_TRIALS, seed=meta["seed"]))
        results = {"best_value": out.best_value, "bound": out.bound, "gap": out.gap,
                   "violations": out.violations}
        return results, "pass", None

    def check(self, i, out):
        code, text = out
        v = Verdict()
        if code != 0:
            v.fail(f"exit:{code}")
            return v
        expected, status, ref = self.expected(self.ops[i][1])
        if status is None:
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            same = len(rows) == len(expected) and all(
                len(got) == len(want)
                and all(math.isclose(float(a), b, rel_tol=CSV_RTOL) for a, b in zip(got, want))
                for got, want in zip(rows, expected)
            )
            if not same:
                v.fail("cli_disagrees")
            return v
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            v.fail("not_json")
            return v
        results = {
            k: [_num(x) for x in val] if isinstance(val, list) else _num(val)
            for k, val in record.get("results", {}).items()
        }
        if results != expected or record.get("status") != status:
            v.fail("cli_disagrees")
        if ref is not None:
            v.ref("bound", *ref)
        return v

    def digest(self, out):
        return out


WORKLOADS = {w.name: w for w in (Sweep, CustomFuzz, BoundsGrid, Cli)}
