#!/usr/bin/env python3
"""Seeded benchmark of revpinsker.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs one workload in a closed loop from a single process: each operation is
issued when the previous one has returned, and every output is checked
outside the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same operations untraced and then traced and reports
the per-layer metrics.  Standard output ends with one detail line (the
environment, failure reasons, tail sample counts) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  Both, and the trace, are
also written under perfbench/results/.  See perfbench/README.md.
"""

import os

# one thread per process: pin the BLAS/OpenMP pools before numpy loads; the
# program's processes inherit the setting
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import workloads as W  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
#: per-layer metric: (unit, span, statistic over that span's calls)
PER_LAYER = {
    "oracle.search_sup.self_s": ("s", "oracle.search_sup", "self_per_op"),
    "oracle.sample_batch.s": ("s", "oracle.sample_batch", "per_op"),
    "oracle.sample_batch.ns_per_row": ("ns", "oracle.sample_batch", "ns_per_item"),
    "oracle.in_class_frac": ("frac", None, None),
    "oracle.max_class_dev": ("abs", None, None),
    "generators.evaluate.s": ("s", "generators.evaluate", "per_op"),
    "generators.evaluate.ns_per_elem": ("ns", "generators.evaluate", "ns_per_item"),
    "divergence.batch_f_divergence.ns_per_elem": ("ns", "divergence.batch_f_divergence",
                                                  "ns_per_item"),
    "divergence.f_divergence.us_per_call": ("us", "divergence.f_divergence", "us_per_call"),
    "bounds.theorem1_bound.us_per_call": ("us", "bounds.theorem1_bound", "us_per_call"),
    "bounds.ClassParams.us_per_call": ("us", "bounds.ClassParams", "us_per_call"),
    "bounds.feasible.calls_per_eval": ("count", "bounds.feasible", "calls_per_op"),
    "extremal.ternary_extremal.us_per_call": ("us", "extremal.ternary_extremal", "us_per_call"),
    "distributions.validate_distribution.calls_per_eval": (
        "count", "distributions.validate_distribution", "calls_per_op"),
    "bounds.ref_max_rel_err": ("rel", None, None),
    "cli.import_s": ("s", None, None),
    "cli.main_ms": ("ms", "cli.main", "median_ms"),
    "trace_overhead_frac": ("frac", None, None),
}
#: the issue's name for work_per_s on each workload
WORK_RATE_NAME = {"trials": "trials_per_s", "evaluations": "evals_per_s",
                  "processes": "processes_per_s"}

SETUP_REPS = 5  # fresh processes timed for setup_s; the median is reported
IMPORT_REPS = 5  # fresh processes each for cli.import_s, with and without the import
WARMUP_S = 1.0
TAIL_BEYOND = 10  # the tail is the value with this many samples above it
TRACE_SHARE = 0.4  # share of --seconds for each of the untraced and traced phases
#: seconds of untraced operations per block of the traced run; shorter than
#: the machine's slow spells, so a block and its traced rerun share a spell
TRACE_BLOCK_S = 0.25


class Tally:
    """Latencies and verdicts of the operations of one phase.

    Verdicts are cached per operation index (shared between phases): a rerun
    of an operation is checked by comparing its output with the first run's.
    """

    def __init__(self, wl, verdicts=None):
        self.wl = wl
        self.verdicts = {} if verdicts is None else verdicts
        self.latencies: list[float] = []
        self.by_op: dict[int, list[float]] = {}
        self.failed = 0
        self.reasons: Counter = Counter()
        self.rel_err = 0.0
        self.nondeterministic = 0

    def record(self, i, seconds, out, exc, extra_reasons=()):
        self.latencies.append(seconds)
        self.by_op.setdefault(i, []).append(seconds)
        if exc is None:
            digest = repr(self.wl.digest(out))
        else:
            digest = f"raise:{type(exc).__name__}"
        first = self.verdicts.get(i)
        if first is None:
            if exc is None:
                v = self.wl.check(i, out)
                reasons, rel_err = tuple(v.reasons), v.rel_err
            else:
                reasons, rel_err = (digest,), 0.0
            self.verdicts[i] = first = (digest, reasons, rel_err)
        elif first[0] != digest:
            self.nondeterministic += 1
        reasons = first[1] + tuple(extra_reasons)
        self.rel_err = max(self.rel_err, first[2])
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def best(self) -> dict[int, float]:
        """Each distinct operation's fastest run.  Shared machines switch
        between fast and slow spells that last seconds; the minimum over an
        operation's repeats, which are spread across the run, leaves the
        slow spells out."""
        return {i: min(times) for i, times in self.by_op.items()}


def closed_loop(wl, call, tally, ops, seconds=None, after=None):
    """Issue the operations whose indices ``ops`` yields, one after another,
    until it runs out or ``seconds`` of operation time have passed."""
    busy = 0.0
    while seconds is None or busy < seconds:
        k = next(ops, None)
        if k is None:
            break
        exc = out = None
        t0 = perf_counter()
        try:
            out = call(k)
        except Exception as e:  # a failed operation, counted and reported
            exc = e
        dt = perf_counter() - t0
        busy += dt
        tally.record(k, dt, out, exc, after() if after else ())


def recorded(ops, issued):
    """Yield the indices of ``ops``, appending each to ``issued`` as it is
    taken.  closed_loop takes an index only to issue it."""
    for k in ops:
        issued.append(k)
        yield k


def tail(latencies):
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_BEYOND samples above it, or the maximum in a shorter run."""
    s = sorted(latencies)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = len(s) - 1 - TAIL_BEYOND
    return s[k], 100.0 * (k + 1) / len(s), TAIL_BEYOND


def wall_seconds(argv) -> float:
    """Wall time of one fresh program process."""
    t0 = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=W.program_env(), stdout=subprocess.DEVNULL,
                   timeout=120, check=True)
    return perf_counter() - t0


def setup_seconds(name, seed) -> float:
    """Set-up time of the workload in a fresh process (probe.py)."""
    argv = [sys.executable, str(ROOT / "perfbench" / "probe.py"), name, str(seed)]
    out = subprocess.run(argv, cwd=ROOT, env=W.program_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def import_seconds():
    """Fresh ``import revpinsker`` minus a bare interpreter, medians of
    interleaved processes."""
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        bare.append(wall_seconds([sys.executable, "-c", "pass"]))
        full.append(wall_seconds([sys.executable, "-c", "import revpinsker"]))
    return statistics.median(full) - statistics.median(bare)


def warm_up(wl, call):
    """Run unchecked operations for WARMUP_S (one process for the CLI)."""
    deadline = perf_counter() + (0.0 if wl.name == "cli" else WARMUP_S)
    i = 0
    while i == 0 or perf_counter() < deadline:
        try:
            call(i % len(wl.ops))
        except Exception:  # counted when the timed loop reruns it
            pass
        i += 1


def peak_rss_mb(wl) -> float:
    # a CLI set-up probe imports what a CLI process imports and runs no
    # command, so it never sets the children's peak
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced_run(wl, seconds):
    setup = [setup_seconds(wl.name, wl.seed) for _ in range(SETUP_REPS)]
    warm_up(wl, wl.run)
    tally = Tally(wl)
    closed_loop(wl, wl.run, tally, wl.issue_order(), seconds=seconds)
    best = tally.best()
    tail_s, tail_pct, beyond = tail(best.values())
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": sum(map(wl.work, best)) / sum(best.values()),
        "call_p50_ms": 1e3 * statistics.median(best.values()),
        "call_tail_ms": 1e3 * tail_s,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb(wl),
    }
    detail = {
        WORK_RATE_NAME[wl.work_unit]: metrics["work_per_s"],
        "failed_frac": tally.failed / tally.attempted,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "latency_samples": len(best),
        "repeats_per_operation": tally.attempted / len(best),
        "setup_samples_s": setup,
    }
    return metrics, detail, [tally]


class RowCheck:
    """In-class check of every pair the traced sampler returned."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.rows = 0
        self.in_class = 0
        self.max_dev = 0.0

    def __call__(self):
        import numpy as np

        out = False
        while self.tracer.samples:
            params, p, q = self.tracer.samples.pop()
            dev = W.class_deviation_rows(params, np.atleast_2d(p), np.atleast_2d(q))
            ok = int(np.count_nonzero(dev <= W.CLASS_TOL))
            self.rows += dev.size
            self.in_class += ok
            self.max_dev = max(self.max_dev, float(dev.max()))
            out = out or ok < dev.size
        return ("sampled_out_of_class",) if out else ()


def traced_run(wl, seconds):
    """The same operations untraced and traced, in alternating blocks of
    TRACE_BLOCK_S, until the untraced blocks have run TRACE_SHARE of
    ``seconds``.  Each block is rerun traced straight after it, so the
    tracing overhead is not mixed up with the machine's slow spells."""
    warm_up(wl, wl.run_in_process)
    tracer = Tracer()
    rows = RowCheck(tracer)
    untraced = Tally(wl)
    traced = Tally(wl, untraced.verdicts)
    ops = wl.issue_order()
    while sum(untraced.latencies) < TRACE_SHARE * seconds:
        block = []
        closed_loop(wl, wl.run_in_process, untraced, recorded(ops, block),
                    seconds=TRACE_BLOCK_S)
        with tracer.installed():
            closed_loop(wl, lambda k: tracer.root(wl.run_in_process, k), traced,
                        iter(block), after=rows)
    n = traced.attempted
    metrics, unreached = layer_metrics(tracer, rows, n)
    metrics["bounds.ref_max_rel_err"] = max(untraced.rel_err, traced.rel_err)
    metrics["cli.import_s"] = import_seconds()
    fast, slow = untraced.best(), traced.best()  # the same operations
    metrics["trace_overhead_frac"] = sum(slow.values()) / sum(fast[i] for i in slow) - 1.0
    RESULTS.mkdir(exist_ok=True)
    tracer.save(RESULTS / f"trace-{wl.name}-seed{wl.seed}.npz")
    detail = {"operations_per_phase": n, "layers_absent": tracer.absent,
              "layers_unreached": unreached}
    return metrics, detail, [untraced, traced]


def layer_metrics(tracer, rows, ops):
    """Per-layer metrics from the spans of ``ops`` traced operations.  A layer
    those operations never reach reads 0 and is listed as unreached."""
    import numpy as np

    a = tracer.arrays()
    metrics, unreached = {}, []
    for metric, (_, span, stat) in PER_LAYER.items():
        if span is None:
            continue
        sel = a["name"] == tracer.names.index(span)
        dur = a["duration"][sel]
        if not dur.size:
            metrics[metric] = 0.0
            if span not in tracer.absent:
                unreached.append(metric)
            continue
        metrics[metric] = {
            "per_op": dur.sum() / ops,
            "self_per_op": a["self_time"][sel].sum() / ops,
            "ns_per_item": 1e9 * dur.sum() / max(1, int(a["items"][sel].sum())),
            "us_per_call": 1e6 * dur.mean(),
            "calls_per_op": dur.size / ops,
            "median_ms": 1e3 * float(np.median(dur)),
        }[stat]
    if rows.rows:
        metrics["oracle.in_class_frac"] = rows.in_class / rows.rows
        metrics["oracle.max_class_dev"] = min(rows.max_dev, sys.float_info.max)
    else:
        metrics["oracle.in_class_frac"] = metrics["oracle.max_class_dev"] = 0.0
        unreached += ["oracle.in_class_frac", "oracle.max_class_dev"]
    return {k: float(v) for k, v in metrics.items()}, unreached


def environment(load_at_start):
    import mpmath
    import numpy

    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       platform.processor())
    except OSError:
        cpu = platform.processor()
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "revpinsker").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(load_at_start),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (SRC / "revpinsker" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'revpinsker'}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload](args.seed)
    wl.setup()
    import revpinsker

    if Path(revpinsker.__file__).resolve().parent != SRC / "revpinsker":
        print(f"error: revpinsker loaded from {revpinsker.__file__}", file=sys.stderr)
        return 2
    wl.prepare()
    run = traced_run if args.trace else untraced_run
    metrics, detail, tallies = run(wl, args.seconds)
    detail.update(wl.ungated_report())
    units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else END_TO_END
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    nondeterministic = sum(t.nondeterministic for t in tallies)
    reasons = sum((t.reasons for t in tallies), Counter())
    detail = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "work_unit": wl.work_unit, "distinct_operations": len(wl.ops),
        "calls": tallies[-1].attempted, "failure_reasons": dict(reasons.most_common()),
        "nondeterministic_reruns": nondeterministic, **detail,
        "env": environment(load_at_start),
    }
    result = {
        # every output was checked, none was wrong, and every rerun of an
        # operation reproduced its first output
        "correct": failed == 0 and nondeterministic == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
