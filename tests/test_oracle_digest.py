"""Bit-identity guard for the oracle's hot path.

``tests/golden/oracle_digest.json`` holds one sha256 per setting:

- ``sample_batch``: the bytes of ``_sample_batch``'s p and q at every
  ``default_grid()`` point, per (n, trials, steps);
- ``search_sup``: the outcome's ``best_value``, ``bound``, ``violations``,
  ``history`` and best pair, written as ``float.hex``, at every grid point,
  per (generator, n, trials).

Only tv and chi2 are searched, because their f is plain arithmetic: numpy's
SIMD ``log`` and ``power`` may differ by one ulp from host to host.  A
change that keeps the RNG stream and the float operations passes; to accept
a deliberate change of stream, regenerate the file with

    PYTHONPATH=src python3 tests/test_oracle_digest.py > tests/golden/oracle_digest.json
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from revpinsker import (
    SearchConfig,
    chi2_generator,
    default_grid,
    search_sup,
    ternary_extremal,
    tv_generator,
)
from revpinsker.oracle import _sample_batch

GOLDEN = Path(__file__).resolve().parent / "golden" / "oracle_digest.json"

SUPPORT_SIZES = (3, 6, 12)
TRIALS = (1, 7, 2000)
STEPS = (0, 1, 4)
GENERATORS = (tv_generator, chi2_generator)


def _sample_batch_digests() -> dict[str, str]:
    grid = default_grid()
    bases = [ternary_extremal(params) for params in grid]
    digests = {}
    for n in SUPPORT_SIZES:
        for trials in TRIALS:
            for steps in STEPS:
                h = hashlib.sha256()
                for i, (params, base) in enumerate(zip(grid, bases)):
                    p, q = _sample_batch(params, base, n, trials,
                                         np.random.default_rng(i), steps)
                    h.update(p.tobytes())
                    h.update(q.tobytes())
                digests[f"n={n} trials={trials} steps={steps}"] = h.hexdigest()
    return digests


def _outcome_line(out) -> str:
    history = ";".join(f"{rows},{best.hex()},{v}" for rows, best, v in out.history)
    pair = "|".join(",".join(x.hex() for x in d.values) for d in out.best_pair)
    return (f"{out.best_value.hex()} {out.bound.hex()} {out.violations} "
            f"{history} {pair}\n")


def _search_sup_digests() -> dict[str, str]:
    grid = default_grid()
    digests = {}
    for make in GENERATORS:
        gen = make()
        for n in SUPPORT_SIZES:
            for trials in TRIALS:
                h = hashlib.sha256()
                for i, params in enumerate(grid):
                    out = search_sup(gen, params, SearchConfig(n, trials, i))
                    h.update(_outcome_line(out).encode())
                digests[f"{gen.name} n={n} trials={trials}"] = h.hexdigest()
    return digests


def digests() -> dict[str, dict[str, str]]:
    return {"sample_batch": _sample_batch_digests(), "search_sup": _search_sup_digests()}


def test_oracle_outputs_match_the_pinned_digests():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    for part in ("sample_batch", "search_sup"):
        mismatched = [k for k in expected[part] if got[part].get(k) != expected[part][k]]
        assert not mismatched, (part, mismatched)
        assert set(got[part]) == set(expected[part])


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
