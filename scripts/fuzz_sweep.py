#!/usr/bin/env python3
"""Randomized soundness sweep over the default parameter grid.

For every grid point and every stock divergence, searches for in-class pairs
whose divergence exceeds the optimal bound. Prints one line per divergence
with the worst relative gap (best_value - bound)/bound; the search is seeded
with the extremal pair, so gaps sit at rounding level (~1e-13) when the bound
is tight. Exits 1 if any pair beats the bound beyond rounding
(``revpinsker.oracle.TOLERANCE``, relative once the bound exceeds 1).
"""

import argparse

from revpinsker import (
    SearchConfig,
    chi2_generator,
    default_grid,
    hellinger_generator,
    kl_generator,
    search_sup,
    tv_generator,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--support-size", type=int, default=6)
    args = parser.parse_args(argv)

    generators = [kl_generator(), tv_generator(), chi2_generator(),
                  hellinger_generator(0.5), hellinger_generator(3)]
    cfg = SearchConfig(support_size=args.support_size, trials=args.trials,
                       seed=args.seed)
    grid = default_grid()
    total_violations = 0
    for gen in generators:
        worst_gap = float("-inf")
        for params in grid:
            out = search_sup(gen, params, cfg)
            total_violations += out.violations
            if out.bound > 0:
                worst_gap = max(worst_gap, (out.best_value - out.bound) / out.bound)
        print(f"{gen.name:>14}: {len(grid)} grid points, "
              f"worst relative gap {worst_gap:+.3e}")
    print(f"violations: {total_violations}")
    return 1 if total_violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
