#!/usr/bin/env python3
"""Emit CSV tables comparing the optimal bounds against prior comparators.

Writes one table per comparator (simic, sason-chi2, sason-renyi, verdu) to
--outdir, each over the default parameter grid and byte-identical to what
`revpinsker compare` prints, and prints a one-line summary of the worst and
mean prior/new ratio per comparator.  Runs in process.
"""

import argparse
import pathlib

from revpinsker.cli import COMPARE_HEADER, comparison_rows, csv_row

COMPARATORS = ("simic", "sason-chi2", "sason-renyi", "verdu")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("tables"))
    parser.add_argument("--alpha", type=float, default=2.0,
                        help="Renyi order for the sason-renyi table")
    args = parser.parse_args(argv)

    # every row first, so a domain error writes no table
    tables = {c: list(comparison_rows(c, args.alpha)) for c in COMPARATORS}
    args.outdir.mkdir(parents=True, exist_ok=True)
    for comparator, rows in tables.items():
        path = args.outdir / f"compare_{comparator.replace('-', '_')}.csv"
        lines = [COMPARE_HEADER] + [csv_row(row) for row in rows]
        path.write_text("\n".join(lines) + "\n")

        ratios = [row[5] for row in rows if row[5] != float("inf")]
        finite = f"max ratio {max(ratios):.4g}, mean {sum(ratios) / len(ratios):.4g}"
        print(f"{comparator:>12}: {len(ratios)} finite rows, {finite} -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
