#!/usr/bin/env python3
"""Regenerate the small-n classification tables by brute force and print them.

Runs the full classifier for p = 2 and p = 3 over the base span (and beyond,
if asked), marking the classes that do not have p-adic type.  This is the
slow, assumption-free route; the structural classifier is cross-checked
against it on every row.
"""

from __future__ import annotations

import argparse
import sys

from pvanish.partitions import format_partition
from pvanish.vanishing import sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12, help="inclusive bound per prime")
    args = parser.parse_args()
    if args.max_n < 0:
        parser.error("--max-n must be >= 0: a negative bound scans nothing")

    disagreements = 0
    for p in (2, 3):
        print(f"p = {p}")
        for report in sweep(p, range(args.max_n + 1)):
            disagreements += len(report.counterexamples)
            row = "  ".join(
                format_partition(e.parts) + ("" if e.p_adic_type else "*")
                for e in report.vanishing
            )
            print(f"  n={report.n:<3d} {row}")
        print()
    print("(* marks classes that are not of p-adic type)")
    if disagreements:
        print(f"{disagreements} classifier disagreement(s) found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
