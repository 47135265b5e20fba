#!/usr/bin/env python3
"""Hunt for counterexamples to the p >= 5 vanishing conjectures.

Scans every symmetric group up to the bound: brute-force classifies the
p-vanishing cycle types, then checks them against the conjectured p-adic-type
characterization and the small-part sum bound.  Prints one summary line per
prime and exits nonzero if anything was found.  A clean run certifies the
scanned range only; it proves nothing beyond it.
"""

from __future__ import annotations

import argparse
import sys

from pvanish.cli import _parse_primes
from pvanish.padic import p_adic_context
from pvanish.vanishing import equivalence_consistent, summary, sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--p", type=_parse_primes, default="5,7", help='comma list of primes >= 5, e.g. "5,7,11"'
    )
    parser.add_argument("--max-n", type=int, default=14, help="inclusive size bound")
    args = parser.parse_args()
    if args.max_n < 0:
        parser.error("--max-n must be >= 0: a negative bound scans nothing")
    if any(p < 5 for p in args.p):
        parser.error("conjecture scans apply to p >= 5")
    for p in args.p:
        try:
            p_adic_context(0, p)  # the prime check every sweep makes
        except ValueError as exc:
            parser.error(str(exc))

    found = 0
    for p in args.p:
        reports = list(sweep(p, range(args.max_n + 1), conjecture=True))
        print(summary(p, f"n<={args.max_n}", reports))
        for item in (c for r in reports for c in r.counterexamples):
            found += 1
            print(f"  {item}")
        if not equivalence_consistent(reports):
            found += 1
            print("  inconsistent: sum bound held but type classification failed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
