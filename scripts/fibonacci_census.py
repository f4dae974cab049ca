#!/usr/bin/env python3
"""Reproduce the maximal-global-dimension census tables.

Counts, per vertex count n, the isomorphism classes of connected Nakayama
algebras that are quasi-hereditary with global dimension attaining Brown's
bound, cross-checked against chain enumeration, binomial closed forms, and
Fibonacci numbers.  Writes the combined table as CSV.  Exits 2 when the
routes disagree (a counterexample) and 1 on a usage error.

Usage:
  python scripts/fibonacci_census.py --n-max 7
  python scripts/fibonacci_census.py --n-max 8 --out census.csv
"""

import sys
import time

from nakayama import CYCLIC, LINEAR, census
from nakayama.cli import _Parser  # usage errors exit 1; 2 means a counterexample
from nakayama.errors import NakayamaError


def main() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--cap", type=int, default=None,
                        help="cyclic entry cap (default 2n-1); below 2n-1 the counts are"
                             " checked against the chain forms that fit it, not Fibonacci")
    parser.add_argument("--out", default=None, help="write CSV here instead of stdout")
    args = parser.parse_args()
    if args.n_max < 2:  # no algebra to count, which would read as a clean table
        parser.error(f"--n-max must be at least 2, got {args.n_max}")

    chunks = []
    for kind, top in ((CYCLIC, args.n_max), (LINEAR, min(args.n_max + 3, 10))):
        start = time.time()
        try:
            table = census(range(2, top + 1), kind, cap=args.cap)
        except NakayamaError as exc:  # an n or a cap out of range, refused before any sweep
            parser.error(str(exc))
        elapsed = time.time() - start
        counts = table.counts()
        print(f"{kind}: " + ", ".join(f"n={n}: {counts[n]}" for n in sorted(counts))
              + f"   [{elapsed:.2f}s]", file=sys.stderr)
        if table.violations:
            for v in table.violations:
                print(f"  !! {v}", file=sys.stderr)
            return 2
        chunks.append(table.to_csv())

    merged = chunks[0] + "".join(
        "\n".join(chunk.splitlines()[1:]) + "\n" for chunk in chunks[1:]
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(merged)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(merged, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
