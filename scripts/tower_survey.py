#!/usr/bin/env python3
"""Survey the reduction towers of all small cyclic Nakayama algebras.

Tabulates, per vertex count, how deep the iterated syzygy-filtered
reduction goes before terminating and how often each terminal occurs,
split by finite versus infinite global dimension.  A quick way to see the
finite/infinite dichotomy in action.  Exits 2 when some n has a class
whose terminal disagrees with its global dimension (linear exactly when
finite), and 1 on a usage error.

Usage:
  python scripts/tower_survey.py --n-max 6
  python scripts/tower_survey.py --n-max 4 --cap 12
"""

import sys
from collections import Counter

from nakayama import INFINITE, enumerate_cyclic, epsilon_tower, homology_report
from nakayama.cli import _Parser  # usage errors exit 1; 2 means a counterexample
from nakayama.errors import NakayamaError
from nakayama.filtration import TERMINAL_LINEAR


def main() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--cap", type=int, default=None,
                        help="cyclic entry cap (default 2n-1); a higher cap adds only classes of"
                             " infinite global dimension, whose towers end selfinjective")
    args = parser.parse_args()
    if args.n_max < 1:  # no algebra to survey, which would read as a clean survey
        parser.error(f"--n-max must be at least 1, got {args.n_max}")
    try:
        return survey(args.n_max, args.cap)
    except NakayamaError as exc:  # the cap, refused at the first enumeration's first step
        parser.error(str(exc))


def survey(n_max, cap) -> int:
    """Print one line per n <= n_max; 2 when some n has a mismatch, else 0."""
    status = 0
    for n in range(1, n_max + 1):
        depths = Counter()
        terminals = Counter()
        mismatches = 0
        total = 0
        for series in enumerate_cyclic(n, cap):
            if series.is_selfinjective:
                continue
            total += 1
            tower = epsilon_tower(series)
            depths[tower.depth] += 1
            terminals[tower.terminal] += 1
            finite = homology_report(series).gldim != INFINITE
            if (tower.terminal == TERMINAL_LINEAR) != finite:
                mismatches += 1
        depth_txt = " ".join(f"d{d}:{c}" for d, c in sorted(depths.items()))
        term_txt = " ".join(f"{t}:{c}" for t, c in sorted(terminals.items()))
        print(f"n={n}: {total} non-selfinjective classes | {term_txt} | {depth_txt}"
              + (f" | MISMATCHES {mismatches}" if mismatches else ""))
        if mismatches:
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
