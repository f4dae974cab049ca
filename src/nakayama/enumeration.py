"""Exhaustive generation of isomorphism classes and the census routes.

Cyclic algebras are enumerated one representative per rotation class
(canonical forms only).  A cap above the default 2n-1 adds only algebras of
infinite global dimension: (a) an entry of at least 2n makes every entry
exceed n, as entries drop by at most 1 per step and each vertex is at most
n - 1 steps after the largest; (b) then, unless A is selfinjective, entry j
of eps(A) counts the intervals tiling the projective of length c > n at
interval top j, which the ``filtration`` docstring puts at
(c - 1) // n * r + (k - j) mod r + 1 > r, so eps(A) is cyclic with every
entry above its vertex count r; (c) so by induction the tower never turns
linear and, as the vertex count drops at each step, ends selfinjective.  By
the tower theorem (finite gldim iff the tower ends linear; E. Sen, on
syzygy filtrations of cyclic Nakayama algebras), which the ``epsilon``
suite checks only below the cap, A has infinite gldim.  The census counts
the algebras attaining Brown's bound through three independent routes:
brute-force homology over the enumeration (fed to ``_MaximalTally`` by the
verify sweep, see ``nakayama.verify.census``), direct enumeration of chain
systems, and closed-form binomials summing to Fibonacci numbers.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields
from math import comb

from .core import (CYCLIC, LINEAR, KupischSeries, RelationSystem, canonical_form,
                   check_kind, relations_to_kupisch)
from .errors import NakayamaError
from .homology import HomologyReport


def fibonacci(k: int) -> int:
    """F_0 = 0, F_1 = 1, F_{k+1} = F_k + F_{k-1}; exact integers."""
    if k < 0:
        raise NakayamaError(f"index must be nonnegative, got {k}")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def count_closed_form(n: int, r: int, kind: str) -> int:
    """Number of chain systems with r relations on n vertices.

    Cyclic: binomial(n+r-2, 2r-1).  Linear: binomial(n+r-3, 2r-2), where r
    counts the implicit sink relation as well.
    """
    if n < 2 or not 1 <= r <= n - 1:
        raise NakayamaError(f"need n >= 2 and 1 <= r <= n-1, got n={n}, r={r}")
    if check_kind(kind) == CYCLIC:
        return comb(n + r - 2, 2 * r - 1)
    return comb(n + r - 3, 2 * r - 2)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def enumerate_linear(n: int):
    """All connected linear series with n vertices (count: Catalan(n-1)).

    Built backwards from c_n = 1 with c_i in [2, min(c_{i+1} + 1, n - i + 1)].
    """
    if n < 2:
        raise NakayamaError(f"need n >= 2, got {n}")

    def extend(suffix):
        i = n - len(suffix)
        if i == 0:
            yield KupischSeries(LINEAR, suffix)
            return
        for v in range(2, min(suffix[0] + 1, n - i + 1) + 1):
            yield from extend((v,) + suffix)

    yield from extend((1,))


def enumerate_cyclic(n: int, cap: int | None = None):
    """All cyclic series with n vertices and entries <= cap, canonical forms only.

    Exactly one representative per rotation class is produced; selfinjective
    classes are included (flagged by ``is_selfinjective``).  Default cap is
    2n - 1; a cap below 2 is raised to 2.
    """
    if n < 1:
        raise NakayamaError(f"need n >= 1, got {n}")
    for first in range(2, _cyclic_cap(n, cap) + 1):
        yield from _cyclic_with_first(n, first)


def _cyclic_cap(n: int, cap: int | None) -> int:
    return max(2 * n - 1 if cap is None else cap, 2)


def _cyclic_with_first(n: int, first: int):
    """The canonical cyclic series with n vertices whose first (largest) entry is ``first``."""

    def is_canonical(c):
        # c starts with its maximum; compare against rotations that also do
        for j in range(1, n):
            if c[j] == first and c[j:] + c[:j] > c:
                return False
        return True

    def extend(prefix):
        if len(prefix) == n:
            if first >= prefix[-1] - 1 and is_canonical(prefix):
                yield KupischSeries(CYCLIC, prefix)
            return
        # canonical forms start with the maximum entry, so never exceed it
        for v in range(max(2, prefix[-1] - 1), first + 1):
            yield from extend(prefix + (v,))

    yield from extend((first,))


# ---------------------------------------------------------------------------
# Chain systems
# ---------------------------------------------------------------------------

class ChainSystem(RelationSystem):
    """A chain-normalized relation system: on a cycle the first start is 1, every end at most n."""

    def to_kupisch(self) -> KupischSeries:
        return canonical_form(relations_to_kupisch(self))


def is_chain(system: RelationSystem) -> bool:
    """Does some labelling of the algebra present its relations as a chain?

    In a chain, consecutive relations share an arrow (next start <= end)
    and relations two apart are disjoint (end < start of the second-next).
    The ``RelationSystem`` invariants make the ends increase along the
    starts, also from the last cyclic relation to the first shifted by n.
    A linear system is tested as stored.  A cyclic one is read once around
    the cycle, (last, first + n) included: exactly one consecutive pair
    may share no arrow, and the chain starts after it; pairs two apart
    across that gap are disjoint anyway.
    """
    return _is_chain(system.kind, system.n, system.relations)


def _is_chain(kind: str, n: int, rel) -> bool:
    """``is_chain`` on the sorted (start, end) pairs of an irredundant system."""
    r, cyclic = len(rel), kind == CYCLIC
    ring = [*rel, *((s + n, e + n) for s, e in rel)] if cyclic else rel
    gaps = sum(e < s for (_, e), (s, _) in zip(ring[:r], ring[1:]))
    return gaps == (1 if cyclic else 0) and all(
        e < s for (_, e), (s, _) in zip(ring[:r], ring[2:]))


def enumerate_chains(n: int, r: int, kind: str):
    """All chain systems with n vertices and r relations, normalized labels.

    The count equals ``count_closed_form(n, r, kind)``, which also checks the arguments.
    """
    count_closed_form(n, r, kind)
    stored = r if kind == CYCLIC else r - 1
    last_end = n if kind == CYCLIC else n - 1

    def extend(pairs):
        i = len(pairs)
        if i == stored:
            yield ChainSystem(kind, n, pairs)
            return
        if i == 0:
            lo = hi = 1
            if kind == LINEAR:
                hi = last_end - 1
            prev_end = 0
        else:
            prev_start, prev_end = pairs[-1]
            # next start: after this one, not past its end (overlap/touch),
            # and past the end of the one before the previous (separation)
            lo = max(prev_start, pairs[-2][1] if i >= 2 else 0) + 1
            hi = prev_end
        for s in range(lo, hi + 1):
            for e in range(max(s + 1, prev_end + 1), last_end + 1):
                yield from extend(pairs + ((s, e),))

    yield from extend(())


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def is_maximal(report: HomologyReport) -> bool:
    """Quasi-hereditary with global dimension attaining Brown's bound.

    The bound is lambda_1 + 1 for cyclic algebras and lambda_1 for linear
    ones.  Quasi-heredity is part of the condition: there are algebras of
    finite global dimension equal to lambda_1 + 1 that are not
    quasi-hereditary (smallest at n = 5) and those are not counted.
    """
    return report.quasi_hereditary and report.gldim == report.brown_bound


@dataclass(frozen=True)
class CensusRow:
    n: int
    kind: str
    r: "int | None"  # None marks the per-n total row
    enumerated: int
    closed_form: "int | None"
    fibonacci: "int | None"
    violations: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class CensusTable:
    kind: str
    rows: tuple[CensusRow, ...]

    @property
    def violations(self) -> list[str]:
        return [v for row in self.rows for v in row.violations]

    def counts(self) -> dict[int, int]:
        """Total maximal count per n."""
        return {row.n: row.enumerated for row in self.rows if row.r is None}

    def to_dict(self) -> dict:
        """Each row's ``CensusRow`` fields; the one tuple, the violations, becomes a list."""
        listed = lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items}
        return {"kind": self.kind, "rows": [asdict(row, dict_factory=listed) for row in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv(self) -> str:
        """One column per ``CensusRow`` field, in order; the violations column is their count."""
        lines = [",".join(f.name for f in fields(CensusRow))]
        for row in self.rows:
            values = (len(x) if isinstance(x, tuple) else x for x in astuple(row))
            lines.append(",".join("" if x is None else str(x) for x in values))
        return "\n".join(lines) + "\n"


class _MaximalTally:
    """The brute-force census route for one n and kind, fed one algebra at a time.

    ``rows`` checks it against the chain systems, the closed forms and the
    Fibonacci number; the last (total) row carries the disagreements.  The
    count and the set are compared with the chain forms whose entries fit
    the cyclic ``cap`` (linear series are never capped), and the Fibonacci
    total only when the cap is at least 2n - 1; a shard's tally needs no cap.
    """

    def __init__(self, n: int, kind: str, cap: "int | None" = None):
        self.n, self.kind, self.cap = n, kind, _cyclic_cap(n, cap if kind == CYCLIC else None)
        self.by_r, self.classes, self.violations = Counter(), set(), []

    def add(self, series: KupischSeries, maximal: bool, r: int, chain_violations: list) -> None:
        """Count ``series`` if maximal; the chain suite's violations on it join the total row."""
        self.violations += chain_violations
        if maximal:
            self.by_r[r] += 1
            self.classes.add(series.c)

    def merge(self, later: "_MaximalTally") -> None:
        """Append the tally of the enumeration's next stretch."""
        self.by_r.update(later.by_r)
        self.classes |= later.classes
        self.violations += later.violations

    def rows(self) -> list:
        n, kind, violations = self.n, self.kind, list(self.violations)
        rows, chain_set = [], set()
        for r in range(1, n):
            expected = count_closed_form(n, r, kind)
            chains_r = [ch.to_kupisch().c for ch in enumerate_chains(n, r, kind)]
            if len(chains_r) != expected:
                violations.append(
                    f"n={n} r={r} {kind}: {len(chains_r)} chains != closed form {expected}"
                )
            chains_r = [c for c in chains_r if c[0] <= self.cap]  # c[0] is the largest entry
            chain_set.update(chains_r)
            maximal = self.by_r[r]
            if maximal != len(chains_r):
                violations.append(
                    f"n={n} r={r} {kind}: {maximal} maximal != {len(chains_r)} chains"
                )
            rows.append(CensusRow(n, kind, r, maximal, expected, None))
        if chain_set != self.classes:
            extra = sorted(chain_set ^ self.classes)
            violations.append(f"n={n} {kind}: chain/maximal sets differ at {extra}")
        total = sum(self.by_r.values())
        fib = fibonacci(2 * n - 2 if kind == CYCLIC else 2 * n - 3)
        if total != fib and self.cap >= 2 * n - 1:
            violations.append(f"n={n} {kind}: total {total} != Fibonacci {fib}")
        rows.append(CensusRow(n, kind, None, total, None, fib, tuple(violations)))
        return rows

