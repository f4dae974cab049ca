"""Exhaustive generation of isomorphism classes and the counting census.

Cyclic algebras are enumerated one representative per rotation class
(canonical forms only); the default entry cap 2n-1 is large enough that
every quasi-hereditary algebra attaining Brown's bound appears (a chain
presentation has relation lengths at most n and walk distances at most
n-1).  The census counts, through three independent routes, the algebras
whose global dimension attains Brown's bound: brute-force homology over
the enumeration, direct enumeration of chain systems, and closed-form
binomials summing to Fibonacci numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb

from .core import (
    CYCLIC,
    LINEAR,
    KupischSeries,
    RelationSystem,
    canonical_form,
    kupisch_to_relations,
    relations_to_kupisch,
)
from .errors import CensusMismatch
from .homology import HomologyReport, homology_report


def fibonacci(k: int) -> int:
    """F_0 = 0, F_1 = 1, F_{k+1} = F_k + F_{k-1}; exact integers."""
    if k < 0:
        raise ValueError(f"index must be nonnegative, got {k}")
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
        raise ValueError(f"need n >= 2 and 1 <= r <= n-1, got n={n}, r={r}")
    if kind == CYCLIC:
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
        raise ValueError(f"need n >= 2, got {n}")

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
        raise ValueError(f"need n >= 1, got {n}")
    cap = max(2 * n - 1 if cap is None else cap, 2)

    def is_canonical(c):
        # c starts with its maximum; compare against rotations that also do
        first = c[0]
        for j in range(1, n):
            if c[j] == first and c[j:] + c[:j] > c:
                return False
        return True

    def extend(prefix):
        if len(prefix) == n:
            if prefix[0] >= prefix[-1] - 1 and is_canonical(prefix):
                yield KupischSeries(CYCLIC, prefix)
            return
        # canonical forms start with the maximum entry, so never exceed it
        for v in range(max(2, prefix[-1] - 1), min(cap, prefix[0]) + 1):
            yield from extend(prefix + (v,))

    for first in range(2, cap + 1):
        yield from extend((first,))


# ---------------------------------------------------------------------------
# Chain systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSystem:
    """A relation system in chain-normalized form.

    ``endpoints`` lists the stored relations as (start, end) with plain
    integer ends; for the cyclic kind the first start is pinned at 1 and
    all ends are at most n.  ``r`` is the conventional relation count
    (stored + 1 for linear).
    """

    kind: str
    n: int
    endpoints: tuple[tuple[int, int], ...]

    @property
    def r(self) -> int:
        return len(self.endpoints) + (1 if self.kind == LINEAR else 0)

    def to_relation_system(self) -> RelationSystem:
        return RelationSystem(self.kind, self.n, self.endpoints)

    def to_kupisch(self) -> KupischSeries:
        return canonical_form(relations_to_kupisch(self.to_relation_system()))


def _chain_conditions(starts, ends, n, last_end) -> bool:
    """The overlap/separation pattern on already-sorted endpoint lists.

    Consecutive relations must overlap or touch (next start <= previous
    end) while relations two apart must be disjoint (end < start of the
    second-next); starts and ends are strictly increasing with ends capped
    by ``last_end``.
    """
    r = len(starts)
    if any(ends[i] < starts[i] + 1 for i in range(r)):
        return False
    if any(starts[i] >= starts[i + 1] for i in range(r - 1)):
        return False
    if any(ends[i] >= ends[i + 1] for i in range(r - 1)):
        return False
    if starts and (starts[-1] > n or ends[-1] > last_end):
        return False
    if any(starts[i + 1] > ends[i] for i in range(r - 1)):
        return False
    if any(ends[i] >= starts[i + 2] for i in range(r - 2)):
        return False
    return True


def is_chain(system: RelationSystem) -> bool:
    """Does some labelling of the algebra present its relations as a chain?

    Cyclic systems are tested in every rotation that pins a relation start
    at vertex 1 (ends then read as plain integers, required <= n); the
    rotation exhibiting the chain need not be the one with the smallest
    start.  Linear systems are tested as stored, with ends < n; a linear
    system with no stored relations (path algebra) is a chain.
    """
    rel = system.relations
    n = system.n
    if system.kind == LINEAR:
        starts = [s for s, _ in rel]
        ends = [e for _, e in rel]
        return _chain_conditions(starts, ends, n, n - 1)
    for s0, _ in rel:
        shifted = sorted(
            ((s - s0) % n + 1, (s - s0) % n + 1 + (e - s)) for s, e in rel
        )
        starts = [s for s, _ in shifted]
        ends = [e for _, e in shifted]
        if starts[0] == 1 and _chain_conditions(starts, ends, n, n):
            return True
    return False


def enumerate_chains(n: int, r: int, kind: str):
    """All chain systems with n vertices and r relations, normalized labels.

    The count equals ``count_closed_form(n, r, kind)``.
    """
    if n < 2 or not 1 <= r <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= r <= n-1, got n={n}, r={r}")
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

    if stored == 0:
        yield ChainSystem(kind, n, ())
        return
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
        return {
            "kind": self.kind,
            "rows": [
                {
                    "n": row.n,
                    "kind": row.kind,
                    "r": row.r,
                    "enumerated": row.enumerated,
                    "closed_form": row.closed_form,
                    "fibonacci": row.fibonacci,
                    "violations": list(row.violations),
                }
                for row in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv(self) -> str:
        lines = ["n,kind,r,enumerated,closed_form,fibonacci,violations"]
        for row in self.rows:
            lines.append(
                ",".join(
                    "" if x is None else str(x)
                    for x in (
                        row.n, row.kind, row.r, row.enumerated,
                        row.closed_form, row.fibonacci, len(row.violations),
                    )
                )
            )
        return "\n".join(lines) + "\n"


class _MaximalTally:
    """The brute-force census route for one n and kind, fed one algebra at a time.

    ``rows`` checks it against the chain systems, the closed forms and the
    Fibonacci number; the last (total) row carries the disagreements.
    """

    def __init__(self, n: int, kind: str):
        self.n, self.kind = n, kind
        self.by_r, self.classes, self.violations = {}, set(), []

    def add(self, series: KupischSeries, maximal: bool, r: int, chain: bool) -> None:
        if maximal != chain:
            self.violations.append(f"{series}: maximal={maximal} but chain={chain}")
        if maximal:
            self.by_r[r] = self.by_r.get(r, 0) + 1
            self.classes.add(series.c)

    def rows(self) -> list:
        n, kind, violations = self.n, self.kind, self.violations
        rows, chain_set = [], set()
        for r in range(1, n):
            expected = count_closed_form(n, r, kind)
            chains_r = [ch.to_kupisch().c for ch in enumerate_chains(n, r, kind)]
            chain_set.update(chains_r)
            if len(chains_r) != expected:
                violations.append(
                    f"n={n} r={r} {kind}: {len(chains_r)} chains != closed form {expected}"
                )
            maximal = self.by_r.get(r, 0)
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
        if total != fib:
            violations.append(f"n={n} {kind}: total {total} != Fibonacci {fib}")
        rows.append(CensusRow(n, kind, None, total, None, fib, tuple(violations)))
        return rows


def census(
    ns,
    kind: str,
    cap: "int | None" = None,
    strict: bool = False,
) -> CensusTable:
    """Count maximal-global-dimension classes per n and cross-check all routes.

    For each n the brute-force count over the enumeration, the number of
    chain systems, and the closed-form binomials must agree per relation
    count r, the canonical forms produced by both routes must coincide as
    sets, the per-algebra equivalence (maximal iff chain) must hold, and
    the total must be the Fibonacci number F_{2n-2} (cyclic) or F_{2n-3}
    (linear).  The homology property theorems (Madsen, parity, the
    inequalities) are not re-checked here; ``nakayama verify`` sweeps them.
    Disagreements are recorded in the rows' ``violations``; with ``strict``
    they raise CensusMismatch instead.
    """
    rows = []
    for n in ns:
        if n < 2:
            raise ValueError(f"census needs n >= 2, got {n}")
        tally = _MaximalTally(n, kind)
        for series in enumerate_cyclic(n, cap) if kind == CYCLIC else enumerate_linear(n):
            system = kupisch_to_relations(series)
            tally.add(series, is_maximal(homology_report(series)), system.r, is_chain(system))
        rows.extend(tally.rows())
    table = CensusTable(kind, tuple(rows))
    if strict and table.violations:
        raise CensusMismatch(table.violations)
    return table
