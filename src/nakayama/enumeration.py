"""Exhaustive generation of isomorphism classes and the census's counting routes.

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
the algebras attaining Brown's bound through three independent routes; two
are here: direct enumeration of chain systems, and closed-form binomials
summing to Fibonacci numbers.  The census reads the chain systems as the
bare pair tuples of ``_chain_pairs``; ``enumerate_chains`` validates each as
a ``ChainSystem``.  The third route, the brute-force tally of
``HomologyReport.is_maximal`` over the enumeration, is in ``nakayama.verify``.

Each generator is one loop over a stack of partial tuples that pushes a tuple's children in
reverse, so a cyclic shard comes out in increasing lexicographic order, ``_linear_series`` in
increasing order of the reversed tuple and ``_chain_pairs`` in increasing order of the pair
tuples; the shards, ``--list`` and pinned digests rest on this order.  The stack holds
O(depth x branching) tuples, so the generators are lazy and unbounded at any n.
"""

from __future__ import annotations

from math import comb
from operator import index

from .core import (CYCLIC, LINEAR, KupischSeries, RelationSystem, canonical_form, check_kind,
                   relations_to_kupisch)
from .errors import NakayamaError


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
    """All connected linear series with n vertices (count: Catalan(n-1))."""
    for c in _linear_series(n):
        yield KupischSeries(LINEAR, c)


def _linear_series(n: int):
    """The c of ``enumerate_linear``, built backwards from c_n = 1 with c_i in
    [2, min(c_{i+1} + 1, n - i + 1)]: valid by construction, so not validated.
    """
    if (n := index(n)) < 2:
        raise NakayamaError(f"need n >= 2, got {n}")
    stack = [(1,)]
    while stack:
        suffix = stack.pop()
        if len(suffix) < n:  # c_i <= min(c_{i+1}, n - i) + 1, and n - i = len(suffix)
            stack.extend((v,) + suffix for v in range(min(suffix[0], len(suffix)) + 1, 1, -1))
        else:
            yield suffix


def enumerate_cyclic(n: int, cap: int | None = None):
    """All cyclic series with n vertices and entries <= cap, canonical forms only.

    Exactly one representative per rotation class is produced; selfinjective
    classes are included (flagged by ``is_selfinjective``).  Default cap is
    2n - 1; a cap below 2 is raised to 2, and a cap above 127 is refused at the first ``next``.
    """
    if n < 1:
        raise NakayamaError(f"need n >= 1, got {n}")
    for first in range(2, _cyclic_cap(n, cap) + 1):
        for c in _cyclic_with_first(n, first):
            yield KupischSeries(CYCLIC, c)


_SWEEP_LIMIT = 64  # the largest n a sweep takes: the cyclic classes grow about 4x per vertex


def _cyclic_cap(n: int, cap: int | None) -> int:
    if cap is not None and cap > 2 * _SWEEP_LIMIT - 1:  # the default cap at the largest sweep
        raise NakayamaError(f"cap must be at most {2 * _SWEEP_LIMIT - 1}, got {cap}")
    return max(2 * n - 1 if cap is None else cap, 2)


def _cyclic_with_first(n: int, first: int):
    """The c of the canonical cyclic series with n vertices whose first (largest) entry is
    ``first``; every step keeps c_{v+1} >= c_v - 1, the wrap c_1 = first >= c_n too: unvalidated.
    """

    def is_canonical(c):
        # c starts with its maximum; compare against rotations that also do
        for j in range(1, n):
            if c[j] == first and c[j:] + c[:j] > c:
                return False
        return True

    stack = [(first,)]
    while stack:
        prefix = stack.pop()
        if len(prefix) < n:  # canonical forms start with the maximum entry, so never exceed it
            stack.extend(prefix + (v,) for v in range(first, max(2, prefix[-1] - 1) - 1, -1))
        elif is_canonical(prefix):
            yield prefix


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
    across that gap are disjoint anyway.  One pass returns at the first
    overlap two apart and at the first gap too many.  Any object with
    ``kind``, ``n`` and sorted, irredundant ``relations`` will do.
    """
    kind, n, rel = system.kind, system.n, system.relations
    cyclic = kind == CYCLIC  # the gaps allowed: one on a cycle, none on a line
    ring = [*rel, *((s + n, e + n) for s, e in rel[:2])] if cyclic else rel
    gaps, last = 0, len(ring) - 2  # a pair two apart exists for i < last
    for i in range(len(rel) if cyclic else len(rel) - 1):
        e = ring[i][1]
        if e < ring[i + 1][0]:
            if gaps == cyclic:
                return False
            gaps += 1
        if i < last and e >= ring[i + 2][0]:
            return False
    return gaps == cyclic


def enumerate_chains(n: int, r: int, kind: str):
    """All chain systems with n vertices and r relations, normalized labels, validated.

    The count equals ``count_closed_form(n, r, kind)``, which also checks the arguments.
    """
    count_closed_form(n, r, kind)
    for pairs in _chain_pairs(n, r, kind):
        yield ChainSystem(kind, n, pairs)


def _chain_pairs(n: int, r: int, kind: str):
    """The sorted (start, end) pair tuples of ``enumerate_chains``, in its order, bare."""
    stored = r if kind == CYCLIC else r - 1
    last_end = n if kind == CYCLIC else n - 1
    # a cycle's first start is 1, a line's any start before its last arrow
    stack = [((s, e),) for s in range(1 if kind == CYCLIC else last_end - 1, 0, -1)
             for e in range(last_end, s, -1)] if stored else [()]
    while stack:
        pairs = stack.pop()
        if (i := len(pairs)) == stored:
            yield pairs
            continue
        prev_start, prev_end = pairs[-1]
        # next start: after this one, not past its end (overlap/touch), and past the end
        # of the one before the previous (separation); next end: past this one's
        lo = max(prev_start, pairs[-2][1] if i >= 2 else 0) + 1
        for s in range(prev_end, lo - 1, -1):
            for e in range(last_end, prev_end, -1):
                stack.append(pairs + ((s, e),))
