"""Independent brute-force oracles used to cross-check the package.

These deliberately avoid the package's index arithmetic: modules are
materialized as explicit tuples of composition-factor vertices, syzygies
are computed by slicing the projective cover's composition series, and
relations are found by checking path death directly.  Slow but obviously
correct on small inputs.
"""

from __future__ import annotations

import functools
import itertools
import math

from nakayama import CYCLIC, LINEAR, KupischSeries, RelationSystem, UniserialModule


def projective_vertices(series: KupischSeries, top: int) -> tuple[int, ...]:
    n = series.n
    length = series.c[top - 1]
    if series.kind == CYCLIC:
        return tuple((top - 1 + t) % n + 1 for t in range(length))
    return tuple(top + t for t in range(length))


def module_vertices(series: KupischSeries, m: UniserialModule) -> tuple[int, ...]:
    cover = projective_vertices(series, m.top)
    assert 1 <= m.length <= len(cover)
    return cover[: m.length]


def oracle_syzygy(series: KupischSeries, m: UniserialModule):
    """Kernel of the projective cover, computed on explicit vertex intervals."""
    cover = projective_vertices(series, m.top)
    body = module_vertices(series, m)
    kernel = cover[len(body):]
    if not kernel:
        return None
    return UniserialModule(kernel[0], len(kernel))


def oracle_pd(series: KupischSeries, m: UniserialModule):
    """Projective dimension by iterating the explicit-kernel oracle."""
    seen = set()
    current = m
    steps = 0
    while True:
        body = module_vertices(series, current)
        if body == projective_vertices(series, current.top):
            return steps
        if body in seen:
            return math.inf
        seen.add(body)
        current = oracle_syzygy(series, current)
        steps += 1


def oracle_module_table(series: KupischSeries) -> list:
    """Every module's pd at [top - 1][length - 1], one ``oracle_syzygy`` step at a time.

    Built once per series; each call hands out fresh row lists, so no caller can
    change the cached table.
    """
    return [list(row) for row in _oracle_module_rows(series)]


@functools.cache
def _oracle_module_rows(series: KupischSeries) -> tuple:
    """The rows of ``oracle_module_table``.  Each module is stepped at most once: a walk
    stops at a module already known, and -1 marks the modules on the current walk, so
    reaching one closes a cycle of infinite pd.
    """
    c = series.c
    table = [[None] * (ct - 1) + [0] for ct in c]
    for start, row in enumerate(table, 1):
        for start_length in range(1, len(row)):
            top, length, path = start, start_length, []
            while (pd := table[top - 1][length - 1]) is None:
                table[top - 1][length - 1] = -1  # on the current path
                path.append((top, length))
                omega = oracle_syzygy(series, UniserialModule(top, length))
                top, length = omega.top, omega.length
            base = math.inf if pd == -1 else pd
            for top, length in reversed(path):
                base = base + 1
                table[top - 1][length - 1] = base
    return tuple(map(tuple, table))


def oracle_tiled(series: KupischSeries, m: UniserialModule) -> bool:
    """Whether m's factors are consecutive base intervals, on explicit vertex tuples.

    The intervals run from just after one projective socle to the next one
    round the cycle; m is tiled when its vertices equal the concatenation of
    the intervals that start at the one whose top is m's top.
    """
    n = series.n
    socles = sorted({projective_vertices(series, v)[-1] for v in range(1, n + 1)})
    intervals = [
        tuple((prev + k) % n + 1 for k in range((s - prev - 1) % n + 1))
        for prev, s in zip(socles[-1:] + socles[:-1], socles)
    ]
    body = module_vertices(series, m)
    starts = [j for j, interval in enumerate(intervals) if interval[0] == m.top]
    if not starts:
        return False
    tiles, j = (), starts[0]
    while len(tiles) < len(body):
        tiles += intervals[j % len(intervals)]
        j += 1
    return tiles == body


def oracle_interval_count(deltas, n, j, length):
    """How many consecutive base intervals from index j tile ``length``, by adding lengths.

    Whole turns of the cycle (n vertices) count ``len(deltas)`` intervals at
    once; the rest is walked interval by interval until the sum reaches or
    passes it.  None when it passes.
    """
    turns, rest = divmod(length, n)
    r = len(deltas)
    count = turns * r
    total = 0
    while total < rest:
        total += deltas[(j + count) % r].length
        count += 1
    return count if total == rest else None


def oracle_quasi_hereditary(series: KupischSeries) -> bool:
    """Quasi-heredity by its definition, searched on the explicit path basis.

    The basis is the paths (t, k) with k < c_t, each held as its vertex
    tuple.  In the algebra of the paths avoiding the removed vertices, the
    ideal generated by e_i is a heredity ideal when multiplication
    Ae_i (x) e_iA -> Ae_iA is bijective: #(paths through i) equals
    #(paths ending at i) * #(paths starting at i).  A loop p at i breaks
    that count, as (e_i, p) and (p, e_i) both give p, so e_iAe_i = k is
    forced too.  The algebra is quasi-hereditary when some sequence of
    such vertices removes every vertex (Dlab and Ringel, Illinois J. Math.
    1989).
    """
    n = series.n
    paths = [projective_vertices(series, t)[:k + 1] for t in range(1, n + 1)
             for k in range(series.c[t - 1])]

    @functools.lru_cache(maxsize=None)
    def removable(removed: frozenset) -> bool:
        if len(removed) == n:
            return True
        alive = [p for p in paths if removed.isdisjoint(p)]
        for i in range(1, n + 1):
            if i in removed:
                continue
            through = sum(1 for p in alive if i in p)
            ending = sum(1 for p in alive if p[-1] == i)
            starting = sum(1 for p in alive if p[0] == i)
            if through == ending * starting and removable(removed | {i}):
                return True
        return False

    return removable(frozenset())


def oracle_relations(series: KupischSeries):
    """Minimal zero relations found by explicit path-death checking.

    A path is alive when its length stays below the projective length at
    its start; a minimal relation is a dead path all of whose proper
    subpaths are alive.  Returns (start, end) arrow pairs with plain ends.
    """
    n, c = series.n, series.c

    def alive(start, length):  # the path of `length` arrows from `start`
        if series.kind != CYCLIC and start + length > n:
            return False  # runs off the line
        return length <= c[(start - 1) % n] - 1

    relations = []
    last = n if series.kind == CYCLIC else n - 1
    for start in range(1, last + 1):
        length = c[start - 1]  # shortest dead path from start
        if series.kind != CYCLIC and start + length > n:
            continue  # dies by running off the line, not by a relation
        # minimal iff every proper tail is alive
        if all(alive((start + k - 1) % n + 1, length - k) for k in range(1, length)):
            relations.append((start, start + length - 1))
    return tuple(relations)


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


def oracle_is_chain(system: RelationSystem) -> bool:
    """The chain test by trying every labelling: each rotation, re-sorted.

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


def _contains(p, q, n, kind) -> bool:
    """Does the arrow interval of relation p contain that of relation q?

    Intervals live on the cycle, so q may sit inside p after shifting by a
    multiple of n.  On a line only the unshifted comparison applies.
    """
    (sp, ep), (sq, eq) = p, q
    if kind == LINEAR:
        return sp <= sq and eq <= ep
    # some shift t has sp <= sq + t*n and eq + t*n <= ep: ceil((sp-sq)/n) <= floor((ep-eq)/n)
    return -((sp - sq) // -n) <= (ep - eq) // n


def oracle_redundant(kind: str, n: int, relations) -> bool:
    """Does some relation contain another, tried over every ordered pair?"""
    return any(a is not b and _contains(a, b, n, kind) for a in relations for b in relations)


def oracle_relations_to_kupisch(system: RelationSystem) -> KupischSeries:
    """Projective lengths determined by the first relation at or after each vertex.

    Walking forward from v, the first zero path that completes is the one
    belonging to the first relation start s at or after v (irredundancy
    makes later relations finish later), so c_v = dist(v, s) + length.
    Linear vertices past the last start run freely to the sink.
    """
    n = system.n
    starts = [s for s, _ in system.relations]
    length = {s: e - s + 1 for s, e in system.relations}
    c = []
    for v in range(1, n + 1):
        if system.kind == CYCLIC:
            dist, s = min(((s - v) % n, s) for s in starts)
            c.append(dist + length[s])
        else:
            ahead = [s for s in starts if s >= v]
            if ahead:
                s = ahead[0]
                c.append(s - v + length[s])
            else:
                c.append(n - v + 1)
    return KupischSeries(system.kind, tuple(c))


def brute_force_cyclic(n: int, cap: int):
    """Every valid cyclic tuple (all rotations), by unfiltered product scan."""
    for c in itertools.product(range(2, cap + 1), repeat=n):
        if all(c[(i + 1) % n] >= c[i] - 1 for i in range(n)):
            yield c


def oracle_canonical_c(c: tuple) -> tuple:
    """The greatest of the n rotations of c, each built and compared whole: quadratic in n."""
    return max(c[j:] + c[:j] for j in range(len(c)))


def brute_force_cyclic_shard(n: int, first: int) -> list:
    """The canonical cyclic series with n entries whose first entry is ``first``, sorted: every
    tuple that starts with ``first`` and keeps the step rule with entries in 2..first (so the
    wrap step holds too), filtered to those that equal their greatest rotation."""
    tuples = [(first,)]
    for _ in range(n - 1):
        tuples = [t + (v,) for t in tuples for v in range(max(2, t[-1] - 1), first + 1)]
    return sorted(c for c in tuples if oracle_canonical_c(c) == c)


def brute_force_linear(n: int):
    """Every valid connected linear tuple, by unfiltered product scan."""
    for head in itertools.product(range(2, n + 1), repeat=n - 1):
        c = head + (1,)
        if all(c[i] <= n - i for i in range(n - 1)) and all(
            c[i + 1] >= c[i] - 1 for i in range(n - 1)
        ):
            yield c


def burnside_cyclic_classes(n: int, cap=None) -> int:
    """Rotation classes of cyclic series with n entries in 2..cap, counted without listing them.

    The cap defaults to 2n - 1 and is raised to 2.  A cyclic series is a
    closed walk of length n in the transfer matrix T[a][b] = [b >= a - 1] on
    entries 2..cap, and the rotations fixing it form a subgroup of Z/n, so
    Burnside's lemma gives (1/n) * sum over d | n of phi(n/d) * tr(T^d).
    """
    cap = max(2 * n - 1 if cap is None else cap, 2)
    entries = range(2, cap + 1)
    step = [[int(b >= a - 1) for b in entries] for a in entries]
    power, traces = step, {}
    for d in range(1, n + 1):
        traces[d] = sum(power[i][i] for i in range(len(step)))
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*step)] for row in power]

    def phi(m):
        return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)

    fixed = sum(phi(n // d) * traces[d] for d in range(1, n + 1) if n % d == 0)
    assert fixed % n == 0, f"Burnside sum {fixed} is not a multiple of {n}"
    return fixed // n
