"""Projective dimensions, global dimension, and the derived classification.

Projective dimensions are computed by iterating the syzygy map, which is a
deterministic function on the finite state space of uniserial modules: an
orbit either reaches a projective (finite pd) or revisits a state (infinite
pd).  ``math.inf`` is used for the infinite value so comparisons and
``max()`` behave naturally; JSON output encodes it as the string "inf".

The walks here take two steps at a time.  Two steps of ``core.syzygy``,
M(t, l) -> M(t + l, c_t - l), read mod n, give the jump

    Omega^2 M(t, l) = M(t + c_t, d),  d = c_{t+l} - c_t + l,

where d = 0 means that Omega M is already projective, so pd M = 1.  The
step rule c_{v+1} >= c_v - 1, applied along P_t, gives 0 <= d <= c_{t+c_t};
conversely d >= 0 for every M(v, 1) is the rule itself.  The new top t + c_t
depends on t alone (the arrow of Ringel's resolution quiver, J. Algebra
2013), so the pds of the modules with top t follow from those with top
t + c_t.  On a line, where c_v <= n - v + 1, a projective P_t that reaches
the sink (t + c_t = n + 1) forces d = 0: each non-projective M(t, l) has pd 1.

The start-row rule: if v starts no relation, c_v = c_{v+1} + 1 and Omega M(v, l) =
M(v + l, c_v - l) = Omega M(v + 1, l - 1), so pd S_v = 1 (Omega S_v = P_{v+1}) and
pd M(v, l) = pd M(v + 1, l - 1) for l >= 2.  Only the starts, the v with 2 <= c_v <= c_{v+1},
need the jump, and there the step rule gives d = c_{v+l} - c_v + l >= c_{v+1} - c_v + 1 >= 1;
on a line none reaches the sink, whose row [0] is seeded from c_t = 1.

The fixpoint fill.  Every cycle of the row graph (t -> t + 1 at a non-start, t -> t + c_t
at a start) holds a relation start, as c falls along non-starts.  So one turn round a cycle
takes each pd of its row t to a constant (0 at a projective, 1 at length 1 on a non-start)
or to a pd of row t plus at least 2; a finite pd is not itself plus 2, so row t has one
fixpoint.  Seeded with INFINITE, each entry of row t is final or INFINITE after every pass;
a pass that changes row t makes an entry final and one that does not is at the fixpoint,
so c_t passes suffice.  Only then are the cycle's other rows final as well.

A series is read here only through its ``kind``, ``c``, ``n`` and label: the verify sweep
hands in its profile of (kind, c) where a ``KupischSeries`` is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

from .core import (
    CYCLIC,
    LINEAR,
    KupischSeries,
    UniserialModule,
    _label,
    check_module,
)
from .errors import InternalError, NakayamaError

INFINITE = math.inf


class _lazy(cached_property):
    """A ``cached_property`` without the lock that it takes before Python 3.12."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def projective_dimension(series: KupischSeries, m: UniserialModule, memo=None):
    """Number of syzygy steps until the module becomes projective, or INFINITE.

    A projective module has dimension 0.  Pass a shared ``memo`` dict to
    reuse results across queries on the same algebra; entries are final
    once written, so the answer never depends on query order.
    """
    check_module(series, m)
    return _pd_walk(series.c, m.top, m.length, {} if memo is None else memo)


def _pd_walk(c, top, length, memo):
    """The walk of ``projective_dimension`` from the valid module M(top, length), by the jump."""
    n, path = len(c), {}  # the states walked, in order: a revisit means INFINITE
    while True:
        ct = c[top - 1]
        if length == ct:
            base = 0
            break
        key = (top, length)
        if key in memo:
            base = memo[key]
            break
        if key in path:
            base = INFINITE
            break
        new_top, d = (top - 1 + ct) % n + 1, c[(top - 1 + length) % n] - ct + length
        if not 0 <= d <= c[new_top - 1]:
            raise InternalError(f"Omega^2 M({top},{length}) over {_label(c)}"
                                f" is not a module: M({new_top},{d})")
        if d == 0:
            base = memo[key] = 1
            break
        path[key] = None
        top, length = new_top, d
    for key in reversed(path):
        base = base + 2  # INFINITE + 2 == INFINITE
        memo[key] = base
    return base


def pd_simples(series: KupischSeries) -> tuple:
    """Projective dimension of every simple module, indexed by vertex.

    A vertex that starts no relation has pd 1, the start-row rule at length 1: not walked.
    """
    c, n, memo = series.c, series.n, {}
    return tuple(1 if c[v % n] == c[v - 1] - 1 else _pd_walk(c, v, 1, memo) for v in range(1, n + 1))


def _gldim(series, pds):
    """The global dimension, the simples' largest pd; a line must realize each of 0..gldim."""
    gldim = max(pds)
    if series.kind == LINEAR and len(set(pds)) != gldim + 1:
        raise InternalError(f"linear {series} has simple pds {pds}, not 0..{gldim}")
    return gldim


def _brown_bound(kind: str, lambda_one: int) -> int:
    """Brown's bound on the gldim of a quasi-hereditary algebra: lambda_1, +1 when cyclic."""
    return lambda_one + (kind == CYCLIC)


def _quasi_hereditary(series) -> bool:
    """The report's criterion from c: pd S_n = 0 (c_n = 1; the jump test, read mod n, holds there
    too) or pd S_v = 2, as Omega^2 S_v = M(v + c_v, c_{v+1} - c_v + 1) is projective.  The c_n = 1
    clause is kept as a fast path: it decides every line without the scan over v."""
    c, n = series.c, series.n
    return c[-1] == 1 or any(c[(v + 1) % n] - c[v] + 1 == c[(v + c[v]) % n] for v in range(n))


def _module_table(series: KupischSeries) -> list:
    """Every module's pd at [top - 1][length - 1], one row per top, by the start-row rule.

    Row t is [1] + row t + 1 unless t starts a relation; then it is read from row t + c_t by
    the jump.  Each path of this row graph is filled in reverse, a cycle it closes by the
    fixpoint fill of the module docstring; the step rule is checked first.  The seed [0] of a
    line's sink keeps the line's row graph acyclic: unseeded, the sink (c_n = 1 <= c_1) reads as
    a start whose jump wraps to row 1, so every line would close a cycle and take the fixpoint fill.
    """
    c, n = series.c, series.n
    for v in range(n):  # on a line the wrap step reads c_1 >= c_n - 1 = 0
        if c[(v + 1) % n] < c[v] - 1:
            raise InternalError(f"{_label(c)} drops by more than 1 from vertex {v + 1}")

    def fill(rows):  # in reverse, so each row reads a filled one
        for t in reversed(rows):
            ct, u = c[t], (t + 1) % n
            if ct > c[u]:  # no relation starts at t
                table[t] = [1] + table[u]
            else:
                after = table[(t + ct) % n]
                table[t] = [2 + after[c[(t + length) % n] - ct + length - 1]
                            for length in range(1, ct)] + [0]

    table = [[0] if ct == 1 else None for ct in c]  # a line's sink: P_n = S_n
    for start in range(n):
        path, t = [], start
        while table[t] is None:
            table[t] = path  # marks the rows on the current path
            path.append(t)
            t = (t + c[t]) % n if c[t] <= c[(t + 1) % n] else (t + 1) % n
        if table[t] is path:  # a new cycle closes at row t
            path, cycle = path[:path.index(t)], path[path.index(t):]
            table[t] = [INFINITE] * (c[t] - 1) + [0]
            for _ in range(c[t]):
                row = table[t]
                fill(cycle)
                if table[t] == row:
                    break
            else:
                raise InternalError(f"row {t + 1} of {list(c)} is not fixed after {c[t]} passes")
        fill(path)
    return table


def all_modules(series: KupischSeries):
    """Every uniserial module of the algebra."""
    for v in range(1, series.n + 1):
        for length in range(1, series.c[v - 1] + 1):
            yield UniserialModule(v, length)


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyReport:
    """Homological classification of one algebra, read off the pds of its simples.

    ``kind``, ``c`` and ``pd_simple`` are the inputs.  ``gldim``, the largest pd, is computed
    with them, so that ``_gldim``'s check of a line fires when the report is built.  Every other
    field is derived from these four on first read, and each is described at its line below.

    ``quasi_hereditary`` is a criterion, not the definition: some simple has pd 0 or pd 2, read
    from the pds here and from c by ``_quasi_hereditary``.  Tests check both against a heredity
    chain for n <= 6.  S-connected implies it: a cyclic algebra that is not selfinjective has a
    simple of pd 1 (at a v with c_v > c_{v+1}), and a relation start v has pd >= 2, as Omega S_v
    = M(v + 1, c_v - 1) is shorter than P_{v+1}; so a cyclic S-connected algebra, whose pds form
    an interval, has 2 among its simple pds.  A line meets the criterion through pd S_n = 0.
    """

    kind: str
    c: tuple[int, ...]
    pd_simple: tuple
    gldim: "int | float"

    # each finite pd c -> the number of simples with pd != c (other c: a KeyError by design);
    # each count is a run of the sorted pds, so n distinct pds cost one sort, not n scans
    lam = _lazy(lambda self: {cc: len(self.pd_simple) - len(list(run))
                              for cc, run in groupby(sorted(self.pd_simple)) if cc != INFINITE})
    o_set = _lazy(lambda self: tuple(self.lam))  # the finite pds, sorted and distinct
    a_min = _lazy(lambda self: self.o_set[0] if self.o_set else None)  # the least finite pd
    # whether the pds form an interval; None at infinite gldim, where it is undefined
    s_connected = _lazy(lambda self: None if self.gldim == INFINITE else (
        len(self.o_set) == self.gldim - self.a_min + 1))
    quasi_hereditary = _lazy(lambda self: 0 in self.pd_simple or 2 in self.pd_simple)
    # a_min + min(lam) - gldim, the slack in the sharpest interval bound; nonnegative whenever
    # s_connected is True, and None at infinite gldim
    brown_slack = _lazy(lambda self: None if self.gldim == INFINITE else (
        self.a_min + min(self.lam.values()) - self.gldim))

    @property
    def lambda_one(self) -> int:
        """Number of simples with pd != 1 (Brown's lambda): ``lam.get(1, n)``, counted directly."""
        return len(self.pd_simple) - self.pd_simple.count(1)

    @property
    def brown_bound(self) -> int:
        """Brown's bound on gldim for quasi-hereditary algebras, read at ``lambda_one``."""
        return _brown_bound(self.kind, self.lambda_one)

    @property
    def is_maximal(self) -> bool:
        """Quasi-hereditary with gldim attaining Brown's bound: the census's maximal algebras.

        Quasi-heredity is not redundant: from n = 5 on, algebras such as [6,6,5,4,4] have
        finite gldim equal to the bound but are not quasi-hereditary, so are not counted.
        """
        return self.quasi_hereditary and self.gldim == self.brown_bound

    def to_dict(self) -> dict:
        enc = lambda p: "inf" if p == INFINITE else p
        return {
            "kind": self.kind,
            "kupisch": list(self.c),
            "pd_simple": [enc(p) for p in self.pd_simple],
            "gldim": enc(self.gldim),
            "o_set": list(self.o_set),
            "a_min": self.a_min,
            "lambda": {str(k): v for k, v in sorted(self.lam.items())},
            "s_connected": self.s_connected,
            "quasi_hereditary": self.quasi_hereditary,
            "brown_slack": self.brown_slack,
        }


def homology_report(series: KupischSeries, pds=None) -> HomologyReport:
    """The full report for a connected Nakayama algebra; ``pds``: its simples' pds, if known."""
    pds = pd_simples(series) if pds is None else pds
    return HomologyReport(series.kind, series.c, pds, _gldim(series, pds))


# ---------------------------------------------------------------------------
# Checkable consequences (each returns a list of violations, [] on success)
# ---------------------------------------------------------------------------

def check_madsen(series: KupischSeries, table=None) -> list:
    """Odd-pd modules attain their pd on a composition factor.

    For every uniserial module M of finite odd projective dimension, the
    maximum of the finite pds of its simple composition factors must exist
    and equal pd M.  Returns the violating modules.  M(t, l) adds the factor
    at t + l - 1 to those of M(t, l - 1), so one walk per top keeps the maximum.
    ``table``: the algebra's ``_module_table`` of pds, built here when not given.
    """
    if table is None:
        table = _module_table(series)
    pds = [row[0] for row in table] * (2 + max(series.c) // series.n)  # read past vertex n
    violations = []
    for top, row in enumerate(table, 1):
        best = None  # largest finite pd among the factors so far
        for length, p in enumerate(row[:-1], 1):  # projectives have pd 0
            q = pds[top + length - 2]
            if q != INFINITE and (best is None or q > best):
                best = q
            if p != INFINITE and p % 2 == 1 and p != best:
                violations.append(UniserialModule(top, length))
    return violations


def check_parity_interpolation(series: KupischSeries, report=None) -> list[str]:
    """Odd values up to gldim are all attained; even values interpolate.

    Requires finite global dimension (raises NakayamaError otherwise).
    Between any two attained even pds every intermediate even value must be
    attained as well.  ``report`` as in ``check_inequalities``.
    """
    report = report or homology_report(series)
    gldim, attained = report.gldim, report.o_set  # o_set: the sorted, distinct finite pds
    if gldim == INFINITE:
        raise NakayamaError(f"{series} has infinite global dimension")
    violations = [f"{series}: odd value {odd} <= gldim {gldim} not attained"
                  for odd in range(1, gldim + 1, 2) if odd not in attained]
    evens = [p for p in attained if p % 2 == 0]
    if evens:
        for t in range(evens[0], evens[-1] + 1, 2):
            if t not in attained:
                violations.append(f"{series}: even value {t} not interpolated")
    return violations


def check_inequalities(series: KupischSeries, report=None) -> list[str]:
    """The interval bound, the acyclic sink bound and Gustafson's bound.

    Interval: gldim <= a + lambda_c for every attained c, when the pds of
    simples form an interval.  Sink: gldim <= n - 1 for a linear algebra.
    Gustafson (Global dimension in serial rings, J. Algebra 1985): gldim <=
    2n - 2 for a cyclic one of finite gldim.  Brown's bound is the ``brown``
    suite's.  ``report``: the algebra's report, when already computed.
    """
    report = report or homology_report(series)
    violations = []
    if report.s_connected:
        for cc in report.o_set:
            if report.gldim > report.a_min + report.lam[cc]:
                violations.append(
                    f"{series}: gldim {report.gldim} > {report.a_min} + lambda_{cc}"
                    f" = {report.a_min + report.lam[cc]}"
                )
    if series.kind == LINEAR and report.gldim > series.n - 1:
        violations.append(f"{series}: gldim {report.gldim} > n - 1 = {series.n - 1}")
    if series.kind == CYCLIC and report.gldim != INFINITE and report.gldim > 2 * series.n - 2:
        violations.append(f"{series}: gldim {report.gldim} > 2n - 2 = {2 * series.n - 2}")
    return violations
