"""Machine verification suites for the structural theorems, and the census.

Each suite sweeps the full enumeration (cyclic entries capped at 2n-1 by default, every linear
series) up to a given vertex count and returns a list of violation strings; an empty list means
the theorem held on every instance.  ``run_suites`` runs the requested suites in one sweep per
n, cut into contiguous enumeration shards that a process pool may compute in any order; the
shards merge in enumeration order, so the number of workers never changes any result.
``_sweep_shard`` is the one loop over the algebras: ``census`` is the ``fibonacci`` suite's
sweep over one kind, returned as its table of counts.  Each shard's census tally (the
brute-force route) is plain data, and ``_census_rows`` turns the tallies of one n and kind into
its rows, for both.  The sweep reads each algebra as (kind, c) from the enumeration to the last
predicate; it builds no ``KupischSeries`` and writes "[c1,c2,...]" only for a violation.  The
simples' pds come from the module table when ``madsen`` builds one, else from ``pd_simples``; a
sweep that builds no report first (the census) builds one only where gldim reaches Brown's bound,
its lambda_1 counted from the same pds.  The chain flag is read from c; the relation pairs, and
r, are built only where r is read: by ``epsilon`` and the census tally of the maximal algebras.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import cache, partial

from .core import (CYCLIC, LINEAR, KupischSeries, RelationSystem, _canonical_c, _kupisch_c,
                   _relation_pairs)
from .enumeration import (_SWEEP_LIMIT, _chain_pairs, _cyclic_cap, _cyclic_with_first,
                          _is_chain_c, _linear_series, count_closed_form, fibonacci)
from .errors import NakayamaError
from .filtration import TERMINAL_LINEAR, TERMINAL_SELFINJECTIVE, _reduce
from .homology import (INFINITE, _brown_bound, _gldim, _lambda_one, _lazy, _module_table,
                        _quasi_hereditary, check_inequalities, check_madsen,
                        check_parity_interpolation, homology_report, pd_simples)


def _shards(n: int, cap=None) -> list:
    """The n-vertex enumeration cut into contiguous shards, in enumeration order.

    A shard is (kind, first): the cyclic series whose first entry is ``first``, or (LINEAR, 0)
    for all the linear series.  Every sweep's n is checked here, as its cap in ``_cyclic_cap``.
    """
    if not 2 <= n <= _SWEEP_LIMIT:  # below 2 there is nothing to sweep, which reads as a pass
        raise NakayamaError(f"vertex count must be in 2..{_SWEEP_LIMIT}, got {n}")
    return [(CYCLIC, first) for first in range(2, _cyclic_cap(n, cap) + 1)] + [(LINEAR, 0)]


class _Profile:
    """One algebra, (kind, c), and what the suites read about it, each computed on first use.

    It reads as a series (``kind``, ``c``, ``n``, ``is_selfinjective``, its label) and as a
    relation system (``relations``, ``r``), so the functions of ``homology``, ``filtration`` and
    ``is_chain`` take it in place of a ``KupischSeries`` or a ``RelationSystem``.
    """

    def __init__(self, kind, c, tabled=False, reduced=None):
        self.kind, self.c, self.n = kind, c, len(c)
        self.tabled = tabled  # madsen runs; it alone reads the table
        self.reduced = {} if reduced is None else reduced  # (kind, c) -> profile, one per shard

    __str__ = KupischSeries.__str__
    is_selfinjective = _lazy(KupischSeries.is_selfinjective.fget)
    table = _lazy(lambda self: _module_table(self))
    pds = _lazy(lambda self: (  # the table's first column only when it is built anyway
        tuple(row[0] for row in self.table) if self.tabled else pd_simples(self)))
    report = _lazy(lambda self: homology_report(self, self.pds))
    maximal = _lazy(lambda self: self.report.is_maximal if "report" in self.__dict__ else (
        _quasi_hereditary(self) and _gldim(self, self.pds)  # the report's criterion and bound
        >= _brown_bound(self.kind, _lambda_one(self.pds)) and self.report.is_maximal))
    relations = _lazy(lambda self: _relation_pairs(self.c))
    r = _lazy(RelationSystem.r.fget)
    step = _lazy(lambda self: _reduce(self))  # the first reduction's (kind, c) components
    terminal = _lazy(lambda self: (  # epsilon_tower(series).terminal, tail shared
        TERMINAL_SELFINJECTIVE if self.is_selfinjective else
        self.of(self.step[0]).terminal if self.step[0][0] == CYCLIC else TERMINAL_LINEAR))

    @_lazy
    def chain_violations(self) -> list:  # the chain suite's, and the census tally's
        maximal, chain = self.maximal, _is_chain_c(self.kind, self.c)
        return [] if maximal == chain else [f"{self}: maximal={maximal} but chain={chain}"]

    def of(self, component) -> "_Profile":
        """The shard's one profile of the reduced algebra ``component``, a (kind, c)."""
        if component not in self.reduced:
            self.reduced[component] = _Profile(*component, reduced=self.reduced)
        return self.reduced[component]


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


def _census_rows(n: int, kind: str, cap, tallies) -> list:
    """The census rows of n and ``kind`` from its shards' tallies, in enumeration order.

    A tally is a shard's ({maximal c: its r}, chain violations), read and never changed; the
    merged map gives the counts by r, the total and the set of maximal c.  The last row (the
    total) carries the chain violations, then the disagreements with the chain systems (read
    as bare pairs, which ``enumerate_chains`` would validate), the closed forms and the
    Fibonacci number.  The counts and the set are compared with the chain forms whose entries
    fit the cyclic ``cap`` (linear series are never capped), the total only at cap >= 2n - 1.
    """
    cap = _cyclic_cap(n, cap if kind == CYCLIC else None)
    maximal, violations = {}, []
    for shard_maximal, shard_violations in tallies:
        maximal.update(shard_maximal)
        violations += shard_violations
    by_r = Counter(maximal.values())
    rows, chain_set = [], set()
    for r in range(1, n):
        expected = count_closed_form(n, r, kind)
        chains_r = [_canonical_c(kind, _kupisch_c(kind, n, p)) for p in _chain_pairs(n, r, kind)]
        if len(chains_r) != expected:
            violations.append(
                f"n={n} r={r} {kind}: {len(chains_r)} chains != closed form {expected}")
        chains_r = [c for c in chains_r if c[0] <= cap]  # c[0] is the largest entry
        chain_set.update(chains_r)
        if by_r[r] != len(chains_r):
            violations.append(f"n={n} r={r} {kind}: {by_r[r]} maximal != {len(chains_r)} chains")
        rows.append(CensusRow(n, kind, r, by_r[r], expected, None))
    if chain_set != maximal.keys():
        violations.append(
            f"n={n} {kind}: chain/maximal sets differ at {sorted(chain_set ^ maximal.keys())}")
    total = len(maximal)
    fib = fibonacci(2 * n - 2 if kind == CYCLIC else 2 * n - 3)
    if total != fib and cap >= 2 * n - 1:
        violations.append(f"n={n} {kind}: total {total} != Fibonacci {fib}")
    rows.append(CensusRow(n, kind, None, total, None, fib, tuple(violations)))
    return rows


# Each predicate returns None to skip an algebra, else its violations.

def _sconnected_qh(profile):
    report = profile.report
    if report.s_connected is None:
        # undefined for infinite global dimension; quasi-heredity must fail too
        if report.quasi_hereditary:
            return [f"{profile}: infinite gldim but quasi-hereditary"]
    elif report.s_connected != report.quasi_hereditary:
        return [f"{profile}: s_connected={report.s_connected}"
                f" != quasi_hereditary={report.quasi_hereditary}"]
    return []


def _brown(profile):
    report = profile.report
    if not report.quasi_hereditary:
        return None
    if report.gldim > report.brown_bound:
        return [f"{profile}: gldim {report.gldim} > {report.brown_bound}"]
    return []


def _epsilon(profile):
    if profile.kind != CYCLIC or profile.is_selfinjective:
        return None
    violations = []
    report, step, terminal = profile.report, profile.step, profile.terminal
    finite = report.gldim != INFINITE
    if (terminal == TERMINAL_LINEAR) != finite:
        violations.append(f"{profile}: terminal {terminal} but gldim {report.gldim}")
    if (vertices := sum(len(c) for _, c in step)) != profile.r:
        violations.append(f"{profile}: reduced algebra has {vertices}"
                          f" vertices, expected the relation count")
    if finite:
        reduced_gldim = max(_gldim(p, p.pds) for p in map(profile.of, step))
        if reduced_gldim + 2 != report.gldim:
            violations.append(f"{profile}: gldim {report.gldim} but reduced gldim {reduced_gldim}")
    if (step[0][0] == CYCLIC) == report.quasi_hereditary:
        violations.append(f"{profile}: quasi-heredity disagrees with reduction shape")
    return violations


_SUITES = {  # suite -> (its theorem, noun for the algebras it checks, predicate or None)
    "sconnected-qh": (
        "S-connected iff quasi-hereditary, on every connected non-semisimple algebra.",
        "algebras", _sconnected_qh),
    "brown": ("Brown's bound on quasi-hereditary algebras (lambda_1, +1 when cyclic).",
              "quasi-hereditary algebras", _brown),
    "generalized-inequality": (
        "The interval bound gldim <= a + lambda_c for every attained c, the sink bound"
        " gldim <= n - 1 on a line and Gustafson's gldim <= 2n - 2 on a cycle of finite gldim.",
        "algebras", lambda p: check_inequalities(p, p.report)),
    "madsen": ("Odd-pd modules attain their pd on a composition factor.", "algebras",
               lambda p: [f"{p}: fails at {m}" for m in check_madsen(p, p.table)]),
    "parity": ("Odd attainment and even interpolation of simple pd values.",
               "finite-gldim algebras", lambda p: None if p.report.gldim == INFINITE
               else check_parity_interpolation(p, p.report)),
    "chain": ("Maximal global dimension iff the defining relations form a chain.",
              "algebras", lambda p: p.chain_violations),
    "fibonacci": ("Census counts match the Fibonacci values, all three routes agreeing.",
                  None, None),
    "epsilon": ("Tower terminal, vertex count, dimension drop by two, and reduction shape.",
                "cyclic non-selfinjective algebras", _epsilon),
}


def _sweep_shard(names, n: int, kind: str, first: int):
    """One shard's raw results: {suite: [algebras checked, violations]} and its census tally."""
    checks = {name: _SUITES[name][2] for name in names if _SUITES[name][2]}
    found = {name: [0, []] for name in checks}
    counting, maximal, chain_violations = "fibonacci" in names, {}, []
    tabled, reduced = "madsen" in checks, {}
    for c in _cyclic_with_first(n, first) if kind == CYCLIC else _linear_series(n):
        profile = _Profile(kind, c, tabled, reduced)
        for name, predicate in checks.items():
            violations = predicate(profile)
            if violations is not None:
                found[name][0] += 1
                found[name][1].extend(violations)
        if counting:
            chain_violations += profile.chain_violations
            if profile.maximal:
                maximal[c] = profile.r
    reduced.clear()  # the memo is this shard's alone; its profiles refer to it, so free them now
    return found, (maximal, chain_violations)


def _results(names, n: int, cap=None, shards=None) -> dict:
    """One pass over the n-vertex algebras: each named suite's (detail, violations).

    ``shards`` are the raw results of ``_shards(n, cap)`` in order, when a pool computed
    them; without them the pass runs in this process.
    """
    if shards is None:
        shards = [_sweep_shard(names, n, *s) for s in _shards(n, cap)]
    results = {name: (f"{sum(found[name][0] for found, _ in shards)} {_SUITES[name][1]}",
                      [v for found, _ in shards for v in found[name][1]])
               for name in names if _SUITES[name][2]}
    if "fibonacci" in names:
        tallies = [(kind, tally) for (kind, _), (_, tally) in zip(_shards(n, cap), shards)]
        totals = [_census_rows(n, kind, cap, (t for k, t in tallies if k == kind))[-1]
                  for kind in (CYCLIC, LINEAR)]
        results["fibonacci"] = (
            "; ".join(f"{t.kind} {t.enumerated} (F={t.fibonacci})" for t in totals),
            [v for t in totals for v in t.violations],
        )
    return results


def census(ns, kind: str, cap: "int | None" = None) -> CensusTable:
    """Count maximal-global-dimension classes per n and cross-check all routes.

    For each n the ``fibonacci`` suite's sweep over the shards of ``kind``
    gives the brute-force count.  Per relation count r it must agree with the
    chain systems and the closed-form binomials, its canonical forms must be
    those of the chain systems, maximal iff chain must hold per algebra, and
    the total must be F_{2n-2} (cyclic) or F_{2n-3} (linear); a cyclic ``cap``
    below 2n-1 is compared as ``_census_rows`` says.  Disagreements go to the
    rows' ``violations``; the homology theorems are left to ``nakayama verify``.
    """
    rows, sweeps = [], [(n, _shards(n, cap)) for n in ns]  # every n checked before any sweep
    if not sweeps:  # an empty table would read as a clean census
        raise NakayamaError("no vertex count to census")
    for n, shards in sweeps:
        tallies = (_sweep_shard(("fibonacci",), n, kind, first)[1]
                   for shard_kind, first in shards if shard_kind == kind)
        rows.extend(_census_rows(n, kind, cap, tallies))
    return CensusTable(kind, tuple(rows))


def _suite(name: str, statement: str):
    """The public ``suite_<name>(n, cap=None, sweep=None)``, documented by its theorem.

    ``sweep`` is n's shared pass, called for its ``_results``; without one the suite sweeps
    alone.  ``run_suites`` memoizes the pass, so a serial run makes it inside the first suite
    call: the benchmark's Recorder, until it times the sweep's own stages, needs the edge
    ``suite_chain`` -> ``homology_report``.
    """
    def suite(n: int, cap=None, sweep=None) -> tuple[str, list[str]]:
        return (sweep() if sweep else _results((name,), n, cap))[name]
    suite.__name__ = suite.__qualname__ = "suite_" + name.replace("-", "_")
    suite.__doc__ = statement
    return suite


_SUITE_FUNCTIONS = {name: _suite(name, statement) for name, (statement, _, _) in _SUITES.items()}
globals().update({suite.__name__: suite for suite in _SUITE_FUNCTIONS.values()})
SUITES = tuple(_SUITE_FUNCTIONS)


def run_suites(names, n_max: int, cap=None, jobs: int = 1):
    """Run the named suites for every n up to n_max, one shared sweep per n.

    Returns {suite: (details-by-n, violations)}.  With ``jobs`` > 1 a pool of
    at most ``jobs`` workers, and no more than the CPUs this process may run
    on, sweeps the shards of every n, largest n and largest first entry
    first, so the last tasks are small.  This process merges them by (n,
    kind, first entry) in enumeration order and calls each suite once per n,
    so the output is identical for any ``jobs``.
    """
    _shards(n_max, cap)  # n_max and cap are checked before the names and before any task
    names = list(dict.fromkeys(names))
    if not names:
        raise NakayamaError("no theorems selected")
    for name in names:
        if name not in _SUITE_FUNCTIONS:
            raise NakayamaError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if jobs < 1:
        raise NakayamaError(f"jobs must be at least 1, got {jobs}")
    ns = range(2, n_max + 1)
    shards = dict.fromkeys(ns)  # n -> its raw shard results; None sweeps in this process
    tasks = sorted(((names, n, *shard) for n in ns for shard in _shards(n, cap)),
                   key=lambda task: (task[1], task[3]), reverse=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(tasks), cpus or 1)
    if workers > 1:
        import multiprocessing  # only a pooled run pays for the import

        with multiprocessing.Pool(processes=workers) as pool:
            raw = dict(zip((task[1:] for task in tasks),
                           pool.starmap(_sweep_shard, tasks, chunksize=1)))
        shards = {n: [raw[(n, *shard)] for shard in _shards(n, cap)] for n in ns}
    merged = {name: ([], []) for name in names}
    for n in ns:
        sweep = cache(partial(_results, names, n, cap, shards[n]))
        for name in names:
            detail, violations = _SUITE_FUNCTIONS[name](n, cap, sweep)
            merged[name][0].append(f"n={n}: {detail}")
            merged[name][1].extend(violations)
    return merged
