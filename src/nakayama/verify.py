"""Machine verification suites for the structural theorems, and the census.

Each suite sweeps the full enumeration (cyclic entries capped at 2n-1 by
default, every linear series) up to a given vertex count and returns a
list of violation strings; an empty list means the theorem held on every
instance.  ``run_suites`` runs the requested suites in one sweep per n, cut
into contiguous enumeration shards that a process pool may compute in any
order; the shards merge in enumeration order, so the number of workers
never changes any result.  ``_sweep_shard`` is the one loop over the
algebras: ``census`` is the ``fibonacci`` suite's sweep over one kind,
returned as its table of counts.
"""

from __future__ import annotations

import multiprocessing
import os
from functools import cached_property

from .core import CYCLIC, LINEAR, _relation_pairs
from .enumeration import (CensusTable, _cyclic_cap, _cyclic_with_first, _is_chain,
                          _MaximalTally, enumerate_linear, is_maximal)
from .errors import NakayamaError
from .filtration import TERMINAL_LINEAR, TERMINAL_SELFINJECTIVE, epsilon
from .homology import (
    INFINITE,
    _module_table,
    check_inequalities,
    check_madsen,
    check_parity_interpolation,
    homology_report,
)


def _shards(n: int, cap=None) -> list:
    """The n-vertex enumeration cut into contiguous shards, in enumeration order.

    A shard is (kind, first): the cyclic series whose first entry is
    ``first``, or (LINEAR, 0) for all the linear series.
    """
    cyclic = [(CYCLIC, first) for first in range(2, _cyclic_cap(n, cap) + 1)] if n >= 1 else []
    return cyclic + [(LINEAR, 0)] if n >= 2 else cyclic


class _lazy(cached_property):
    """A ``cached_property`` without the lock that it takes before Python 3.12."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class _Profile:
    """One algebra and what the suites read about it, each computed on first use."""

    def __init__(self, series, tabled=False, reduced=None):
        self.series, self.tabled = series, tabled  # tabled: madsen runs; it alone reads the table
        self.reduced = {} if reduced is None else reduced  # series -> profile, one dict per shard

    table = _lazy(lambda self: _module_table(self.series))
    report = _lazy(  # from the table only when it is built anyway
        lambda self: homology_report(self.series, self.table if self.tabled else None))
    pairs = _lazy(lambda self: _relation_pairs(self.series.kind, self.series.c))
    r = _lazy(lambda self: len(self.pairs) + (self.series.kind == LINEAR))  # RelationSystem.r
    chain = _lazy(lambda self: _is_chain(self.series.kind, self.series.n, self.pairs))
    step = _lazy(lambda self: epsilon(self.series))  # the first reduction
    terminal = _lazy(lambda self: (  # epsilon_tower(series).terminal, tail shared
        TERMINAL_SELFINJECTIVE if self.series.is_selfinjective else
        self.of(self.step.algebra).terminal if self.step.is_cyclic else TERMINAL_LINEAR))

    def of(self, series) -> "_Profile":
        """The shard's one profile of the reduced algebra ``series``."""
        if series not in self.reduced:
            self.reduced[series] = _Profile(series, reduced=self.reduced)
        return self.reduced[series]


# Each predicate returns None to skip an algebra, else its violations.

def _sconnected_qh(profile):
    series, report = profile.series, profile.report
    if report.s_connected is None:
        # undefined for infinite global dimension; quasi-heredity must fail too
        if report.quasi_hereditary:
            return [f"{series}: infinite gldim but quasi-hereditary"]
    elif report.s_connected != report.quasi_hereditary:
        return [f"{series}: s_connected={report.s_connected}"
                f" != quasi_hereditary={report.quasi_hereditary}"]
    return []


def _brown(profile):
    report = profile.report
    if not report.quasi_hereditary:
        return None
    if report.gldim > report.brown_bound:
        return [f"{profile.series}: gldim {report.gldim} > {report.brown_bound}"]
    return []


def _madsen(profile):
    return [f"{profile.series}: fails at {m}" for m in check_madsen(profile.series, profile.table)]


def _parity(profile):
    if profile.report.gldim == INFINITE:
        return None
    return check_parity_interpolation(profile.series, profile.report)


def _chain(profile):
    maximal, chain = is_maximal(profile.report), profile.chain
    return [] if maximal == chain else [f"{profile.series}: maximal={maximal} but chain={chain}"]


def _epsilon(profile):
    series = profile.series
    if series.kind != CYCLIC or series.is_selfinjective:
        return None
    violations = []
    report, step, terminal = profile.report, profile.step, profile.terminal
    finite = report.gldim != INFINITE
    if (terminal == TERMINAL_LINEAR) != finite:
        violations.append(f"{series}: terminal {terminal} but gldim {report.gldim}")
    if step.vertex_count != profile.r:
        violations.append(f"{series}: reduced algebra has {step.vertex_count}"
                          f" vertices, expected the relation count")
    if finite:
        reduced_gldim = max(profile.of(component).report.gldim for component in step.components)
        if reduced_gldim + 2 != report.gldim:
            violations.append(
                f"{series}: gldim {report.gldim} but reduced gldim {reduced_gldim}"
            )
    if step.is_cyclic == report.quasi_hereditary:
        violations.append(f"{series}: quasi-heredity disagrees with reduction shape")
    return violations


_SUITES = {  # suite -> (its theorem, noun for the algebras it checks, predicate or None)
    "sconnected-qh": (
        "S-connected iff quasi-hereditary, on every connected non-semisimple algebra.",
        "algebras", _sconnected_qh),
    "brown": ("Brown's bound on quasi-hereditary algebras (lambda_1, +1 when cyclic).",
              "quasi-hereditary algebras", _brown),
    "generalized-inequality": (
        "gldim <= a + lambda_c for every attained c, plus the linear sink bound.",
        "algebras", lambda p: check_inequalities(p.series, p.report)),
    "madsen": ("Odd-pd modules attain their pd on a composition factor.", "algebras", _madsen),
    "parity": ("Odd attainment and even interpolation of simple pd values.",
               "finite-gldim algebras", _parity),
    "chain": ("Maximal global dimension iff the defining relations form a chain.",
              "algebras", _chain),
    "fibonacci": ("Census counts match the Fibonacci values, all three routes agreeing.",
                  None, None),
    "epsilon": ("Tower terminal, vertex count, dimension drop by two, and reduction shape.",
                "cyclic non-selfinjective algebras", _epsilon),
}


def _sweep_shard(names, n: int, kind: str, first: int):
    """One shard's raw results: {suite: [algebras checked, violations]} and its census tally."""
    checks = {name: _SUITES[name][2] for name in names if _SUITES[name][2]}
    found = {name: [0, []] for name in checks}
    fibonacci, tally = "fibonacci" in names, _MaximalTally(n, kind)
    tabled, reduced = "madsen" in checks, {}
    for series in _cyclic_with_first(n, first) if kind == CYCLIC else enumerate_linear(n):
        profile = _Profile(series, tabled, reduced)
        for name, predicate in checks.items():
            violations = predicate(profile)
            if violations is not None:
                found[name][0] += 1
                found[name][1].extend(violations)
        if fibonacci:
            tally.add(series, is_maximal(profile.report), profile.r, _chain(profile))
    reduced.clear()  # the memo is this shard's alone; its profiles refer to it, so free them now
    return found, tally


class _Sweep:
    """One pass over the n-vertex algebras giving each named suite's (detail, violations).

    ``shards`` are the raw results of ``_shards(n, cap)`` in order, when a pool
    computed them; without them the pass runs in this process when ``results``
    is first read, inside the first suite call, so an unread sweep costs nothing.
    """

    def __init__(self, names, n: int, cap=None, shards=None):
        self.names, self.n, self.cap, self.shards = names, n, cap, shards

    @_lazy
    def results(self) -> dict:
        shards = self.shards
        if shards is None:
            shards = [_sweep_shard(self.names, self.n, *s) for s in _shards(self.n, self.cap)]
        results = {name: (f"{sum(found[name][0] for found, _ in shards)} {_SUITES[name][1]}",
                          [v for found, _ in shards for v in found[name][1]])
                   for name in self.names if _SUITES[name][2]}
        if "fibonacci" in self.names:
            tallies = {kind: _MaximalTally(self.n, kind, self.cap) for kind in (CYCLIC, LINEAR)}
            for _, tally in shards:
                tallies[tally.kind].merge(tally)
            totals = [tally.rows()[-1] for tally in tallies.values()]
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
    below 2n-1 is compared as ``_MaximalTally`` says.  Disagreements go to the
    rows' ``violations``; the homology theorems are left to ``nakayama verify``.
    """
    rows = []
    for n in ns:
        if n < 2:
            raise NakayamaError(f"census needs n >= 2, got {n}")
        tally = _MaximalTally(n, kind, cap)
        for shard_kind, first in _shards(n, cap):
            if shard_kind == kind:
                tally.merge(_sweep_shard(("fibonacci",), n, kind, first)[1])
        rows.extend(tally.rows())
    return CensusTable(kind, tuple(rows))


def _suite(name: str, statement: str):
    """The public ``suite_<name>(n, cap=None, sweep=None)``, documented by its theorem."""
    def suite(n: int, cap=None, sweep=None) -> tuple[str, list[str]]:
        return (sweep or _Sweep((name,), n, cap)).results[name]
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
        with multiprocessing.Pool(processes=workers) as pool:
            raw = dict(zip((task[1:] for task in tasks),
                           pool.starmap(_sweep_shard, tasks, chunksize=1)))
        shards = {n: [raw[(n, *shard)] for shard in _shards(n, cap)] for n in ns}
    merged = {name: ([], []) for name in names}
    for n in ns:
        sweep = _Sweep(names, n, cap, shards[n])
        for name in names:
            detail, violations = _SUITE_FUNCTIONS[name](n, cap, sweep)
            merged[name][0].append(f"n={n}: {detail}")
            merged[name][1].extend(violations)
    return merged
