"""Machine verification suites for the structural theorems.

Each suite sweeps the full enumeration (cyclic entries capped at 2n-1 by
default, every linear series) up to a given vertex count and returns a
list of violation strings; an empty list means the theorem held on every
instance.  ``run_suites`` runs the requested suites in one sweep per n,
optionally one n per worker of a process pool; the merge is deterministic,
so the number of workers never changes any result.
"""

from __future__ import annotations

import multiprocessing
from contextvars import ContextVar
from functools import cached_property

from .core import CYCLIC, LINEAR, UniserialModule, _syzygy_step, kupisch_to_relations
from .enumeration import _MaximalTally, enumerate_cyclic, enumerate_linear, is_chain, is_maximal
from .errors import NotFiltered
from .filtration import TERMINAL_LINEAR, base_set, delta_filtration, epsilon_tower
from .homology import (
    INFINITE,
    check_inequalities,
    check_madsen,
    check_parity_interpolation,
    homology_report,
)

SUITES = (
    "sconnected-qh",
    "brown",
    "generalized-inequality",
    "madsen",
    "parity",
    "chain",
    "fibonacci",
    "epsilon",
)


def _all_algebras(n: int, cap=None):
    if n >= 1:
        yield from enumerate_cyclic(n, cap)
    if n >= 2:
        yield from enumerate_linear(n)


class _Profile:
    """One algebra and what the suites read about it, each computed on first use."""

    def __init__(self, series):
        self.series, self.memo = series, {}

    report = cached_property(lambda self: homology_report(self.series, self.memo))
    relations = cached_property(lambda self: kupisch_to_relations(self.series))
    chain = cached_property(lambda self: is_chain(self.relations))
    tower = cached_property(lambda self: epsilon_tower(self.series))
    basis = cached_property(lambda self: base_set(self.series))


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
    return [f"{profile.series}: fails at {m}" for m in check_madsen(profile.series, profile.memo)]


def _parity(profile):
    if profile.report.gldim == INFINITE:
        return None
    return check_parity_interpolation(profile.series, profile.memo)


def _chain(profile):
    maximal, chain = is_maximal(profile.report), profile.chain
    return [] if maximal == chain else [f"{profile.series}: maximal={maximal} but chain={chain}"]


def _epsilon(profile):
    series = profile.series
    if series.kind != CYCLIC or series.is_selfinjective:
        return None
    violations = []
    report = profile.report
    finite = report.gldim != INFINITE
    tower = profile.tower
    if (tower.terminal == TERMINAL_LINEAR) != finite:
        violations.append(f"{series}: terminal {tower.terminal} but gldim {report.gldim}")
    step = tower.steps[0]
    if step.vertex_count != profile.relations.r:
        violations.append(f"{series}: reduced algebra has {step.vertex_count}"
                          f" vertices, expected the relation count")
    if finite:
        reduced_gldim = max(
            homology_report(component).gldim for component in step.components
        )
        if reduced_gldim + 2 != report.gldim:
            violations.append(
                f"{series}: gldim {report.gldim} but reduced gldim {reduced_gldim}"
            )
    if step.is_cyclic == report.quasi_hereditary:
        violations.append(f"{series}: quasi-heredity disagrees with reduction shape")
    c, basis = series.c, profile.basis
    untiled = {}  # second syzygy (top, length) -> its violation, or None when tiled
    for top in range(1, series.n + 1):
        for length in range(1, c[top - 1]):  # projectives have no syzygy
            first = _syzygy_step(c, True, top, length)
            if first[1] == c[first[0] - 1]:
                continue
            second = _syzygy_step(c, True, *first)
            if second not in untiled:
                module = UniserialModule(*second)
                try:
                    delta_filtration(series, module, basis)
                    untiled[second] = None
                except NotFiltered as exc:
                    untiled[second] = f"{series}: {module} not tiled ({exc})"
            if untiled[second]:
                violations.append(untiled[second])
    return violations


_CHECKS = {  # suite -> (noun for the algebras it checks, predicate)
    "sconnected-qh": ("algebras", _sconnected_qh),
    "brown": ("quasi-hereditary algebras", _brown),
    "generalized-inequality": ("algebras", lambda p: check_inequalities(p.series, p.report)),
    "madsen": ("algebras", _madsen),
    "parity": ("finite-gldim algebras", _parity),
    "chain": ("algebras", _chain),
    "epsilon": ("cyclic non-selfinjective algebras", _epsilon),
}


class _Sweep:
    """One pass over the n-vertex algebras giving each named suite's (detail, violations).

    The pass runs when ``results`` is first read, inside the first suite call
    of a task, so a task whose suites never read it costs nothing.
    """

    def __init__(self, names, n: int, cap=None):
        self.names, self.n, self.cap = names, n, cap

    @cached_property
    def results(self) -> dict:
        checks = {name: _CHECKS[name][1] for name in self.names if name in _CHECKS}
        found = {name: [0, []] for name in checks}  # algebras checked, violations
        fibonacci = "fibonacci" in self.names
        tallies = {kind: _MaximalTally(self.n, kind) for kind in (CYCLIC, LINEAR)}
        for series in _all_algebras(self.n, self.cap):
            profile = _Profile(series)
            for name, predicate in checks.items():
                violations = predicate(profile)
                if violations is not None:
                    found[name][0] += 1
                    found[name][1].extend(violations)
            if fibonacci:
                tallies[series.kind].add(series, is_maximal(profile.report),
                                         profile.relations.r, profile.chain)
        results = {name: (f"{count} {_CHECKS[name][0]}", violations)
                   for name, (count, violations) in found.items()}
        if fibonacci:
            totals = [tally.rows()[-1] for tally in tallies.values()]
            results["fibonacci"] = (
                "; ".join(f"{t.kind} {t.enumerated} (F={t.fibonacci})" for t in totals),
                [v for t in totals for v in t.violations],
            )
        return results


# The sweep that the suites of one run_suites task share.  Suites are called
# as _SUITE_FUNCTIONS[name](n, cap), so it reaches them through the context.
_task_sweep = ContextVar("_task_sweep", default=None)


def _result(name, n, cap):
    """The suite's (detail, violations) from the task's shared sweep, or from its own."""
    sweep = _task_sweep.get()
    if sweep is None or name not in sweep.names or (sweep.n, sweep.cap) != (n, cap):
        sweep = _Sweep((name,), n, cap)
    return sweep.results[name]


def suite_sconnected_qh(n: int, cap=None) -> tuple[str, list[str]]:
    """S-connected iff quasi-hereditary, on every connected non-semisimple algebra."""
    return _result("sconnected-qh", n, cap)


def suite_brown(n: int, cap=None) -> tuple[str, list[str]]:
    """Brown's bound on quasi-hereditary algebras (lambda_1, +1 when cyclic)."""
    return _result("brown", n, cap)


def suite_generalized_inequality(n: int, cap=None) -> tuple[str, list[str]]:
    """gldim <= a + lambda_c for every attained c, plus the linear sink bound."""
    return _result("generalized-inequality", n, cap)


def suite_madsen(n: int, cap=None) -> tuple[str, list[str]]:
    """Odd-pd modules attain their pd on a composition factor."""
    return _result("madsen", n, cap)


def suite_parity(n: int, cap=None) -> tuple[str, list[str]]:
    """Odd attainment and even interpolation of simple pd values."""
    return _result("parity", n, cap)


def suite_chain(n: int, cap=None) -> tuple[str, list[str]]:
    """Maximal global dimension iff the defining relations form a chain."""
    return _result("chain", n, cap)


def suite_fibonacci(n: int, cap=None) -> tuple[str, list[str]]:
    """Census counts match the Fibonacci values, all three routes agreeing."""
    return _result("fibonacci", n, cap)


def suite_epsilon(n: int, cap=None) -> tuple[str, list[str]]:
    """Tower terminal, dimension drop by two, and second-syzygy tiling."""
    return _result("epsilon", n, cap)


_SUITE_FUNCTIONS = {
    "sconnected-qh": suite_sconnected_qh,
    "brown": suite_brown,
    "generalized-inequality": suite_generalized_inequality,
    "madsen": suite_madsen,
    "parity": suite_parity,
    "chain": suite_chain,
    "fibonacci": suite_fibonacci,
    "epsilon": suite_epsilon,
}


def _run_task(task):
    names, n, cap = task
    token = _task_sweep.set(_Sweep(names, n, cap))
    try:
        return n, [_SUITE_FUNCTIONS[name](n, cap) for name in names]
    finally:
        _task_sweep.reset(token)


def run_suites(names, n_max: int, cap=None, jobs: int = 1):
    """Run the named suites for every n up to n_max, one shared sweep per n.

    Returns {suite: (details-by-n, violations)}.  With ``jobs`` > 1 the
    sweeps run on a pool of at most one worker per n; results are merged in
    (suite, n) order regardless of worker scheduling, so the output is
    identical for any ``jobs``.
    """
    names = list(dict.fromkeys(names))
    if not names:
        raise ValueError("no theorems selected")
    for name in names:
        if name not in _SUITE_FUNCTIONS:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [(names, n, cap) for n in range(2, n_max + 1)]
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            outcomes = pool.map(_run_task, tasks, chunksize=1)
    else:
        outcomes = [_run_task(task) for task in tasks]
    merged = {name: ([], []) for name in names}
    for n, results in outcomes:  # map keeps task order, which is n order
        for name, (detail, violations) in zip(names, results):
            merged[name][0].append(f"n={n}: {detail}")
            merged[name][1].extend(violations)
    return merged
