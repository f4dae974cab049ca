"""Machine verification suites for the structural theorems.

Each suite sweeps the full enumeration (cyclic entries capped at 2n-1 by
default, every linear series) up to a given vertex count and returns a
list of violation strings; an empty list means the theorem held on every
instance.  ``run_suites`` executes several suites, optionally spreading
the per-n work over a process pool; the merge is deterministic, so the
number of workers never changes any result.
"""

from __future__ import annotations

import multiprocessing

from .core import CYCLIC, LINEAR, kupisch_to_relations, syzygy
from .enumeration import (
    census,
    enumerate_cyclic,
    enumerate_linear,
    fibonacci,
    is_chain,
    is_maximal,
)
from .errors import NotFiltered
from .filtration import TERMINAL_LINEAR, base_set, delta_filtration, epsilon_tower
from .homology import (
    INFINITE,
    all_modules,
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


def _cyclic_non_selfinjective(n: int, cap=None):
    return (series for series in enumerate_cyclic(n, cap) if not series.is_selfinjective)


def _sweep(algebras, noun, check):
    """Run ``check`` on every algebra; it returns None to skip one, else its violations."""
    count = 0
    violations = []
    for series in algebras:
        found = check(series)
        if found is not None:
            count += 1
            violations.extend(found)
    return f"{count} {noun}", violations


def _sconnected_qh(series):
    report = homology_report(series)
    if report.s_connected is None:
        # undefined for infinite global dimension; quasi-heredity must fail too
        if report.quasi_hereditary:
            return [f"{series}: infinite gldim but quasi-hereditary"]
    elif report.s_connected != report.quasi_hereditary:
        return [f"{series}: s_connected={report.s_connected}"
                f" != quasi_hereditary={report.quasi_hereditary}"]
    return []


def _brown(series):
    report = homology_report(series)
    if not report.quasi_hereditary:
        return None
    if report.gldim > report.brown_bound:
        return [f"{series}: gldim {report.gldim} > {report.brown_bound}"]
    return []


def _madsen(series):
    return [f"{series}: fails at {m}" for m in check_madsen(series)]


def _parity(series):
    if homology_report(series).gldim == INFINITE:
        return None
    return check_parity_interpolation(series)


def _chain(series):
    maximal = is_maximal(homology_report(series))
    chain = is_chain(kupisch_to_relations(series))
    return [] if maximal == chain else [f"{series}: maximal={maximal} but chain={chain}"]


def _epsilon(series):
    violations = []
    report = homology_report(series)
    finite = report.gldim != INFINITE
    tower = epsilon_tower(series)
    if (tower.terminal == TERMINAL_LINEAR) != finite:
        violations.append(f"{series}: terminal {tower.terminal} but gldim {report.gldim}")
    step = tower.steps[0]
    if step.vertex_count != kupisch_to_relations(series).r:
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
    basis = base_set(series)
    for m in all_modules(series):
        first = syzygy(series, m)
        second = syzygy(series, first) if first is not None else None
        if second is None:
            continue
        try:
            delta_filtration(series, second, basis)
        except NotFiltered as exc:
            violations.append(f"{series}: {second} not tiled ({exc})")
    return violations


def suite_sconnected_qh(n: int, cap=None) -> tuple[str, list[str]]:
    """S-connected iff quasi-hereditary, on every connected non-semisimple algebra."""
    return _sweep(_all_algebras(n, cap), "algebras", _sconnected_qh)


def suite_brown(n: int, cap=None) -> tuple[str, list[str]]:
    """Brown's bound on quasi-hereditary algebras (lambda_1, +1 when cyclic)."""
    return _sweep(_all_algebras(n, cap), "quasi-hereditary algebras", _brown)


def suite_generalized_inequality(n: int, cap=None) -> tuple[str, list[str]]:
    """gldim <= a + lambda_c for every attained c, plus the linear sink bound."""
    return _sweep(_all_algebras(n, cap), "algebras", check_inequalities)


def suite_madsen(n: int, cap=None) -> tuple[str, list[str]]:
    """Odd-pd modules attain their pd on a composition factor."""
    return _sweep(_all_algebras(n, cap), "algebras", _madsen)


def suite_parity(n: int, cap=None) -> tuple[str, list[str]]:
    """Odd attainment and even interpolation of simple pd values."""
    return _sweep(_all_algebras(n, cap), "finite-gldim algebras", _parity)


def suite_chain(n: int, cap=None) -> tuple[str, list[str]]:
    """Maximal global dimension iff the defining relations form a chain."""
    return _sweep(_all_algebras(n, cap), "algebras", _chain)


def suite_fibonacci(n: int, cap=None) -> tuple[str, list[str]]:
    """Census counts match the Fibonacci values, all three routes agreeing."""
    details = []
    violations = []
    for kind, index in ((CYCLIC, 2 * n - 2), (LINEAR, 2 * n - 3)):
        table = census([n], kind, cap=cap)
        violations.extend(table.violations)
        details.append(f"{kind} {table.counts()[n]} (F={fibonacci(index)})")
    return "; ".join(details), violations


def suite_epsilon(n: int, cap=None) -> tuple[str, list[str]]:
    """Tower terminal, dimension drop by two, and second-syzygy tiling."""
    return _sweep(_cyclic_non_selfinjective(n, cap), "cyclic non-selfinjective algebras",
                  _epsilon)


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
    name, n, cap = task
    detail, violations = _SUITE_FUNCTIONS[name](n, cap)
    return name, n, detail, violations


def run_suites(names, n_max: int, cap=None, jobs: int = 1):
    """Run the named suites for every n up to n_max.

    Returns {suite: (details-by-n, violations)}.  Results are merged in
    (suite, n) order regardless of worker scheduling, so the output is
    identical for any ``jobs``.
    """
    names = list(dict.fromkeys(names))
    for name in names:
        if name not in _SUITE_FUNCTIONS:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    tasks = [(name, n, cap) for name in names for n in range(2, n_max + 1)]
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(processes=jobs) as pool:
            outcomes = pool.map(_run_task, tasks, chunksize=1)
    else:
        outcomes = [_run_task(task) for task in tasks]
    merged = {name: ([], []) for name in names}
    for name, n, detail, violations in sorted(
        outcomes, key=lambda item: (names.index(item[0]), item[1])
    ):
        merged[name][0].append(f"n={n}: {detail}")
        merged[name][1].extend(violations)
    return merged
