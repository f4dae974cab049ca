"""Acceptance suite: every release criterion, at its stated tolerance.

Each test prints one PASS line on success (visible with ``pytest -s`` or
``-v``); a failing criterion fails its test.  All counts are exact; the
three timed criteria assert their stated wall-clock budgets.
"""

import time

from nakayama import (
    CYCLIC,
    INFINITE,
    LINEAR,
    UniserialModule,
    base_set,
    census,
    count_closed_form,
    delta_filtration,
    enumerate_chains,
    enumerate_cyclic,
    enumerate_linear,
    epsilon,
    epsilon_tower,
    homology_report,
    is_chain,
    kupisch_to_relations,
    projective_dimension,
    syzygy,
    validate,
)
from nakayama.filtration import TERMINAL_LINEAR
from nakayama.verify import (
    suite_brown,
    suite_generalized_inequality,
    suite_madsen,
    suite_parity,
    suite_sconnected_qh,
)

from conftest import all_algebras
from oracles import oracle_pd, oracle_syzygy


def report_line(number, text):
    print(f"PASS  criterion {number:2d}: {text}")


def test_criterion_01_worked_example_reproduction():
    series = validate(CYCLIC, (3, 4, 4))
    best = min(
        _timed(lambda: homology_report(series))[1] for _ in range(5)
    )
    report = homology_report(series)
    assert sorted(report.pd_simple) == [1, 3, 4]
    assert report.gldim == 4
    assert report.s_connected is False
    assert report.quasi_hereditary is False
    assert best < 1e-3, f"took {best:.6f}s, budget 1ms"
    report_line(1, f"[3,4,4] -> pds {{1,3,4}}, gldim 4, not S-connected, "
                   f"not quasi-hereditary ({best * 1e6:.0f}us)")


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_criterion_02_cyclic_fibonacci_census():
    start = time.perf_counter()
    table = census(range(2, 8), CYCLIC)
    elapsed = time.perf_counter() - start
    counts = table.counts()
    assert table.violations == []
    assert [counts[n] for n in range(2, 8)] == [1, 3, 8, 21, 55, 144]
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
    report_line(2, f"cyclic census n=2..7 = 1,3,8,21,55,144 ({elapsed:.2f}s)")


def test_criterion_03_linear_fibonacci_census():
    start = time.perf_counter()
    table = census(range(2, 11), LINEAR)
    elapsed = time.perf_counter() - start
    counts = table.counts()
    assert table.violations == []
    assert [counts[n] for n in range(2, 11)] == [1, 2, 5, 13, 34, 89, 233, 610, 1597]
    assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"
    report_line(3, f"linear census n=2..10 = 1,2,5,...,1597 ({elapsed:.2f}s)")


def test_criterion_04_chain_count_identities():
    assert count_closed_form(4, 2, CYCLIC) == 4
    assert count_closed_form(3, 1, CYCLIC) == 2
    assert count_closed_form(3, 2, CYCLIC) == 1
    checked = 0
    for n in range(2, 9):
        for r in range(1, n):
            for kind in (CYCLIC, LINEAR):
                count = sum(1 for _ in enumerate_chains(n, r, kind))
                assert count == count_closed_form(n, r, kind), (n, r, kind)
                checked += 1
    report_line(4, f"chain enumeration = binomial closed form on {checked} (n,r,kind) cells")


def test_criterion_05_main_theorem_suite():
    checked = 0
    for n in range(2, 7):
        detail, violations = suite_sconnected_qh(n)
        assert violations == [], violations[:5]
        checked += int(detail.split()[0])
    report_line(5, f"S-connected <=> quasi-hereditary on {checked} algebras (n<=6)")


def test_criterion_06_inequality_suites():
    total = 0
    for n in range(2, 7):
        for suite in (suite_generalized_inequality, suite_brown):
            detail, violations = suite(n)
            assert violations == [], violations[:5]
            total += int(detail.split()[0])
    report_line(6, "interval, Brown, and sink bounds hold with zero violations (n<=6)")


def test_criterion_07_parity_and_madsen_suites():
    for n in range(2, 6):
        for suite in (suite_parity, suite_madsen):
            detail, violations = suite(n, cap=9)
            assert violations == [], violations[:5]
    report_line(7, "odd attainment, even interpolation, odd-pd factor property "
                   "(n<=5, entries<=9)")


def test_criterion_08_chain_theorem_both_directions():
    checked = 0
    for series in all_algebras(6):
        if series.kind == LINEAR:
            continue
        maximal = homology_report(series).is_maximal
        chain = is_chain(kupisch_to_relations(series))
        assert maximal == chain, str(series)
        checked += 1
    for n in range(2, 9):
        for series in enumerate_linear(n):
            maximal = homology_report(series).is_maximal
            chain = is_chain(kupisch_to_relations(series))
            assert maximal == chain, str(series)
            checked += 1
    report_line(8, f"maximal gldim <=> chain relations on {checked} algebras")


def test_criterion_09_tower_properties():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for series in enumerate_cyclic(n):
            if series.is_selfinjective:
                continue
            checked += 1
            report = homology_report(series)
            finite = report.gldim != INFINITE
            tower = epsilon_tower(series)
            assert (tower.terminal == TERMINAL_LINEAR) == finite, str(series)
            if finite:
                step = epsilon(series)
                reduced = max(homology_report(k).gldim for k in step.components)
                assert report.gldim == reduced + 2, str(series)
            basis = base_set(series)
            for v in range(1, series.n + 1):
                for length in range(1, series.c[v - 1] + 1):
                    first = syzygy(series, UniserialModule(v, length))
                    if first is None:
                        continue
                    second = syzygy(series, first)
                    if second is None:
                        continue
                    indices = delta_filtration(series, second, basis)
                    assert sum(basis.deltas[j].length for j in indices) == second.length
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"
    report_line(9, f"tower terminal/drop/tiling on {checked} cyclic algebras "
                   f"({elapsed:.2f}s)")


def test_criterion_10_oracle_equivalence():
    checked = 0
    for n in range(1, 5):
        algebras = list(enumerate_cyclic(n, 7))
        if n >= 2:
            algebras += list(enumerate_linear(n))
        for series in algebras:
            for v in range(1, series.n + 1):
                for length in range(1, series.c[v - 1] + 1):
                    m = UniserialModule(v, length)
                    assert syzygy(series, m) == oracle_syzygy(series, m)
                    assert projective_dimension(series, m) == oracle_pd(series, m)
                    checked += 1
    report_line(10, f"syzygy and pd match the composition-series oracle on "
                    f"{checked} modules")
