import dataclasses
import functools
import json
import random
import time
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakayama import (
    CYCLIC,
    INFINITE,
    LINEAR,
    KupischSeries,
    UniserialModule,
    check_inequalities,
    check_madsen,
    check_parity_interpolation,
    enumerate_cyclic,
    enumerate_linear,
    homology_report,
    kupisch_to_relations,
    pd_simples,
    projective_dimension,
    syzygy,
    validate,
)
from nakayama.errors import InternalError
from nakayama.homology import _module_table, _pd_walk, all_modules

from conftest import any_series, cyclic_series, enumerated_series, input_error, linear_series
from oracles import module_vertices, oracle_module_table, oracle_pd, oracle_quasi_hereditary


def all_algebras(n_max, cap=None):
    for n in range(1, n_max + 1):
        yield from enumerate_cyclic(n, cap)
        if n >= 2:
            yield from enumerate_linear(n)


# ---------------------------------------------------------------------------
# projective dimension
# ---------------------------------------------------------------------------

def test_pd_worked_example():
    s = validate(CYCLIC, (3, 4, 4))
    assert projective_dimension(s, UniserialModule(1, 1)) == 4
    assert projective_dimension(s, UniserialModule(3, 1)) == 1
    assert pd_simples(s) == (4, 3, 1)


def test_pd_infinite_cases():
    assert projective_dimension(validate(CYCLIC, (2, 2, 2)), UniserialModule(1, 1)) == INFINITE
    assert projective_dimension(validate(CYCLIC, (4, 6, 5)), UniserialModule(1, 1)) == INFINITE


def test_pd_projective_is_zero():
    s = validate(CYCLIC, (3, 4, 4))
    assert projective_dimension(s, UniserialModule(1, 3)) == 0


def test_pd_memoized_matches_fresh():
    # acceptance range n <= 5, entries <= 9: shared-memo answers equal
    # fresh-walk answers for every module, in arbitrary query orders
    for series in all_algebras(5, cap=9):
        memo = {}
        modules = [
            UniserialModule(v, length)
            for v in range(1, series.n + 1)
            for length in range(1, series.c[v - 1] + 1)
        ]
        shared = [projective_dimension(series, m, memo) for m in modules]
        again = [projective_dimension(series, m, memo) for m in modules]
        fresh = [projective_dimension(series, m) for m in modules]
        reverse = [projective_dimension(series, m, {}) for m in reversed(modules)]
        assert shared == fresh == again
        assert list(reversed(reverse)) == fresh


@pytest.mark.parametrize("n", range(1, 6))
def test_module_table_matches_the_oracles(n):
    # every module of every cyclic series (default cap and cap n + 2) and
    # every linear series: the table's pd against explicit kernels
    algebras = [*enumerate_cyclic(n), *enumerate_cyclic(n, n + 2)]
    if n >= 2:
        algebras += enumerate_linear(n)
    for series in algebras:
        table = _module_table(series)
        assert [len(row) for row in table] == list(series.c)
        for m in all_modules(series):
            assert table[m.top - 1][m.length - 1] == oracle_pd(series, m), (series, m)


@functools.lru_cache(maxsize=None)
def small_algebras():
    """``conftest.enumerated_series`` with n <= 6: cyclic at the default cap and
    up to entries 3n + 1 (so past n + 3), and every linear series."""
    return tuple(s for s in enumerated_series() if s.n <= 6)


def test_module_table_matches_the_single_step_walk():
    for series in small_algebras():
        assert _module_table(series) == oracle_module_table(series), series


def _on_a_cycle(series, t):
    """Whether row t (0-based) lies on a cycle of t -> t + c_t, which a line has none of."""
    c, n, u = series.c, series.n, t
    for _ in range(n if series.kind == CYCLIC else 0):
        u = (u + c[u]) % n
        if u == t:
            return True
    return False


def test_module_table_matches_the_single_step_walk_on_drawn_series():
    rows = Counter()  # (kind, on a cycle) of every drawn row

    @given(st.one_of(
        st.integers(1, 10).flatmap(
            lambda n: cyclic_series(min_n=n, max_n=n, max_entry=3 * n + 1)),
        linear_series(max_n=12)))
    @settings(max_examples=300)
    def check(series):
        assert _module_table(series) == oracle_module_table(series)
        rows.update((series.kind, _on_a_cycle(series, t)) for t in range(series.n))

    check()
    # rows on a cycle come from the walk, the others from the row they jump to
    assert rows[CYCLIC, True] and rows[CYCLIC, False] and rows[LINEAR, False]


def test_the_jump_is_two_syzygy_steps():
    # the homology docstring's Omega^2 M(t, l) = M(t + c_t, d), d = c_{t+l} - c_t + l,
    # with d = 0 exactly when Omega M is projective
    jumps = 0
    for series in small_algebras():
        c, n = series.c, series.n
        for m in all_modules(series):
            t, l = m.top, m.length
            if l == c[t - 1]:
                continue
            d = c[(t + l - 1) % n] - c[t - 1] + l
            omega = syzygy(series, m)
            if omega.length == c[omega.top - 1]:
                assert d == 0, (series, m)
            else:
                jump = UniserialModule((t + c[t - 1] - 1) % n + 1, d)
                assert syzygy(series, omega) == jump, (series, m)
                jumps += 1
    assert jumps


def test_pd_with_one_shared_memo_in_shuffled_order_matches_the_single_step_walk():
    rng = random.Random(5)
    for series in small_algebras():
        table, memo = oracle_module_table(series), {}
        modules = list(all_modules(series))
        rng.shuffle(modules)
        for m in modules:
            assert projective_dimension(series, m, memo) == table[m.top - 1][m.length - 1], (
                series, m)


@pytest.mark.parametrize("kind", [CYCLIC, LINEAR])
def test_a_table_of_a_series_that_drops_by_two_is_an_internal_error(kind):
    # KupischSeries refuses (4, 2, 2), so only a bug inside the package could pass it
    stand_in = types.SimpleNamespace(kind=kind, c=(4, 2, 2), n=3)
    with pytest.raises(InternalError):
        _module_table(stand_in)


@pytest.mark.parametrize("c", [(4, 2, 2), (2, 4, 2)])
def test_a_jump_that_leaves_the_modules_is_an_internal_error(c):
    # over (4, 2, 2) Omega M(1, 1) is too long; over (2, 4, 2) Omega^2 M(1, 1) is
    with pytest.raises(InternalError):
        _pd_walk(c, 1, 1, {})


def test_pd_simples_shortcut_matches_the_walk():
    # pd_simples gives pd 1 without a walk where c_{v+1} = c_v - 1; every simple is
    # walked here on a fresh memo, and for n <= 5 also stepped by the oracle
    shortcuts = 0
    for series in enumerated_series():
        c, n = series.c, series.n
        pds = pd_simples(series)
        assert pds == tuple(_pd_walk(c, v, 1, {}) for v in range(1, n + 1)), series
        shortcuts += sum(1 for v in range(1, n + 1) if c[v % n] == c[v - 1] - 1)
        if n <= 5:
            assert pds == tuple(oracle_pd(series, UniserialModule(v, 1))
                                for v in range(1, n + 1)), series
    assert shortcuts


@pytest.mark.parametrize("kind, c", [(CYCLIC, (4, 2, 2)), (LINEAR, (3, 1, 1))])
def test_pd_simples_of_a_series_that_drops_by_two_is_an_internal_error(kind, c):
    # c_2 = c_1 - 2 must be walked, and the walk raises.  Over (4, 2, 2) the walk from S_2
    # passes M(1, 1) too; over (3, 1, 1) S_2 and S_3 are projective, so only S_1's walk raises
    stand_in = types.SimpleNamespace(kind=kind, c=c, n=3)
    with pytest.raises(InternalError):
        pd_simples(stand_in)


@given(any_series(max_n=4, max_entry=7))
@settings(max_examples=150)
def test_pd_matches_oracle(series):
    for v in range(1, series.n + 1):
        for length in range(1, series.c[v - 1] + 1):
            m = UniserialModule(v, length)
            assert projective_dimension(series, m) == oracle_pd(series, m)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

def test_report_not_sconnected_example():
    r = homology_report(validate(CYCLIC, (3, 4, 4)))
    assert sorted(r.pd_simple) == [1, 3, 4]
    assert r.gldim == 4
    assert r.o_set == (1, 3, 4)
    assert r.s_connected is False
    assert r.quasi_hereditary is False
    assert r.a_min == 1
    assert r.brown_slack == 1 + 2 - 4


def test_report_sharp_example():
    r = homology_report(validate(CYCLIC, (3, 2, 2)))
    assert sorted(r.pd_simple) == [1, 2, 3]
    assert r.gldim == 3
    assert r.o_set == (1, 2, 3)
    assert r.s_connected is True
    assert r.quasi_hereditary is True
    assert r.lam[1] == 2
    assert r.gldim == r.lam[1] + 1


def test_report_linear_path_algebra():
    r = homology_report(validate(LINEAR, (4, 3, 2, 1)))
    assert r.pd_simple == (1, 1, 1, 0)
    assert r.gldim == 1
    assert r.o_set == (0, 1)
    assert r.lam[1] == 1
    assert r.gldim == r.lam[1]


def test_report_selfinjective():
    r = homology_report(validate(CYCLIC, (2, 2)))
    assert r.gldim == INFINITE
    assert r.o_set == ()
    assert r.a_min is None
    assert r.s_connected is None
    assert r.quasi_hereditary is False
    assert r.brown_slack is None


def test_quasi_heredity_examples_by_definition():
    assert not oracle_quasi_hereditary(validate(CYCLIC, (2,)))  # its loop: e_1Ae_1 != k
    assert oracle_quasi_hereditary(validate(CYCLIC, (3, 2, 2)))  # e_2, then the line 3 -> 1
    assert oracle_quasi_hereditary(validate(LINEAR, (2, 2, 2, 1)))
    assert not oracle_quasi_hereditary(validate(CYCLIC, (3, 4, 4)))  # finite gldim all the same


def test_quasi_heredity_criterion_matches_the_definition():
    # the report's criterion (pd 0 or 2 among the simples) against a heredity-chain search
    checked = 0
    for series in enumerated_series():
        if series.n <= 6:
            criterion = homology_report(series).quasi_hereditary
            assert criterion == oracle_quasi_hereditary(series), series
            checked += 1
    assert checked == 2630


def test_report_mixed_finiteness():
    # one simple of infinite pd alongside finite ones
    r = homology_report(validate(CYCLIC, (4, 6, 5)))
    assert r.pd_simple == (INFINITE, 1, 1)
    assert r.o_set == (1,)
    assert r.lam[1] == 1
    assert r.s_connected is None


def test_lambda_restricted_to_attained_values():
    r = homology_report(validate(CYCLIC, (3, 2, 2)))
    with pytest.raises(KeyError):
        r.lam[5]


def test_lambda_counts_match_a_per_value_count():
    for series in enumerated_series():
        report = homology_report(series)
        pds = report.pd_simple
        expected = {cc: sum(1 for p in pds if p != cc) for cc in report.o_set}
        assert list(report.lam.items()) == list(expected.items()), series


def test_report_flags_match_their_definitions():
    # s_connected is a length test on o_set; pin it to the interval it stands for
    finite = 0
    for series in enumerated_series():
        r = homology_report(series)
        if r.gldim == INFINITE:
            continue
        finite += 1
        assert r.s_connected == (r.o_set == tuple(range(r.a_min, r.gldim + 1))), series
        assert r.brown_slack == r.a_min + min(r.lam.values()) - r.gldim, series
    assert finite


@pytest.mark.parametrize("first_column", [(1, 3, 0), (2, 1, 1)])
def test_a_line_whose_simple_pds_are_not_0_to_gldim_is_an_internal_error(first_column):
    # (1, 3, 0) has a gap at 2, (2, 1, 1) has no 0; no valid line gets here
    stand_in = types.SimpleNamespace(kind=LINEAR, c=(3, 2, 1), n=3)
    table = [[p] for p in first_column]
    with pytest.raises(InternalError, match="has simple pds"):
        homology_report(stand_in, table)


def test_report_on_a_long_line():
    # the report is near-linear in n: a quadratic lambda count takes minutes here
    n = 100_000
    series = validate(LINEAR, (2,) * (n - 1) + (1,))
    start = time.process_time()
    report = homology_report(series)
    assert time.process_time() - start < 10
    assert report.gldim == n - 1
    assert report.o_set == tuple(range(n))
    assert all(report.lam[cc] == n - 1 for cc in report.o_set)


def test_lambda_one_equals_relation_count():
    for series in all_algebras(5, cap=9):
        if series.is_selfinjective or series.c == (1,):  # (1,) is the semisimple algebra
            continue
        assert homology_report(series).lambda_one == kupisch_to_relations(series).r


def test_linear_o_set_is_full_interval():
    for n in range(2, 8):
        for series in enumerate_linear(n):
            r = homology_report(series)
            assert r.o_set == tuple(range(0, r.gldim + 1))


def test_report_json_stable():
    r = homology_report(validate(CYCLIC, (4, 6, 5)))
    first = json.dumps(r.to_dict(), sort_keys=True)
    second = json.dumps(homology_report(validate(CYCLIC, (4, 6, 5))).to_dict(), sort_keys=True)
    assert first == second
    payload = json.loads(first)
    assert payload["gldim"] == "inf"
    assert payload["pd_simple"] == ["inf", 1, 1]
    assert list(payload) == sorted(payload)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def test_madsen_examples():
    assert check_madsen(validate(CYCLIC, (3, 4, 4))) == []
    assert check_madsen(validate(CYCLIC, (3, 2, 2))) == []
    assert check_madsen(validate(CYCLIC, (2, 2, 2))) == []  # vacuous


def _madsen_by_definition(series, memo=None):
    """Violating modules of the Madsen property, one module at a time."""
    memo = {} if memo is None else memo
    simple = [projective_dimension(series, UniserialModule(v, 1), memo)
              for v in range(1, series.n + 1)]
    bad = []
    for m in all_modules(series):
        p = projective_dimension(series, m, memo)
        if p == INFINITE or p % 2 == 0:
            continue
        finite = [simple[v - 1] for v in module_vertices(series, m)
                  if simple[v - 1] != INFINITE]
        if not finite or max(finite) != p:
            bad.append(m)
    return bad


def test_madsen_running_maximum_matches_definition():
    for series in all_algebras(5):
        assert check_madsen(series) == _madsen_by_definition(series), series


def test_madsen_reports_a_module_whose_pd_misses_its_factors():
    # pd M(1,2) = 5 is injected through the module table; its factors have pd 1
    series = validate(LINEAR, (3, 2, 1))
    table = _module_table(series)
    table[0][1] = 5
    found = check_madsen(series, table)
    assert found == [UniserialModule(1, 2)]
    assert found == _madsen_by_definition(series, {(1, 2): 5})


def test_parity_examples():
    assert check_parity_interpolation(validate(CYCLIC, (3, 4, 4))) == []
    assert check_parity_interpolation(validate(CYCLIC, (3, 2, 2))) == []
    assert check_parity_interpolation(validate(LINEAR, (2, 1))) == []
    with input_error("[2,2] has infinite global dimension"):
        check_parity_interpolation(validate(CYCLIC, (2, 2)))


def test_inequalities_examples():
    assert check_inequalities(validate(CYCLIC, (3, 2, 2))) == []
    assert check_inequalities(validate(LINEAR, (2, 2, 2, 1))) == []
    assert check_inequalities(validate(CYCLIC, (3, 4, 4))) == []  # vacuous case


def test_gustafson_guard_reports_gldim_above_2n_minus_2():
    series = validate(CYCLIC, (3, 4, 4))
    report = homology_report(series)
    assert check_inequalities(series, report) == []
    raised = dataclasses.replace(report, gldim=2 * series.n - 1)
    assert f"{series}: gldim 5 > 2n - 2 = 4" in check_inequalities(series, raised)


@pytest.mark.parametrize("n", range(2, 8))
def test_gustafson_bound_is_attained(n):
    finite = [g for g in (homology_report(s).gldim for s in enumerate_cyclic(n)) if g != INFINITE]
    assert max(finite) == 2 * n - 2


def test_inequalities_equality_attained():
    r = homology_report(validate(LINEAR, (2, 2, 2, 1)))
    assert r.gldim == 3 == r.lam[1]
    assert r.brown_slack == 0
