import json

import pytest
from hypothesis import given, settings

from nakayama import (
    CYCLIC,
    INFINITE,
    LINEAR,
    KupischSeries,
    UniserialModule,
    check_inequalities,
    check_madsen,
    check_parity_interpolation,
    composition_factors,
    enumerate_cyclic,
    enumerate_linear,
    homology_report,
    kupisch_to_relations,
    pd_simples,
    projective_dimension,
    syzygy_orbit,
    validate,
)
from nakayama.errors import InfiniteGlobalDimension
from nakayama.homology import all_modules

from conftest import any_series
from oracles import oracle_pd


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


@given(any_series(max_n=5, max_entry=9))
@settings(max_examples=150)
def test_orbit_bounded_by_total_dimension(series):
    bound = sum(series.c)
    for v in range(1, series.n + 1):
        orbit = list(syzygy_orbit(series, UniserialModule(v, 1)))
        assert len(orbit) <= bound


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


def test_lambda_one_equals_relation_count():
    for series in all_algebras(5, cap=9):
        if series.is_selfinjective or series.is_semisimple:
            continue
        assert homology_report(series).lambda_one == kupisch_to_relations(series).r


def test_linear_o_set_is_full_interval():
    for n in range(2, 8):
        for series in enumerate_linear(n):
            r = homology_report(series)
            assert r.o_set == tuple(range(0, r.gldim + 1))


def test_report_json_stable():
    r = homology_report(validate(CYCLIC, (4, 6, 5)))
    first, second = r.to_json(), homology_report(validate(CYCLIC, (4, 6, 5))).to_json()
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
    simple = pd_simples(series, memo)
    bad = []
    for m in all_modules(series):
        p = projective_dimension(series, m, memo)
        if p == INFINITE or p % 2 == 0:
            continue
        finite = [simple[v - 1] for v in composition_factors(series, m)
                  if simple[v - 1] != INFINITE]
        if not finite or max(finite) != p:
            bad.append(m)
    return bad


def test_madsen_running_maximum_matches_definition():
    for series in all_algebras(5):
        assert check_madsen(series) == _madsen_by_definition(series), series


def test_madsen_reports_a_module_whose_pd_misses_its_factors():
    # pd M(1,2) = 5 is injected through the memo; its factors have pd 1
    series = validate(LINEAR, (3, 2, 1))
    found = check_madsen(series, {(1, 2): 5})
    assert found == [UniserialModule(1, 2)]
    assert found == _madsen_by_definition(series, {(1, 2): 5})


def test_parity_examples():
    assert check_parity_interpolation(validate(CYCLIC, (3, 4, 4))) == []
    assert check_parity_interpolation(validate(CYCLIC, (3, 2, 2))) == []
    assert check_parity_interpolation(validate(LINEAR, (2, 1))) == []
    with pytest.raises(InfiniteGlobalDimension):
        check_parity_interpolation(validate(CYCLIC, (2, 2)))


def test_inequalities_examples():
    assert check_inequalities(validate(CYCLIC, (3, 2, 2))) == []
    assert check_inequalities(validate(LINEAR, (2, 2, 2, 1))) == []
    assert check_inequalities(validate(CYCLIC, (3, 4, 4))) == []  # vacuous case


def test_inequalities_equality_attained():
    r = homology_report(validate(LINEAR, (2, 2, 2, 1)))
    assert r.gldim == 3 == r.lam[1]
    assert r.brown_slack == 0
