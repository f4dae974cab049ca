import copy
import math
import time

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import nakayama.verify
from nakayama import (
    CYCLIC,
    INFINITE,
    LINEAR,
    ChainSystem,
    KupischSeries,
    RelationSystem,
    canonical_form,
    census,
    count_closed_form,
    enumerate_chains,
    enumerate_cyclic,
    enumerate_linear,
    epsilon,
    fibonacci,
    homology_report,
    is_chain,
    kupisch_to_relations,
    relations_to_kupisch,
)
from nakayama.core import _canonical_c, _kupisch_c
from nakayama.enumeration import _chain_pairs, _cyclic_with_first, _linear_series
from nakayama.verify import _census_rows, _shards
from nakayama.errors import NakayamaError

from conftest import input_error
from oracles import brute_force_cyclic, brute_force_linear, burnside_cyclic_classes, oracle_is_chain


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_enumerate_linear_examples():
    assert {s.c for s in enumerate_linear(2)} == {(2, 1)}
    assert {s.c for s in enumerate_linear(3)} == {(3, 2, 1), (2, 2, 1)}
    four = {s.c for s in enumerate_linear(4)}
    assert (2, 3, 2, 1) in four
    assert len(four) == 5


def test_enumerate_linear_catalan_counts():
    for n in range(2, 9):
        assert sum(1 for _ in enumerate_linear(n)) == math.comb(2 * (n - 1), n - 1) // n


def test_enumerations_reject_too_few_vertices():
    with input_error("need n >= 2, got 1"):
        list(enumerate_linear(1))  # a generator: it checks on the first next()
    with input_error("need n >= 1, got 0"):
        list(enumerate_cyclic(0))


def test_enumerate_cyclic_refuses_a_cap_above_127_at_the_first_next():
    # 127 = 2n - 1 at the largest swept n; past it the work grows with the cap alone
    assert max(series.c[0] for series in enumerate_cyclic(2, 127)) == 127
    assert _shards(3, 127)[-2:] == [(CYCLIC, 127), (LINEAR, 0)]
    for cap in (128, 10**15):
        start = time.process_time()
        stream = enumerate_cyclic(3, cap)
        with input_error(f"cap must be at most 127, got {cap}"):
            next(stream)
        with input_error(f"cap must be at most 127, got {cap}"):
            _shards(3, cap)
        assert time.process_time() - start < 1


@pytest.mark.parametrize("enumerate_kind", [enumerate_linear, enumerate_cyclic])
@pytest.mark.parametrize("n", [2.5, 3.0])
def test_enumerations_reject_a_vertex_count_that_is_not_an_integer(enumerate_kind, n):
    with pytest.raises(TypeError):
        list(enumerate_kind(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_each_generator_yields_in_the_stated_order(n):
    # the enumeration docstring's order rule, on which the shards, --list and CI digests rest;
    # the cyclic classes are counted by Burnside, as a brute-force scan takes 40 s at n = 6
    cap, swept = 3 * n + 1, 0
    for first in range(2, cap + 1):
        shard = list(_cyclic_with_first(n, first))
        assert shard == sorted(set(shard))
        assert all(c[0] == first and _canonical_c(CYCLIC, c) == c for c in shard)
        swept += len(shard)
    assert swept == burnside_cyclic_classes(n, cap)
    assert list(_linear_series(n)) == sorted(brute_force_linear(n), key=lambda c: c[::-1])
    for kind in (CYCLIC, LINEAR):
        for r in range(1, n):
            pairs = list(_chain_pairs(n, r, kind))
            assert pairs == sorted(set(pairs))
            assert len(pairs) == count_closed_form(n, r, kind)


def test_the_enumerations_reach_any_depth():
    # one loop over an explicit stack: no recursion limit, and the first series comes at once
    start = time.process_time()
    assert next(enumerate_linear(1500)).c == (2,) * 1499 + (1,)
    assert next(enumerate_cyclic(1500)).c == (2,) * 1500
    assert time.process_time() - start < 1


def test_enumerate_cyclic_examples():
    assert {s.c for s in enumerate_cyclic(2, 3)} == {(2, 2), (3, 2), (3, 3)}
    three = {s.c for s in enumerate_cyclic(3, 5)}
    assert {(4, 3, 2), (5, 4, 3), (3, 2, 2)} <= three
    assert [s.c for s in enumerate_cyclic(1, 2)] == [(2,)]


def test_enumerate_cyclic_emits_canonical_forms_only():
    for n in range(1, 7):
        for series in enumerate_cyclic(n):
            assert canonical_form(series).c == series.c


def test_enumerate_cyclic_covers_every_rotation_class():
    for n in range(1, 6):
        cap = 2 * n - 1
        expected = {
            canonical_form_of(c) for c in brute_force_cyclic(n, max(cap, 2))
        }
        produced = {s.c for s in enumerate_cyclic(n, cap)}
        assert produced == expected


@pytest.mark.parametrize("n", range(1, 10))
def test_burnside_count_matches_the_enumeration(n):
    for cap in (None, 3, n + 2):
        assert sum(1 for _ in enumerate_cyclic(n, cap)) == burnside_cyclic_classes(n, cap)


def test_burnside_counts_beyond_the_brute_force_range():
    # the completeness totals for verify sweeps past n = 8
    counts = {n: burnside_cyclic_classes(n) for n in (8, 9, 10, 11, 12)}
    assert counts == {8: 8845, 9: 34100, 10: 132556, 11: 514800, 12: 2006030}


def canonical_form_of(c):
    n = len(c)
    return max(tuple(c[j:] + c[:j]) for j in range(n))


def test_enumerate_cyclic_flags_selfinjective():
    flagged = {s.c for s in enumerate_cyclic(3, 5) if s.is_selfinjective}
    assert flagged == {(2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5)}


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_is_chain_examples():
    assert is_chain(RelationSystem(CYCLIC, 4, ((1, 3), (2, 4))))
    assert not is_chain(RelationSystem(CYCLIC, 4, ((1, 2), (3, 4))))
    assert not is_chain(RelationSystem(CYCLIC, 5, ((1, 3), (2, 4), (3, 5))))
    assert is_chain(RelationSystem(LINEAR, 4, ()))
    assert is_chain(RelationSystem(CYCLIC, 3, ((1, 3),)))  # one relation of length n
    assert not is_chain(RelationSystem(CYCLIC, 3, ((1, 4),)))  # length n + 1
    assert not is_chain(RelationSystem(CYCLIC, 4, ((1, 3), (3, 5))))  # no gap around the cycle
    assert is_chain(RelationSystem(LINEAR, 5, ((1, 2), (2, 3), (3, 4))))
    # where the one pass returns early or runs out of pairs: a cycle with r = 1 (no pair two
    # apart) and r = 2 (each relation is two apart from its own shift), a cycle whose second
    # gap is its last pair, a line with one stored pair, and a cycle whose only overlap two
    # apart is across the wrap
    assert is_chain(RelationSystem(CYCLIC, 4, ((2, 3),)))
    assert not is_chain(RelationSystem(CYCLIC, 1, ((1, 2),)))
    assert is_chain(RelationSystem(CYCLIC, 5, ((2, 4), (4, 6))))
    assert not is_chain(RelationSystem(CYCLIC, 2, ((1, 3), (2, 4))))
    assert not is_chain(RelationSystem(CYCLIC, 6, ((1, 2), (4, 5))))
    assert not is_chain(RelationSystem(CYCLIC, 7, ((1, 2), (2, 3), (5, 6))))
    assert is_chain(RelationSystem(LINEAR, 4, ((1, 2),)))
    assert not is_chain(RelationSystem(CYCLIC, 6, ((1, 3), (4, 7), (5, 8))))


def test_is_chain_matches_rotation_oracle_on_enumerations():
    systems = [kupisch_to_relations(s) for n in range(1, 9) for s in enumerate_cyclic(n)]
    systems += [kupisch_to_relations(s)
                for n in range(1, 7) for s in enumerate_cyclic(n, 3 * n + 1)]
    systems += [kupisch_to_relations(s) for n in range(2, 11) for s in enumerate_linear(n)]
    assert [is_chain(r) for r in systems] == [oracle_is_chain(r) for r in systems]
    assert 0 < sum(map(is_chain, systems)) < len(systems)


@st.composite
def relation_systems(draw, max_n=9):
    # sorted starts against sorted ends: unsorted ends always nest, so would only be rejected
    if draw(st.booleans()):
        kind, n = CYCLIC, draw(st.integers(1, max_n))
        r, top = draw(st.integers(1, n)), 3 * n
    else:
        kind, n = LINEAR, draw(st.integers(2, max_n))
        r, top = draw(st.integers(0, n - 2)), n
    starts = draw(st.sets(st.integers(1, n), min_size=r, max_size=r))
    ends = draw(st.sets(st.integers(2, top), min_size=r, max_size=r))
    try:
        return RelationSystem(kind, n, tuple(zip(sorted(starts), sorted(ends))))
    except NakayamaError:
        reject()


@given(relation_systems())
@settings(max_examples=500)
def test_is_chain_matches_rotation_oracle(system):
    assert is_chain(system) == oracle_is_chain(system)


def test_is_chain_needs_rotation_search():
    # the smallest-start labelling fails the end bound, but a rotation works
    system = kupisch_to_relations(canonical_form_series((3, 3, 2, 3, 2)))
    assert system.relations == ((1, 3), (3, 4), (5, 6))
    assert is_chain(system)


def canonical_form_series(c):
    from nakayama import validate

    return validate(CYCLIC, c)


def test_is_chain_rejects_long_relations():
    # minimal relations longer than n can never normalize to ends <= n
    system = kupisch_to_relations(canonical_form_series((6, 6, 5, 4, 4)))
    assert max(e - s + 1 for s, e in system.relations) > 5
    assert not is_chain(system)


def test_chain_table_n4_r2():
    chains = list(enumerate_chains(4, 2, CYCLIC))
    assert len(chains) == 4
    assert {ch.relations for ch in chains} == {
        ((1, 2), (2, 3)),
        ((1, 2), (2, 4)),
        ((1, 3), (2, 4)),
        ((1, 3), (3, 4)),
    }
    assert {ch.to_kupisch().c for ch in chains} == {
        (4, 3, 2, 2),
        (4, 3, 2, 3),
        (5, 4, 3, 3),
        (4, 3, 3, 2),
    }


def test_the_census_reads_each_chain_as_its_canonical_series():
    # the census's chain route skips validation: each c it reads must be a valid canonical series
    for kind in (CYCLIC, LINEAR):
        for n in range(2, 8):
            for r in range(1, n):
                for ch in enumerate_chains(n, r, kind):
                    c = _canonical_c(kind, _kupisch_c(kind, n, ch.relations))
                    assert c == ch.to_kupisch().c == canonical_form(relations_to_kupisch(ch)).c


def test_the_census_reads_the_chain_systems_bare():
    # the census reads _chain_pairs unvalidated: at every (n, r, kind) it reaches (cyclic
    # n <= 8, linear n <= 10) each pair tuple is a valid chain system's relations, unchanged by
    # validation and a chain, and the tuples are enumerate_chains' relations in its order
    for kind, n_max in ((CYCLIC, 8), (LINEAR, 10)):
        for n in range(2, n_max + 1):
            for r in range(1, n):
                bare = list(_chain_pairs(n, r, kind))
                assert [ChainSystem(kind, n, pairs).relations for pairs in bare] == bare
                assert [ch.relations for ch in enumerate_chains(n, r, kind)] == bare
                assert all(is_chain(ChainSystem(kind, n, pairs)) for pairs in bare)


def test_chain_systems_satisfy_their_own_predicate():
    for n in range(2, 7):
        for r in range(1, n):
            for kind in (CYCLIC, LINEAR):
                for ch in enumerate_chains(n, r, kind):
                    assert ch.r == r
                    assert is_chain(ch)


def test_chain_counts_match_closed_form():
    # acceptance criterion 4: all n <= 8, both kinds
    for n in range(2, 9):
        for r in range(1, n):
            for kind in (CYCLIC, LINEAR):
                count = sum(1 for _ in enumerate_chains(n, r, kind))
                assert count == count_closed_form(n, r, kind), (n, r, kind)


def test_closed_form_known_values():
    assert count_closed_form(4, 2, CYCLIC) == 4
    assert count_closed_form(3, 1, CYCLIC) == 2
    assert count_closed_form(3, 2, CYCLIC) == 1
    assert count_closed_form(4, 2, LINEAR) == 3


def test_closed_form_rejects_out_of_range():
    with pytest.raises(ValueError):
        count_closed_form(1, 1, CYCLIC)
    with pytest.raises(ValueError):
        count_closed_form(4, 4, CYCLIC)
    with pytest.raises(ValueError):
        count_closed_form(4, 0, LINEAR)


def test_chain_counts_reject_an_unknown_kind():
    message = "kind must be 'cyclic' or 'linear', got 'bogus'"
    with pytest.raises(ValueError) as raised:
        count_closed_form(4, 2, "bogus")
    assert str(raised.value) == message
    chains = enumerate_chains(4, 2, "bogus")  # a generator: it checks on the first next()
    with pytest.raises(ValueError) as raised:
        next(chains)
    assert str(raised.value) == message


def test_fibonacci_values():
    assert fibonacci(1) == 1
    assert fibonacci(6) == 8
    assert fibonacci(14) == 377
    assert [fibonacci(k) for k in range(7)] == [0, 1, 1, 2, 3, 5, 8]
    with pytest.raises(ValueError):
        fibonacci(-1)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def test_census_cyclic_small():
    table = census(range(2, 6), CYCLIC)
    assert table.violations == []
    assert table.counts() == {2: 1, 3: 3, 4: 8, 5: 21}


def test_census_linear_small():
    table = census(range(2, 7), LINEAR)
    assert table.violations == []
    assert table.counts() == {2: 1, 3: 2, 4: 5, 5: 13, 6: 34}


def test_census_n2_maximal_algebra():
    maximal = [
        s.c
        for s in enumerate_cyclic(2)
        if homology_report(s).is_maximal
    ]
    assert maximal == [(3, 2)]


def test_census_row_structure():
    table = census([4], CYCLIC)
    per_r = {row.r: row for row in table.rows if row.r is not None}
    assert {r: row.enumerated for r, row in per_r.items()} == {1: 3, 2: 4, 3: 1}
    assert all(row.enumerated == row.closed_form for row in per_r.values())
    total = [row for row in table.rows if row.r is None]
    assert len(total) == 1 and total[0].enumerated == 8 == total[0].fibonacci


def test_census_csv_and_json():
    table = census([3], CYCLIC)
    assert table.to_csv() == (
        "n,kind,r,enumerated,closed_form,fibonacci,violations\n"
        "3,cyclic,1,2,2,,0\n"
        "3,cyclic,2,1,1,,0\n"
        "3,cyclic,,3,,3,0\n"
    )
    row = {"n": 3, "kind": "cyclic", "violations": []}
    assert table.to_dict() == {"kind": "cyclic", "rows": [
        {**row, "r": 1, "enumerated": 2, "closed_form": 2, "fibonacci": None},
        {**row, "r": 2, "enumerated": 1, "closed_form": 1, "fibonacci": None},
        {**row, "r": None, "enumerated": 3, "closed_form": None, "fibonacci": 3},
    ]}
    assert table.to_json() == census([3], CYCLIC).to_json()


def test_tally_rows_can_be_read_twice():
    series = KupischSeries(CYCLIC, (4, 3, 2))  # maximal; (3, 2, 2) and (5, 4, 3) stay unfed
    tallies = [({series.c: kupisch_to_relations(series).r}, ["a chain violation"]), ({}, [])]
    kept = copy.deepcopy(tallies)
    first = _census_rows(3, CYCLIC, None, tallies)
    assert first[-1].violations == (
        "a chain violation",
        "n=3 r=1 cyclic: 1 maximal != 2 chains",
        "n=3 r=2 cyclic: 0 maximal != 1 chains",
        "n=3 cyclic: chain/maximal sets differ at [(3, 2, 2), (5, 4, 3)]",
        "n=3 cyclic: total 1 != Fibonacci 3",
    )
    assert _census_rows(3, CYCLIC, None, tallies) == first
    assert tallies == kept


@pytest.mark.parametrize("n", range(2, 7))
def test_census_below_and_above_the_default_cap(n):
    for cap in (None, 4, 2 * n + 3):
        assert census([n], CYCLIC, cap).violations == [], cap
    # below 2n - 1 the capped count is the chain forms that fit, Fibonacci unchecked
    capped = {s.c for s in enumerate_cyclic(n, 4) if homology_report(s).is_maximal}
    forms = {ch.to_kupisch().c for r in range(1, n) for ch in enumerate_chains(n, r, CYCLIC)}
    fitting = {c for c in forms if max(c) <= 4}
    assert capped == fitting
    assert census([n], CYCLIC, 4).counts() == {n: len(fitting)}


def test_capped_tally_still_reports_missing_algebras():
    rows = _census_rows(4, CYCLIC, 4, [])  # fed no algebra at all
    assert rows[-1].violations == (
        "n=4 r=2 cyclic: 0 maximal != 3 chains",
        "n=4 r=3 cyclic: 0 maximal != 1 chains",
        "n=4 cyclic: chain/maximal sets differ at"
        " [(3, 2, 2, 2), (4, 3, 2, 2), (4, 3, 2, 3), (4, 3, 3, 2)]",
    )  # and no Fibonacci total: cap 4 < 2n - 1 leaves (5, 4, 3, 2) and more out


def test_census_reports_a_wrong_closed_form_and_a_wrong_fibonacci_total(monkeypatch):
    monkeypatch.setattr(nakayama.verify, "count_closed_form", lambda n, r, kind: 9)
    monkeypatch.setattr(nakayama.verify, "fibonacci", lambda k: 9)
    assert census([3], LINEAR).violations == [
        "n=3 r=1 linear: 1 chains != closed form 9",
        "n=3 r=2 linear: 1 chains != closed form 9",
        "n=3 linear: total 2 != Fibonacci 9",
    ]


def test_default_cap_reaches_every_finite_gldim_class():
    # proved in the enumeration docstring; pinned here: entries up to 3n + 1 add no
    # finite-gldim class past 2n - 1
    counts = []
    for n in range(2, 7):
        finite = [s.c for s in enumerate_cyclic(n, 3 * n + 1)
                  if homology_report(s).gldim != INFINITE]
        assert max(map(max, finite)) == 2 * n - 1
        counts.append(len(finite))
    assert counts == [1, 4, 15, 52, 190]


def test_entries_above_n_force_a_cyclic_reduction_and_infinite_gldim():
    # steps (a) and (b) of a proof that the default cap misses no finite-gldim
    # class, on every class n <= 6 with entries up to 3n + 1: (a) an entry of at
    # least 2n puts every entry above n (entries drop by at most one a step);
    # (b) then, unless selfinjective, the reduction is cyclic with every entry
    # above its vertex count, and gldim is infinite
    above = 0
    for n in range(1, 7):
        for series in enumerate_cyclic(n, 3 * n + 1):
            c = series.c
            if max(c) >= 2 * n:
                assert min(c) >= n + 1, c
            if min(c) > n and not series.is_selfinjective:
                reduced = epsilon(series)
                assert reduced.is_cyclic, c
                assert min(reduced.algebra.c) > reduced.algebra.n, c
                assert homology_report(series).gldim == INFINITE, c
                above += 1
    assert above == 1147


@st.composite
def large_entry_cyclic(draw, max_n=9):
    """A cyclic series with n <= max_n whose largest entry is often at least 2n.

    Every entry lies in [floor, first] with ``first`` the largest, so the wrap
    from the last entry back to the first never drops by more than one; the
    floor n + 1 puts every entry above n, the premise of step (b).
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    floor = draw(st.sampled_from([2, n + 1]))
    c = [draw(st.integers(min_value=floor, max_value=3 * n + 1))]
    for _ in range(n - 1):
        c.append(draw(st.integers(min_value=max(floor, c[-1] - 1), max_value=c[0])))
    j = draw(st.integers(min_value=0, max_value=n - 1))
    return KupischSeries(CYCLIC, tuple(c[j:] + c[:j]))


@settings(max_examples=300)
@given(large_entry_cyclic())
def test_large_entries_force_a_cyclic_reduction_up_to_n_9(series):
    # the previous test's steps (a) and (b), sampled up to n = 9
    n, c = series.n, series.c
    if max(c) >= 2 * n:
        assert min(c) >= n + 1
    if min(c) > n and not series.is_selfinjective:
        reduced = epsilon(series)
        assert reduced.is_cyclic
        assert min(reduced.algebra.c) > reduced.algebra.n
        assert homology_report(series).gldim == INFINITE


def test_cap_stability():
    # spot check n <= 5: growing the cap adds no maximal algebra and loses none
    for n in range(2, 6):
        at_default = {
            s.c for s in enumerate_cyclic(n, 2 * n - 1) if homology_report(s).is_maximal
        }
        at_larger = {
            s.c for s in enumerate_cyclic(n, 2 * n + 3) if homology_report(s).is_maximal
        }
        assert at_default == at_larger


def test_non_quasi_hereditary_equality_is_excluded():
    # gldim == lambda_1 + 1 alone is not maximality: this algebra attains the
    # equality with pd set {1,3,4} and must stay out of the census
    report = homology_report(canonical_form_series((6, 6, 5, 4, 4)))
    assert report.gldim == report.lambda_one + 1
    assert not report.quasi_hereditary
    assert not report.is_maximal
