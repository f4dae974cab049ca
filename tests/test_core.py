import ast
import itertools
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nakayama import (
    CYCLIC,
    LINEAR,
    KupischSeries,
    RelationSystem,
    UniserialModule,
    canonical_form,
    enumerate_chains,
    kupisch_to_relations,
    normalize_relation_labels,
    relations_to_kupisch,
    syzygy,
    validate,
)
from nakayama.core import format_kupisch, format_relations, parse_kupisch, parse_relations
from nakayama.errors import InternalError, NakayamaError

import oracles
from conftest import any_series, cyclic_series, enumerated_series, input_error, series_with_module
from oracles import (
    brute_force_cyclic,
    brute_force_linear,
    oracle_redundant,
    oracle_relations,
    oracle_relations_to_kupisch,
    oracle_syzygy,
)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_known_examples():
    assert not validate(CYCLIC, (3, 4, 4)).is_selfinjective
    assert validate(CYCLIC, (2, 2, 2)).is_selfinjective
    assert validate(CYCLIC, (2, 4, 3)).c == (2, 4, 3)
    assert validate(LINEAR, (4, 3, 2, 1)).c == (4, 3, 2, 1)


@pytest.mark.parametrize(
    "kind, c, message",
    [
        pytest.param(CYCLIC, (4, 2, 3), "c_2 = 2 < c_1 - 1 = 3", id="cyclic-c0-StepViolation"),
        pytest.param(CYCLIC, (2, 1, 2), "cyclic series needs c_i >= 2, got c_2 = 1",
                     id="cyclic-c1-ShortProjective"),
        pytest.param(CYCLIC, (1,), "cyclic series needs c_i >= 2, got c_1 = 1",
                     id="cyclic-c2-ShortProjective"),
        pytest.param(LINEAR, (2, 2, 2), "linear series must end in 1, got c_3 = 2",
                     id="linear-c3-BadTail"),
        pytest.param(LINEAR, (5, 3, 2, 1), "c_1 = 5 exceeds n - i + 1 = 4",
                     id="linear-c4-BadTail"),
        pytest.param(LINEAR, (2, 1, 2, 1), "linear series needs c_i >= 2 for i < n, got c_2 = 1",
                     id="linear-c5-ShortProjective"),
        pytest.param(LINEAR, (3, 1), "c_1 = 3 exceeds n - i + 1 = 2", id="linear-c6-BadTail"),
    ],
)
def test_validate_rejects(kind, c, message):
    with input_error(message):
        validate(kind, c)


@pytest.mark.parametrize(
    "kind, c, message",
    [
        pytest.param(CYCLIC, (2, 1, 2), "cyclic series needs c_i >= 2, got c_2 = 1",
                     id="cyclic-short"),
        pytest.param(CYCLIC, (4, 2, 3), "c_2 = 2 < c_1 - 1 = 3", id="cyclic-step"),
        pytest.param(CYCLIC, (2, 3, 4), "c_1 = 2 < c_3 - 1 = 3", id="cyclic-step-wrap"),
        pytest.param(LINEAR, (2, 2, 2), "linear series must end in 1, got c_3 = 2",
                     id="linear-tail"),
        pytest.param(LINEAR, (2, 1, 2, 1), "linear series needs c_i >= 2 for i < n, got c_2 = 1",
                     id="linear-short"),
        pytest.param(LINEAR, (2, 5, 3, 2, 1), "c_2 = 5 exceeds n - i + 1 = 4", id="linear-bound"),
        pytest.param(LINEAR, (2, 4, 2, 2, 1), "c_3 = 2 < c_2 - 1 = 3", id="linear-step"),
    ],
)
def test_each_kupisch_rule_words_its_error(kind, c, message):
    with pytest.raises(NakayamaError) as exc:
        validate(kind, c)
    assert str(exc.value) == message


def test_validate_degenerate_endpoints():
    assert validate(CYCLIC, (5,)).is_selfinjective


class _Three:
    """An integer-like object that is not an int."""

    def __index__(self):
        return 3


@pytest.mark.parametrize("entry", [2.7, 2.0, "2"])
def test_non_integral_entries_raise_rather_than_truncate(entry):
    with pytest.raises(TypeError):
        validate(CYCLIC, (entry, 2))
    with pytest.raises(TypeError):
        RelationSystem(CYCLIC, 3, ((1, entry),))
    with pytest.raises(TypeError):
        RelationSystem(CYCLIC, 3, ((entry, 3),))
    with pytest.raises(TypeError):
        RelationSystem(CYCLIC, entry, ((1, 2),))  # the vertex count too


def test_entries_with_an_index_are_accepted():
    assert validate(CYCLIC, (_Three(), 3, 3)).c == (3, 3, 3)
    system = RelationSystem(CYCLIC, 3, ((1, _Three()),))
    assert system.relations == ((1, 3),)
    assert type(system.relations[0][1]) is int


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_examples():
    assert canonical_form(validate(CYCLIC, (2, 4, 3))).c == (4, 3, 2)
    assert canonical_form(validate(CYCLIC, (2, 2, 4, 3))).c == (4, 3, 2, 2)
    assert canonical_form(validate(CYCLIC, (5, 5, 5))).c == (5, 5, 5)


def test_canonical_linear_is_identity():
    s = validate(LINEAR, (3, 2, 2, 1))
    assert canonical_form(s) is s


@given(cyclic_series())
@settings(max_examples=200)
def test_canonical_rotation_invariant_and_idempotent(series):
    canon = canonical_form(series)
    assert canonical_form(canon).c == canon.c
    c = series.c
    rotations = [KupischSeries(CYCLIC, c[j:] + c[:j]) for j in range(series.n)]
    for rotation in rotations:
        assert canonical_form(rotation).c == canon.c
    # the canonical form is one of the rotations
    assert canon.c in {rotation.c for rotation in rotations}


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def test_relations_to_kupisch_examples():
    assert relations_to_kupisch(RelationSystem(CYCLIC, 4, ((1, 2), (2, 3)))).c == (2, 2, 4, 3)
    for rel, expected in [
        (((1, 2), (2, 3)), (4, 3, 2, 2)),
        (((1, 2), (2, 4)), (4, 3, 2, 3)),
        (((1, 3), (2, 4)), (5, 4, 3, 3)),
        (((1, 3), (3, 4)), (4, 3, 3, 2)),
    ]:
        series = relations_to_kupisch(RelationSystem(CYCLIC, 4, rel))
        assert canonical_form(series).c == expected
    assert relations_to_kupisch(RelationSystem(LINEAR, 4, ())).c == (4, 3, 2, 1)


def test_kupisch_to_relations_examples():
    assert kupisch_to_relations(validate(CYCLIC, (2, 2, 4, 3))).relations == ((1, 2), (2, 3))
    linear = kupisch_to_relations(validate(LINEAR, (3, 2, 2, 1)))
    assert linear.relations == ((2, 3),)
    assert linear.r == 2  # implicit sink relation included in the count
    cyc = kupisch_to_relations(validate(CYCLIC, (3, 4, 4)))
    assert cyc.relations == ((1, 3), (2, 5))  # plain end 5 wraps to vertex 1


def test_relations_oracle_agreement():
    # path-death oracle over a mixed exhaustive range
    for n in range(1, 6):
        for c in brute_force_cyclic(n, 2 * n + 1):
            series = KupischSeries(CYCLIC, c)
            assert kupisch_to_relations(series).relations == oracle_relations(series)
    for n in range(2, 7):
        for c in brute_force_linear(n):
            series = KupischSeries(LINEAR, c)
            assert kupisch_to_relations(series).relations == oracle_relations(series)


def test_round_trip_exhaustive():
    # acceptance range: every valid series, n <= 6, entries <= 2n-1
    for n in range(1, 7):
        for c in brute_force_cyclic(n, 2 * n - 1):
            series = KupischSeries(CYCLIC, c)
            assert relations_to_kupisch(kupisch_to_relations(series)).c == c
    for n in range(2, 7):
        for c in brute_force_linear(n):
            series = KupischSeries(LINEAR, c)
            assert relations_to_kupisch(kupisch_to_relations(series)).c == c


def test_one_pass_relations_to_kupisch_matches_the_oracle():
    systems = [kupisch_to_relations(series) for series in enumerated_series()]
    systems += [chain for n in range(2, 10) for kind in (CYCLIC, LINEAR)
                for r in range(1, n) for chain in enumerate_chains(n, r, kind)]
    for system in systems:
        assert relations_to_kupisch(system) == oracle_relations_to_kupisch(system), system


def test_relations_to_kupisch_on_a_long_cycle():
    n = 20000
    system = RelationSystem(CYCLIC, n, tuple((v, v + 1) for v in range(1, n + 1)))
    assert relations_to_kupisch(system).c == (2,) * n


def test_parsed_and_converted_selfinjective_systems_are_equal():
    parsed = parse_relations("1:2;2:3;3:4", CYCLIC, 3)
    converted = kupisch_to_relations(validate(CYCLIC, (2, 2, 2)))
    assert parsed == converted and hash(parsed) == hash(converted)
    assert len(parsed.relations) == parsed.n


def test_selfinjective_flag_agrees_with_the_series():
    for series in enumerated_series():
        system = kupisch_to_relations(series)
        for s in (system, normalize_relation_labels(system)):
            assert (s.kind == CYCLIC and len(s.relations) == s.n) == series.is_selfinjective, series


def test_selfinjective_relations_flagged_and_round_trip():
    series = validate(CYCLIC, (5, 5))
    system = kupisch_to_relations(series)
    assert len(system.relations) == system.n == 2
    assert [e - s + 1 for s, e in system.relations] == [5, 5]
    assert relations_to_kupisch(system).c == (5, 5)
    system = RelationSystem(CYCLIC, _Three(), ((1, 2),))
    assert type(system.n) is int and system.n == 3
    assert relations_to_kupisch(system).c == (2, 4, 3)


def test_loop_algebra_round_trip():
    # single-vertex cyclic quiver: one relation of length c
    for c in range(2, 6):
        series = validate(CYCLIC, (c,))
        system = kupisch_to_relations(series)
        assert system.relations == ((1, c),)
        assert relations_to_kupisch(system).c == (c,)


def test_relation_system_rejects():
    with input_error("relation (1, 3) contains relation (2, 3)"):
        RelationSystem(CYCLIC, 4, ((1, 3), (2, 3)))
    with input_error("relation (2, 7) contains relation (1, 4)"):
        # second relation wraps around and swallows a shifted copy of the first
        RelationSystem(CYCLIC, 2, ((1, 4), (2, 7)))
    with input_error("a cyclic quiver needs at least one relation"):
        RelationSystem(CYCLIC, 3, ())


def _accepted(kind, n, relations) -> bool:
    """Does the constructor accept the system?  It is valid apart from containment."""
    try:
        RelationSystem(kind, n, relations)
    except NakayamaError as error:
        if "contains relation" not in str(error):
            raise
        return False
    return True


def _systems(kind, n, max_length):
    """Every system of distinct starts and lengths 2..max_length (linear ends below n)."""
    for r in range(kind == CYCLIC, n + 1):
        for starts in itertools.combinations(range(1, n + 1), r):
            ends = [range(s + 1, min(s + max_length, n) if kind == LINEAR else s + max_length)
                    for s in starts]
            for chosen in itertools.product(*ends):
                yield tuple(zip(starts, chosen))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", [CYCLIC, LINEAR])
def test_containment_check_matches_the_pairwise_oracle(kind, n):
    # lengths up to 3n + 1, but 2n + 1 at n = 5: 3n + 1 there is a million systems
    verdicts = Counter()
    for relations in _systems(kind, n, 3 * n + 1 if n < 5 else 2 * n + 1):
        accepted = _accepted(kind, n, relations)
        assert accepted != oracle_redundant(kind, n, relations), relations
        verdicts[accepted] += 1
    # containment needs two relations: two starts on a cycle, two ends below n - 1 on a line
    assert verdicts[True] and (verdicts[False] or n < (2 if kind == CYCLIC else 4))


@st.composite
def raw_relations(draw, max_n=9):
    """(kind, n, relations) with distinct starts and valid lengths, contained or not."""
    kind = draw(st.sampled_from([CYCLIC, LINEAR]))
    n = draw(st.integers(1 if kind == CYCLIC else 3, max_n))
    starts = sorted(draw(st.sets(st.integers(1, n if kind == CYCLIC else n - 2),
                                 min_size=kind == CYCLIC)))
    longest = draw(st.integers(2, 3 * n + 1))
    ends = [draw(st.integers(s + 1, s + longest - 1 if kind == CYCLIC else n - 1))
            for s in starts]
    if draw(st.booleans()):  # sorted ends pass far more often, and keep every length in range
        ends.sort()
    return kind, n, tuple(zip(starts, ends))


@given(raw_relations())
@settings(max_examples=500)
def test_containment_check_matches_the_pairwise_oracle_up_to_9(drawn):
    assert _accepted(*drawn) != oracle_redundant(*drawn)


@given(raw_relations())
@settings(max_examples=500)
def test_one_pass_relations_to_kupisch_matches_the_oracle_up_to_9(drawn):
    try:
        system = RelationSystem(*drawn)
    except NakayamaError:
        reject()
    try:
        expected = oracle_relations_to_kupisch(system)
    except NakayamaError as error:  # the lengths fail validation: the same way on both routes
        with pytest.raises(NakayamaError) as raised:
            relations_to_kupisch(system)
        assert str(raised.value) == str(error)
    else:
        assert relations_to_kupisch(system) == expected


@given(raw_relations())
@settings(max_examples=300)
def test_selfinjective_flag_agrees_with_the_series_up_to_9(drawn):
    try:
        system = RelationSystem(*drawn)
        series = relations_to_kupisch(system)
    except NakayamaError:
        reject()
    selfinjective = system.kind == CYCLIC and len(system.relations) == system.n
    assert selfinjective == series.is_selfinjective


@st.composite
def relations_at_every_vertex(draw, max_n=9):
    """(n, relations): one cyclic relation at each vertex, lengths L or L + 1."""
    n = draw(st.integers(1, max_n))
    shortest = draw(st.integers(2, 3 * n + 1))
    lengths = draw(st.lists(st.integers(shortest, shortest + 1), min_size=n, max_size=n))
    return n, tuple((s, s + length - 1) for s, length in zip(range(1, n + 1), lengths))


@given(relations_at_every_vertex())
@settings(max_examples=300)
def test_n_cyclic_relations_are_accepted_iff_their_lengths_agree(drawn):
    # why n cyclic relations present exactly a selfinjective algebra
    n, relations = drawn
    equal = len({e - s for s, e in relations}) == 1
    try:
        system = RelationSystem(CYCLIC, n, relations)
    except NakayamaError as error:
        if "contains relation" not in str(error):
            raise
        assert not equal
    else:
        assert equal and relations_to_kupisch(system).is_selfinjective


def test_long_relation_round_trip():
    # relation length exceeding n must survive the conversion cycle
    series = validate(CYCLIC, (5, 4, 4))
    system = kupisch_to_relations(series)
    assert [e - s + 1 for s, e in system.relations] == [4, 4]
    assert relations_to_kupisch(system).c == (5, 4, 4)


# ---------------------------------------------------------------------------
# syzygy
# ---------------------------------------------------------------------------

def test_syzygy_examples():
    s = validate(CYCLIC, (3, 4, 4))
    assert syzygy(s, UniserialModule(1, 1)) == UniserialModule(2, 2)
    assert syzygy(s, UniserialModule(3, 4)) is None
    omega = syzygy(s, UniserialModule(3, 1))
    assert omega == UniserialModule(1, 3)
    assert syzygy(s, omega) is None  # projective


def test_a_syzygy_that_is_too_long_is_an_internal_error():
    # KupischSeries refuses (4, 2, 2), so only a bug inside the package could pass it:
    # Omega M(1, 1) = M(2, 3), but c_2 = 2
    stand_in = types.SimpleNamespace(kind=CYCLIC, n=3, c=(4, 2, 2))
    with pytest.raises(InternalError, match=r"^syzygy of M\(1,1\) over \[4,2,2\] is too long: "
                                            r"M\(2,3\)$"):
        syzygy(stand_in, UniserialModule(1, 1))


def test_syzygy_rejects_invalid_module():
    s = validate(CYCLIC, (3, 4, 4))
    with input_error("length 4 not in 1..c_1 = 3"):
        syzygy(s, UniserialModule(1, 4))
    with input_error("top 4 out of range 1..3"):
        syzygy(s, UniserialModule(4, 1))


@given(series_with_module())
@settings(max_examples=300)
def test_syzygy_well_formed(case):
    series, m = case
    result = syzygy(series, m)
    if result is None:
        assert m.length == series.c[m.top - 1]
    else:
        assert 1 <= result.length <= series.c[result.top - 1]
        assert result.length == series.c[m.top - 1] - m.length


@given(series_with_module(max_n=4, max_entry=7))
@settings(max_examples=300)
def test_syzygy_matches_oracle(case):
    series, m = case
    assert syzygy(series, m) == oracle_syzygy(series, m)


def test_the_oracles_import_no_private_package_name():
    # they are the second route, so they must not share the package's internals
    private = []
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nakayama":
            private += [a.name for a in node.names if a.name.startswith("_")]
    assert private == []


# ---------------------------------------------------------------------------
# selfinjective detection
# ---------------------------------------------------------------------------

@given(any_series())
@settings(max_examples=200)
def test_selfinjective_iff_constant_cyclic(series):
    expected = series.kind == CYCLIC and len(set(series.c)) == 1
    assert series.is_selfinjective == expected


# ---------------------------------------------------------------------------
# textual formats
# ---------------------------------------------------------------------------

def test_kupisch_text_round_trip():
    assert parse_kupisch("3,4,4") == (3, 4, 4)
    assert format_kupisch(validate(CYCLIC, (3, 4, 4))) == "3,4,4"
    with pytest.raises(ValueError):
        parse_kupisch("3,x,4")


def test_relations_text_round_trip():
    system = parse_relations("1:2;2:3", CYCLIC, 4)
    assert system.relations == ((1, 2), (2, 3))
    assert format_relations(system) == "1:2;2:3"
    # reduced end: 3:1 on 3 vertices means the wrapped length-2 path
    wrapped = parse_relations("3:1", CYCLIC, 3)
    assert wrapped.relations == ((3, 4),)
    assert parse_relations("", LINEAR, 4).relations == ()


def test_normalize_relation_labels():
    system = kupisch_to_relations(validate(CYCLIC, (3, 2, 2)))
    assert system.relations == ((2, 3), (3, 4))
    assert normalize_relation_labels(system).relations == ((1, 2), (2, 3))
