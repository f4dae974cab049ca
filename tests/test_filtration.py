import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakayama import (
    CYCLIC,
    INFINITE,
    LINEAR,
    KupischSeries,
    UniserialModule,
    base_set,
    delta_filtration,
    enumerate_cyclic,
    epsilon,
    epsilon_tower,
    homology_report,
    kupisch_to_relations,
    syzygy,
    validate,
)
from nakayama.errors import NakayamaError
from nakayama.filtration import (TERMINAL_LINEAR, TERMINAL_SELFINJECTIVE, _interval_count,
                                 _socles_and_tops)
from nakayama.homology import all_modules

from conftest import cyclic_series, enumerated_series, input_error
from oracles import oracle_interval_count, oracle_tiled


def nonselfinjective_cyclic(n_max, cap=None):
    for n in range(1, n_max + 1):
        for series in enumerate_cyclic(n, cap):
            if not series.is_selfinjective:
                yield series


# ---------------------------------------------------------------------------
# base set
# ---------------------------------------------------------------------------

def test_base_set_examples():
    basis = base_set(validate(CYCLIC, (3, 4, 4)))
    assert basis.socle_vertices == (2, 3)
    assert basis.top_vertices == (1, 3)
    assert [(d.top, d.length) for d in basis.deltas] == [(1, 2), (3, 1)]

    basis = base_set(validate(CYCLIC, (4, 6, 5)))
    assert basis.socle_vertices == (1,)
    assert [(d.top, d.length) for d in basis.deltas] == [(2, 3)]


def test_base_set_rejects():
    with input_error("base set undefined for selfinjective [2,2]"):
        base_set(validate(CYCLIC, (2, 2)))
    with input_error("base set is defined for cyclic algebras, got linear"):
        base_set(validate(LINEAR, (2, 1)))


def _assert_base_set_tiles_the_cycle(series):
    # the tiling is a docstring proof in base_set, not a runtime check, so it is checked here
    basis = base_set(series)
    assert sum(d.length for d in basis.deltas) == series.n, series
    assert len(basis.deltas) == len(kupisch_to_relations(series).relations), series
    # interval tops are exactly the successors of socle vertices
    successors = {s % series.n + 1 for s in basis.socle_vertices}
    assert set(basis.top_vertices) == successors, series


def test_base_set_tiles_the_cycle():
    checked = 0
    for series in enumerated_series():
        if series.kind == CYCLIC and not series.is_selfinjective:
            _assert_base_set_tiles_the_cycle(series)
            checked += 1
    assert checked


@given(cyclic_series(max_n=6, max_entry=11))
@settings(max_examples=200)
def test_base_set_tiles_the_cycle_on_drawn_series(series):
    if not series.is_selfinjective:
        _assert_base_set_tiles_the_cycle(series)


# ---------------------------------------------------------------------------
# the reduction
# ---------------------------------------------------------------------------

def test_epsilon_examples():
    step = epsilon(validate(CYCLIC, (3, 4, 4)))
    assert step.algebra.c == (2, 3)
    assert step.algebra.kind == CYCLIC

    step = epsilon(validate(CYCLIC, (4, 6, 5)))
    assert step.algebra.c == (2,)
    assert step.algebra.is_selfinjective

    step = epsilon(validate(CYCLIC, (3, 2, 2)))
    assert not step.is_cyclic
    assert step.algebra.c == (2, 1)
    assert step.algebra.kind == LINEAR


def test_epsilon_can_disconnect():
    # both reduced projectives are simple, so the result is a product
    step = epsilon(validate(CYCLIC, (3, 2, 3, 2)))
    assert [k.c for k in step.components] == [(1,), (1,)]
    assert not step.is_cyclic
    with pytest.raises(ValueError):
        step.algebra


def test_epsilon_vertex_count_is_relation_count():
    for series in nonselfinjective_cyclic(6):
        vertices = sum(k.n for k in epsilon(series).components)
        assert vertices == len(kupisch_to_relations(series).relations)


def _epsilon_by_base_set(series):
    """The components from the interval modules, counted by adding their lengths."""
    basis = base_set(series)
    entries = [oracle_interval_count(basis.deltas, series.n, j, series.c[d.top - 1])
               for j, d in enumerate(basis.deltas)]
    if 1 not in entries:
        return (KupischSeries(CYCLIC, tuple(entries)),)
    last_sink = max(j for j, entry in enumerate(entries) if entry == 1)
    pieces, piece = [], ()
    for entry in entries[last_sink + 1:] + entries[:last_sink + 1]:
        piece += (entry,)
        if entry == 1:  # a sink ends a linear piece
            pieces.append(KupischSeries(LINEAR, piece))
            piece = ()
    return tuple(pieces)


def test_epsilon_agrees_with_the_base_set_route():
    for series in enumerated_series():
        if series.kind == CYCLIC and not series.is_selfinjective:
            step = epsilon(series)
            assert step.components == _epsilon_by_base_set(series), series


@pytest.mark.parametrize("series, rule, text", [
    (validate(LINEAR, (2, 1)), "NotCyclic", "base set is defined for cyclic algebras, got linear"),
    (validate(CYCLIC, (3, 3)), "SelfinjectiveInput", "base set undefined for selfinjective [3,3]"),
])
def test_epsilon_rejects_as_the_base_set_route_does(series, rule, text):
    for route in (epsilon, _epsilon_by_base_set):
        with pytest.raises(NakayamaError) as exc:
            route(series)
        assert str(exc.value) == text, (rule, route)


def test_every_projective_at_an_interval_top_is_tiled():
    # epsilon reads each count without a None check: P_t ends at a socle vertex
    checked = 0
    for series in enumerated_series():
        if series.kind != CYCLIC or series.is_selfinjective:
            continue
        socles, tops = _socles_and_tops(series)
        for j, t in enumerate(tops):
            count = _interval_count(socles, tops, series.n, j, series.c[t - 1])
            assert isinstance(count, int), (series, t)
            checked += 1
    assert checked


def test_tower_examples():
    tower = epsilon_tower(validate(CYCLIC, (3, 4, 4)))
    assert [[k.c for k in step.components] for step in tower.steps] == [[(2, 3)], [(1,)]]
    assert tower.terminal == TERMINAL_LINEAR
    assert tower.depth == 2

    tower = epsilon_tower(validate(CYCLIC, (4, 6, 5)))
    assert tower.terminal == TERMINAL_SELFINJECTIVE
    assert tower.depth == 1

    tower = epsilon_tower(validate(CYCLIC, (2, 2, 2)))
    assert tower.terminal == TERMINAL_SELFINJECTIVE
    assert tower.depth == 0


def test_tower_starts_with_the_first_reduction():
    for series in nonselfinjective_cyclic(5):
        assert epsilon(series) == epsilon_tower(series).steps[0]


def test_tower_rejects_linear():
    with input_error("tower is defined for cyclic algebras, got linear"):
        epsilon_tower(validate(LINEAR, (2, 1)))


def test_tower_json():
    tower = epsilon_tower(validate(CYCLIC, (3, 4, 4)))
    payload = json.loads(json.dumps(tower.to_dict(), sort_keys=True))
    assert payload["terminal"] == "linear"
    assert payload["steps"] == [[{"c": [2, 3], "kind": "cyclic"}], [{"c": [1], "kind": "linear"}]]


# ---------------------------------------------------------------------------
# interval decompositions
# ---------------------------------------------------------------------------

def test_delta_filtration_examples():
    s = validate(CYCLIC, (3, 4, 4))
    omega2 = syzygy(s, syzygy(s, UniserialModule(1, 1)))
    assert omega2 == UniserialModule(1, 2)
    assert delta_filtration(s, omega2) == [0]

    omega2 = syzygy(s, syzygy(s, UniserialModule(2, 1)))
    assert omega2 == UniserialModule(3, 1)
    assert delta_filtration(s, omega2) == [1]

    with input_error("M(2,1) has top 2, which is not an interval top"):
        delta_filtration(s, UniserialModule(2, 1))


def test_delta_filtration_wraps():
    # a projective longer than n decomposes by running around the tiling
    s = validate(CYCLIC, (4, 6, 5))
    assert delta_filtration(s, UniserialModule(2, 6)) == [0, 0]


@pytest.mark.parametrize("n", range(2, 7))  # n = 1 is selfinjective only
def test_delta_filtration_agrees_with_the_tiling_oracle(n):
    # every module, not only second syzygies, with the default cap and cap n + 3
    untiled = 0
    for cap in (None, n + 3):
        for series in enumerate_cyclic(n, cap):
            if series.is_selfinjective:
                continue
            basis = base_set(series)
            for m in all_modules(series):
                try:
                    delta_filtration(series, m, basis)
                except NakayamaError as exc:
                    untiled += 1
                    assert not oracle_tiled(series, m), (series, m)
                    assert str(exc) in (
                        f"{m} has top {m.top}, which is not an interval top",
                        f"{m} is not tiled exactly by consecutive intervals",
                    )
                else:
                    assert oracle_tiled(series, m), (series, m)
    assert untiled


@pytest.mark.parametrize("n", range(2, 7))
def test_interval_count_agrees_with_the_summing_walk(n):
    # every interval index and length 1..3n + 1, at the default cap and cap n + 3
    untiled = 0
    for cap in (None, n + 3):
        for series in enumerate_cyclic(n, cap):
            if series.is_selfinjective:
                continue
            basis = base_set(series)
            lookup = basis.socle_vertices, basis.top_vertices, n
            for j in range(len(basis.deltas)):
                for length in range(1, 3 * n + 2):
                    expected = oracle_interval_count(basis.deltas, n, j, length)
                    assert _interval_count(*lookup, j, length) == expected, (series, j, length)
                    untiled += expected is None
    assert untiled


@given(cyclic_series(max_n=12, max_entry=10**12), st.data())
@settings(max_examples=200)
def test_interval_count_agrees_with_the_summing_walk_on_large_entries(series, data):
    if series.is_selfinjective:
        return
    basis, n = base_set(series), series.n
    j = data.draw(st.integers(0, len(basis.deltas) - 1))
    length = data.draw(st.integers(0, 10**12)) * n + data.draw(st.integers(1, n))
    expected = oracle_interval_count(basis.deltas, n, j, length)
    assert _interval_count(basis.socle_vertices, basis.top_vertices, n, j, length) == expected


# ---------------------------------------------------------------------------
# structural properties over the acceptance range (n <= 6, entries <= 2n-1)
# ---------------------------------------------------------------------------

def test_second_syzygies_tile():
    # Omega^2 M(t, l) = M(t + c_t, c_{t+l} - c_t + l) mod n starts just past the
    # socle of P_t and ends at the socle of P_{t+l}, so it is tiled
    seconds = 0
    for n in range(1, 7):
        for cap in (None, n + 3):
            for series in enumerate_cyclic(n, cap):
                if series.is_selfinjective:
                    continue
                c, basis = series.c, base_set(series)
                for m in all_modules(series):
                    first = syzygy(series, m)
                    second = None if first is None else syzygy(series, first)
                    if second is None:
                        continue
                    t, l = m.top, m.length
                    closed = UniserialModule((t + c[t - 1] - 1) % n + 1,
                                             c[(t + l - 1) % n] - c[t - 1] + l)
                    assert second == closed, (series, m)
                    assert oracle_tiled(series, second), (series, m)
                    indices = delta_filtration(series, second, basis)
                    assert sum(basis.deltas[j].length for j in indices) == second.length
                    seconds += 1
    assert seconds == 33622


def test_dimension_drop_by_two():
    for series in nonselfinjective_cyclic(6):
        report = homology_report(series)
        if report.gldim == INFINITE:
            continue
        step = epsilon(series)
        reduced = max(homology_report(k).gldim for k in step.components)
        assert report.gldim == reduced + 2


def test_terminal_matches_finiteness():
    for series in nonselfinjective_cyclic(6):
        finite = homology_report(series).gldim != INFINITE
        tower = epsilon_tower(series)
        assert (tower.terminal == TERMINAL_LINEAR) == finite


def test_quasi_heredity_matches_reduction_shape():
    # quasi-hereditary iff the algebra or its reduction is acyclic
    for series in nonselfinjective_cyclic(6):
        report = homology_report(series)
        assert report.quasi_hereditary == (not epsilon(series).is_cyclic)
