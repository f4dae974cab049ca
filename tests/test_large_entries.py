"""Cyclic series with huge entries: answers in time that grows with n, not with c."""

import contextlib
import io
import time

from hypothesis import given, settings

from nakayama import (
    INFINITE,
    epsilon_tower,
    homology_report,
    kupisch_to_relations,
    relations_to_kupisch,
)
from nakayama.cli import main
from nakayama.filtration import TERMINAL_LINEAR

from conftest import cyclic_series

huge_series = cyclic_series(max_n=6, max_entry=10**12)


@given(huge_series)
@settings(max_examples=100, deadline=None)
def test_relations_round_trip(series):
    assert relations_to_kupisch(kupisch_to_relations(series)) == series


@given(huge_series)
@settings(max_examples=100, deadline=None)
def test_tower_terminal_linear_iff_finite_gldim(series):
    finite = homology_report(series).gldim != INFINITE
    assert (epsilon_tower(series).terminal == TERMINAL_LINEAR) == finite


@given(huge_series)
@settings(max_examples=50, deadline=None)
def test_analyze_answers_quickly(series):
    argv = ["analyze", "--cyclic", ",".join(map(str, series.c)), "--format", "json"]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0
    assert time.perf_counter() - start < 1.0
