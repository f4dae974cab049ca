import re
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from nakayama import (CYCLIC, LINEAR, KupischSeries, UniserialModule, enumerate_cyclic,
                      enumerate_linear)
from nakayama.errors import NakayamaError

sys.path.insert(0, str(Path(__file__).parent))


def input_error(message):
    """``pytest.raises`` for a NakayamaError whose message is exactly ``message``."""
    return pytest.raises(NakayamaError, match=f"^{re.escape(message)}$")


@st.composite
def cyclic_series(draw, max_n=6, max_entry=9, min_n=1):
    # build a rotation whose first entry is the maximum (closure is then
    # automatic), then rotate by a random offset to cover all labellings
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    first = draw(st.integers(min_value=2, max_value=max_entry))
    c = [first]
    for _ in range(n - 1):
        c.append(draw(st.integers(min_value=max(2, c[-1] - 1), max_value=first)))
    j = draw(st.integers(min_value=0, max_value=n - 1))
    return KupischSeries(CYCLIC, tuple(c[j:] + c[:j]))


@st.composite
def linear_series(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    c = [1]
    for i in range(n - 1, 0, -1):
        c.insert(0, draw(st.integers(min_value=2, max_value=min(c[0] + 1, n - i + 1))))
    return KupischSeries(LINEAR, tuple(c))


@st.composite
def any_series(draw, max_n=6, max_entry=9):
    if draw(st.booleans()):
        return draw(cyclic_series(max_n=max_n, max_entry=max_entry))
    return draw(linear_series(max_n=max_n))


@st.composite
def series_with_module(draw, max_n=6, max_entry=9):
    series = draw(any_series(max_n=max_n, max_entry=max_entry))
    top = draw(st.integers(min_value=1, max_value=series.n))
    length = draw(st.integers(min_value=1, max_value=series.c[top - 1]))
    return series, UniserialModule(top, length)


def enumerated_series():
    """Every enumerated algebra on which the one-pass routes meet their oracles.

    Cyclic classes with n <= 8 at the default cap, and with n <= 6 up to
    entries 3n + 1; every linear series with n <= 10.
    """
    for n in range(1, 9):
        yield from enumerate_cyclic(n)
        if n <= 6:
            yield from enumerate_cyclic(n, 3 * n + 1)
    for n in range(2, 11):
        yield from enumerate_linear(n)
