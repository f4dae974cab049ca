"""Socle intervals, the syzygy-filtered algebra, and its iteration.

For a cyclic non-selfinjective algebra the socles of the indecomposable
projectives single out a set of vertices; the stretches of the cycle
between consecutive socle vertices are uniserial interval modules that
tile the cycle (the base set).  As they tile it, the intervals from
interval j on (top t_j) cover length L exactly when the last vertex
covered, (t_j + L - 2) mod n + 1, is a socle vertex s_k, and then there
are (L - 1) // n * r + (k - j) mod r + 1 of them (r intervals in all).
Every second syzygy is so tiled, and so every higher one: by the jump
in the ``homology`` docstring, Omega^2 M(t, l) has top t + c_t, just past
the socle of P_t, and ends at the socle of P_{t+l}.  Counting intervals
instead of composition factors yields a smaller Nakayama algebra whose
module category models the interval-filtered modules.  Iterating the
construction terminates in a selfinjective algebra exactly when the global
dimension is infinite, and in an acyclic one exactly when it is finite.

The reduced algebra is computed combinatorially from the tiling; vertex j
of the result corresponds to interval j, in the cyclic order of socle
vertices starting from the smallest.  The result need not be connected: it
is either one cyclic algebra or a disjoint union of linear ones (arrows of
the reduced quiver leave vertex j only when its projective covers at least
two intervals, so a single entry 1 already breaks the cycle).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import CYCLIC, LINEAR, KupischSeries, UniserialModule, check_module
from .errors import NakayamaError

TERMINAL_LINEAR = "linear"
TERMINAL_SELFINJECTIVE = "selfinjective"


@dataclass(frozen=True)
class DeltaBasis:
    """The tiling of the cycle by intervals between consecutive projective socles.

    ``socle_vertices`` is sorted ascending; ``deltas[j]`` is the interval
    module ending at ``socle_vertices[j]``, and ``top_vertices[j]`` is its
    top (the cyclic successor of the previous socle vertex).  Interval
    lengths sum to n.
    """

    socle_vertices: tuple[int, ...]
    top_vertices: tuple[int, ...]
    deltas: tuple[UniserialModule, ...]


def _socles_and_tops(series: KupischSeries) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The projectives' socle vertices, ascending, and each interval's top, read from c.

    Interval j ends at socle j and starts just past socle j - 1 (cyclically).
    """
    if series.kind != CYCLIC:
        raise NakayamaError(f"base set is defined for cyclic algebras, got {series.kind}")
    if series.is_selfinjective:
        raise NakayamaError(f"base set undefined for selfinjective {series}")
    n = series.n
    socles = tuple(sorted({(v + length - 2) % n + 1 for v, length in enumerate(series.c, 1)}))
    return socles, tuple(s % n + 1 for s in socles[-1:] + socles[:-1])


def base_set(series: KupischSeries) -> DeltaBasis:
    """The ``_socles_and_tops`` of c and the interval modules they cut out of the cycle.

    They tile it: the lengths (s_j - s_{j-1} - 1) mod n + 1 telescope to n.
    """
    socles, tops = _socles_and_tops(series)
    n = series.n
    deltas = tuple(UniserialModule(t, (s - t) % n + 1) for t, s in zip(tops, socles))
    return DeltaBasis(socle_vertices=socles, top_vertices=tops, deltas=deltas)


@dataclass(frozen=True)
class EpsilonStep:
    """One application of the reduction.

    ``components`` is the reduced algebra: a single cyclic series when
    every new entry is at least 2, otherwise the linear pieces it splits
    into (ordered by their final interval index).
    """

    components: tuple[KupischSeries, ...]

    @property
    def is_cyclic(self) -> bool:
        return len(self.components) == 1 and self.components[0].kind == CYCLIC

    @property
    def algebra(self) -> KupischSeries:
        """The reduced algebra when connected; raises when it splits."""
        if len(self.components) != 1:
            raise NakayamaError(
                f"reduced algebra is disconnected: {[str(k) for k in self.components]}"
            )
        return self.components[0]


def epsilon(series: KupischSeries) -> EpsilonStep:
    """The syzygy-filtered algebra: the components of ``_reduce``, validated."""
    return EpsilonStep(tuple(KupischSeries(*component) for component in _reduce(series)))


def _reduce(series) -> tuple:
    """The (kind, c) of each component of ``epsilon(series)``, via interval counts.

    The projective at interval top t ends at (t + c_t - 2) mod n + 1, a socle
    vertex by the construction of ``_socles_and_tops``, so it is tiled and
    ``_interval_count`` always finds it; the number of intervals it covers is
    the new projective length at that vertex.
    """
    socles, tops = _socles_and_tops(series)
    c, n = series.c, series.n
    entries = [_interval_count(socles, tops, n, j, c[top - 1]) for j, top in enumerate(tops)]
    return _split_components(entries)


def _interval_count(socles, tops, n, j, length):
    """How many intervals from index j on tile ``length``, by the socle lookup; None if none do."""
    r, last = len(socles), (tops[j] + length - 2) % n + 1
    k = bisect_left(socles, last)
    if k == r or socles[k] != last:
        return None
    return (length - 1) // n * r + (k - j) % r + 1


def _split_components(entries: list[int]) -> tuple:
    r = len(entries)
    if min(entries) >= 2:
        return ((CYCLIC, tuple(entries)),)
    sinks = [j for j in range(r) if entries[j] == 1]
    components = []
    for i, b in enumerate(sinks):
        a = sinks[i - 1]
        segment = tuple(entries[t % r] for t in range((a - r if i == 0 else a) + 1, b + 1))
        components.append((LINEAR, segment))
    return tuple(components)


@dataclass(frozen=True)
class EpsilonTower:
    """Iterated reduction of a cyclic algebra until the shape stabilizes.

    The terminal is "linear" when the last step is acyclic (finite global
    dimension) and "selfinjective" when the iteration reaches a constant
    series (infinite global dimension; depth 0 when the input itself is
    selfinjective).
    """

    steps: tuple[EpsilonStep, ...]
    terminal: str

    @property
    def depth(self) -> int:
        return len(self.steps)

    def to_dict(self) -> dict:
        return {
            "steps": [
                [{"kind": k.kind, "c": list(k.c)} for k in step.components]
                for step in self.steps
            ],
            "terminal": self.terminal,
            "depth": self.depth,
        }


def epsilon_tower(series: KupischSeries) -> EpsilonTower:
    """Apply the reduction until reaching a selfinjective or acyclic algebra."""
    if series.kind != CYCLIC:
        raise NakayamaError(f"tower is defined for cyclic algebras, got {series.kind}")
    steps = []
    current = series
    while True:
        if current.is_selfinjective:
            return EpsilonTower(tuple(steps), TERMINAL_SELFINJECTIVE)
        step = epsilon(current)
        steps.append(step)
        if not step.is_cyclic:
            return EpsilonTower(tuple(steps), TERMINAL_LINEAR)
        current = step.algebra


def delta_filtration(
    series: KupischSeries, m: UniserialModule, basis: DeltaBasis | None = None
) -> list[int]:
    """Decompose a module into consecutive base-set intervals.

    Returns the interval indices (positions into ``basis.deltas``), top
    factor first; wraps around the tiling as often as the module is long.
    Raises NakayamaError when the module's top is not an interval top or its
    socle (last composition factor) is not a socle vertex, the tiling rule
    of the module docstring.  Second and higher syzygies always decompose;
    other modules may not.
    """
    basis = basis or base_set(series)
    check_module(series, m)
    if m.top not in basis.top_vertices:
        raise NakayamaError(f"{m} has top {m.top}, which is not an interval top")
    j = basis.top_vertices.index(m.top)
    count = _interval_count(basis.socle_vertices, basis.top_vertices, series.n, j, m.length)
    if count is None:
        raise NakayamaError(f"{m} is not tiled exactly by consecutive intervals")
    r = len(basis.deltas)
    return [(j + k) % r for k in range(count)]

