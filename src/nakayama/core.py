"""Kupisch series, relation systems, uniserial modules, and the syzygy map.

Conventions (fixed once, used everywhere):

* Vertices are 1-based.  Arrow i goes from vertex i to vertex i+1; on a
  cyclic quiver arrow n wraps to vertex 1, on a linear quiver the arrows
  are 1..n-1 and vertex n is the sink.
* ``c[v-1]`` is the composition length of the indecomposable projective
  with top at vertex v (equivalently: one plus the length of the longest
  nonzero path starting at v).
* The uniserial module M(t, l) has top at vertex t, length l, and
  composition factors at vertices t, t+1, ..., t+l-1 (taken mod n; on a
  line t+l-1 <= n, so they never wrap).  It is the quotient of the
  projective at t by the l-th radical power, so l <= c[t-1] always.
* A relation is stored as a pair (start, end) of arrow indices meaning the
  path using arrows start, start+1, ..., end is zero.  ``end`` is kept as a
  plain integer >= start + 1 (not reduced mod n), so the path length is
  always end - start + 1; paths longer than n wrap around the cycle.

All values are immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .errors import InternalError, NakayamaError

CYCLIC = "cyclic"
LINEAR = "linear"
_VERTEX_LIMIT = 10 ** 7  # a relation system's largest n: lists of n entries are built from it


def check_kind(kind: str) -> str:
    """The quiver ``kind`` itself; NakayamaError unless it is CYCLIC or LINEAR."""
    if kind not in (CYCLIC, LINEAR):
        raise NakayamaError(f"kind must be {CYCLIC!r} or {LINEAR!r}, got {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# Kupisch series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KupischSeries:
    """A connected Nakayama algebra, given by its vector of projective lengths.

    Construction validates the defining constraints and raises
    ``NakayamaError`` naming the broken one on invalid input, and TypeError
    on an entry that is not an integer (a float or a string).
    """

    kind: str
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(map(index, self.c)))
        check_kind(self.kind)
        c, n, cyclic = self.c, len(self.c), self.kind == CYCLIC
        if n == 0:
            raise NakayamaError("empty series")
        if not cyclic and c[n - 1] != 1:
            raise NakayamaError(f"linear series must end in 1, got c_{n} = {c[n-1]}")
        for v in range(n if cyclic else n - 1):
            if c[v] < 2:
                raise NakayamaError(f"{self.kind} series needs c_i >= 2"
                                    f"{'' if cyclic else ' for i < n'}, got c_{v+1} = {c[v]}")
            if not cyclic and c[v] > n - v:
                raise NakayamaError(f"c_{v+1} = {c[v]} exceeds n - i + 1 = {n - v}")
            if c[(v + 1) % n] < c[v] - 1:
                raise NakayamaError(
                    f"c_{(v + 1) % n + 1} = {c[(v + 1) % n]} < c_{v+1} - 1 = {c[v] - 1}"
                )

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def is_selfinjective(self) -> bool:
        """Constant cyclic series; always False for linear kind."""
        return self.kind == CYCLIC and len(set(self.c)) == 1

    def __str__(self):
        return _label(self.c)


def _label(c) -> str:
    """The series c as "[c1,c2,...]", the form every message names an algebra in."""
    return f"[{','.join(map(str, c))}]"


def validate(kind: str, c) -> KupischSeries:
    """Validate a length vector and return the series; the constructor raises otherwise."""
    return KupischSeries(kind, tuple(c))


def canonical_form(series: KupischSeries) -> KupischSeries:
    """Canonical representative of the isomorphism class.

    Linear series are already canonical (no relabelling freedom).  For a
    cyclic series the canonical form is the lexicographically greatest
    rotation; two cyclic series present isomorphic algebras exactly when
    their canonical forms are equal.
    """
    best = _canonical_c(series.kind, series.c)
    return series if best == series.c else KupischSeries(CYCLIC, best)


def _canonical_c(kind: str, c: tuple) -> tuple:
    """The c of ``canonical_form``: its greatest rotation when cyclic, else c itself.

    Linear time: a two-pointer scan for Booth's least rotation (Inf. Process. Lett. 1980), order
    reversed.  Where rotations i < j differ after k equal entries, the smaller and its next k lose.
    """
    if kind != CYCLIC:
        return c
    n, i, j, k = len(c), 0, 1, 0  # i leads, and each rotation before j but i has lost
    while j < n and k < n:  # k = n: c is periodic, and rotations i and j are equal
        if (a := c[(i + k) % n]) == (b := c[(j + k) % n]):
            k += 1
        else:
            i, j, k = (j, max(j, i + k) + 1, 0) if a < b else (i, j + k + 1, 0)
    return c[i:] + c[:i]


# ---------------------------------------------------------------------------
# Uniserial modules and the syzygy map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniserialModule:
    """The indecomposable with the given top vertex and composition length."""

    top: int
    length: int

    def __str__(self):
        return f"M({self.top},{self.length})"


def check_module(series: KupischSeries, m: UniserialModule) -> None:
    if not 1 <= m.top <= series.n:
        raise NakayamaError(f"top {m.top} out of range 1..{series.n}")
    if not 1 <= m.length <= series.c[m.top - 1]:
        raise NakayamaError(
            f"length {m.length} not in 1..c_{m.top} = {series.c[m.top - 1]}"
        )


def syzygy(series: KupischSeries, m: UniserialModule) -> UniserialModule | None:
    """Kernel of the projective cover, or None when the module is projective.

    For M(t, l) over the projective of length c_t the kernel is the radical
    power rad^l, which is uniserial with top t + l and length c_t - l.  The
    step rule makes it a valid module; InternalError says that it did not.
    """
    check_module(series, m)
    c = series.c
    if m.length == c[m.top - 1]:
        return None
    # on a line length < c_top <= n - top + 1, so top + length never wraps
    top, length = (m.top - 1 + m.length) % len(c) + 1, c[m.top - 1] - m.length
    if length > c[top - 1]:
        raise InternalError(f"syzygy of {m} over {_label(c)}"
                            f" is too long: M({top},{length})")
    return UniserialModule(top, length)


# ---------------------------------------------------------------------------
# Relation systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationSystem:
    """An irredundant set of zero relations presenting the algebra.

    ``relations`` holds (start, end) arrow-index pairs sorted by start; see
    the module docstring for the unreduced-end convention.  Construction
    enforces an integer vertex count and endpoints (TypeError otherwise)
    and raises NakayamaError unless n is at most ``_VERTEX_LIMIT`` (lists
    of length n are built from it), the starts are distinct and in 1..n,
    lengths are at least 2, linear ends at most n - 1, and no relation lies
    inside another (on a cycle, after any shift by a multiple of n), so the
    ends increase with the starts.  For the linear kind the formal relation
    "arrow n vanishes" is implicit and not stored; the conventional relation
    count ``r`` is stored plus one.
    """

    kind: str
    n: int
    relations: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", index(self.n))
        object.__setattr__(
            self, "relations", tuple(sorted((index(s), index(e)) for s, e in self.relations))
        )
        check_kind(self.kind)
        if self.n < 1:
            raise NakayamaError(f"vertex count must be positive, got {self.n}")
        if self.n > _VERTEX_LIMIT:
            raise NakayamaError(f"vertex count {self.n} exceeds the limit {_VERTEX_LIMIT}")
        rel = self.relations
        if self.kind == CYCLIC and not rel:
            raise NakayamaError("a cyclic quiver needs at least one relation")
        starts = [s for s, _ in rel]
        if len(set(starts)) != len(starts):
            raise NakayamaError(f"repeated relation starts in {rel}")
        for s, e in rel:
            if not 1 <= s <= self.n:
                raise NakayamaError(f"start {s} out of range 1..{self.n}")
            if e < s + 1:
                raise NakayamaError(f"relation ({s},{e}) has length < 2")
            if self.kind == LINEAR and e > self.n - 1:
                raise NakayamaError(
                    f"linear relation ({s},{e}) runs past arrow {self.n - 1}"
                )
        # with sorted distinct starts, no relation contains another (on a cycle, after any
        # shift by n) exactly when the ends increase, on a cycle up to the first end plus n
        ends = [e for _, e in rel] + ([rel[0][1] + self.n] if self.kind == CYCLIC else [])
        for i in range(len(ends) - 1):
            if ends[i + 1] <= ends[i]:
                inner = rel[(i + 1) % len(rel)]
                raise NakayamaError(f"relation {rel[i]} contains relation {inner}")

    @property
    def r(self) -> int:
        """Relation count in the counting convention: stored + 1 for linear."""
        return len(self.relations) + (1 if self.kind == LINEAR else 0)


def _relation_pairs(c: tuple) -> list:
    """The relation starts are the v with 2 <= c_v <= c_{v+1}, c read mod n; each gives
    (v, v + c_v - 1).  Only a line's sink has c_v = 1; its formal relation is not stored.

    The one home of that rule, read straight from c: ``kupisch_to_relations``
    validates the pairs as a ``RelationSystem``; the verify sweep reads them bare.
    """
    n = len(c)
    return [(v + 1, v + a) for v, a in enumerate(c) if 1 < a <= c[(v + 1) % n]]


def kupisch_to_relations(series: KupischSeries) -> RelationSystem:
    """Irredundant presentation: the ``_relation_pairs`` of c, validated.

    Each start v contributes the zero path of length c_v, i.e. the pair
    (v, v + c_v - 1).  Inverse of ``relations_to_kupisch``.
    """
    return RelationSystem(series.kind, series.n, _relation_pairs(series.c))


def relations_to_kupisch(system: RelationSystem) -> KupischSeries:
    """Projective lengths in one backward walk along the quiver.

    Walking forward from v, the first zero path that completes is the one
    belonging to the first relation start s at or after v (irredundancy
    makes later relations finish later).  So a start has c_s = its length,
    and any other vertex meets the same relation as v + 1, one arrow further
    away: c_v = c_{v+1} + 1.  A line's walk begins at the sink with
    c_n = 1; a cycle's goes once round, backwards from its last start.
    """
    return KupischSeries(system.kind, _kupisch_c(system.kind, system.n, system.relations))


def _kupisch_c(kind: str, n: int, relations) -> tuple:
    """The c of ``relations_to_kupisch`` from a system's fields or bare sorted pairs, unvalidated."""
    length = {s: e - s + 1 for s, e in relations}
    origin = relations[-1][0] if kind == CYCLIC else n
    c, ahead = [0] * n, 0  # ahead: c of the vertex after v (0 past the sink)
    for step in range(n):
        v = (origin - 1 - step) % n + 1
        ahead = c[v - 1] = length.get(v, ahead + 1)
    return tuple(c)


def normalize_relation_labels(system: RelationSystem) -> RelationSystem:
    """Rotate vertex labels so the smallest relation start becomes 1 (cyclic only)."""
    if system.kind != CYCLIC:
        return system
    shift = system.relations[0][0] - 1  # the starts are sorted, so each s - shift is in 1..n
    return RelationSystem(CYCLIC, system.n,
                          tuple((s - shift, e - shift) for s, e in system.relations))


# ---------------------------------------------------------------------------
# Textual formats ("3,4,4" and "1:2;2:3"), consumed by the CLI
# ---------------------------------------------------------------------------

def parse_kupisch(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise NakayamaError(f"cannot parse Kupisch series from {text!r}") from None


def format_kupisch(series: KupischSeries) -> str:
    return ",".join(map(str, series.c))


def parse_relations(text: str, kind: str, n: int) -> RelationSystem:
    """Parse "s1:e1;s2:e2;...".

    Ends may be given reduced mod n: a cyclic pair with
    e <= s is unreduced by adding n.  An empty string is the empty system
    (valid for the linear kind only).
    """
    rel = []
    for chunk in filter(None, (p.strip() for p in text.split(";"))):
        try:
            s_txt, e_txt = chunk.split(":")
            s, e = int(s_txt), int(e_txt)
        except ValueError:
            raise NakayamaError(f"cannot parse relation {chunk!r}; expected start:end") from None
        if kind == CYCLIC and e <= s:
            e += n
        rel.append((s, e))
    return RelationSystem(kind, n, tuple(rel))


def format_relations(system: RelationSystem) -> str:
    return ";".join(f"{s}:{e}" for s, e in system.relations)
