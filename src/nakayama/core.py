"""Kupisch series, relation systems, uniserial modules, and the syzygy map.

Conventions (fixed once, used everywhere):

* Vertices are 1-based.  Arrow i goes from vertex i to vertex i+1; on a
  cyclic quiver arrow n wraps to vertex 1, on a linear quiver the arrows
  are 1..n-1 and vertex n is the sink.
* ``c[v-1]`` is the composition length of the indecomposable projective
  with top at vertex v (equivalently: one plus the length of the longest
  nonzero path starting at v).
* The uniserial module M(t, l) has top at vertex t, length l, and
  composition factors at vertices t, t+1, ..., t+l-1 (taken mod n when
  cyclic).  It is the quotient of the projective at t by the l-th radical
  power, so l <= c[t-1] always.
* A relation is stored as a pair (start, end) of arrow indices meaning the
  path using arrows start, start+1, ..., end is zero.  ``end`` is kept as a
  plain integer >= start + 1 (not reduced mod n), so the path length is
  always end - start + 1; paths longer than n wrap around the cycle.

All values are immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BadTail,
    EmptyCyclicSystem,
    InternalError,
    InvalidModule,
    InvalidRelationSystem,
    RedundantRelations,
    ShortProjective,
    StepViolation,
)

CYCLIC = "cyclic"
LINEAR = "linear"


# ---------------------------------------------------------------------------
# Kupisch series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KupischSeries:
    """A connected Nakayama algebra, given by its vector of projective lengths.

    Construction validates the defining constraints and raises
    ``StepViolation`` / ``ShortProjective`` / ``BadTail`` on invalid input.
    """

    kind: str
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(int(x) for x in self.c))
        if self.kind not in (CYCLIC, LINEAR):
            raise ValueError(f"kind must be {CYCLIC!r} or {LINEAR!r}, got {self.kind!r}")
        c = self.c
        n = len(c)
        if n == 0:
            raise ValueError("empty series")
        if self.kind == CYCLIC:
            for v in range(n):
                if c[v] < 2:
                    raise ShortProjective(f"cyclic series needs c_i >= 2, got c_{v+1} = {c[v]}")
                if c[(v + 1) % n] < c[v] - 1:
                    raise StepViolation(
                        f"c_{(v + 1) % n + 1} = {c[(v + 1) % n]} < c_{v+1} - 1 = {c[v] - 1}"
                    )
        else:
            if c[n - 1] != 1:
                raise BadTail(f"linear series must end in 1, got c_{n} = {c[n-1]}")
            for v in range(n - 1):
                if c[v] < 2:
                    raise ShortProjective(
                        f"linear series needs c_i >= 2 for i < n, got c_{v+1} = {c[v]}"
                    )
                if c[v] > n - v:
                    raise BadTail(f"c_{v+1} = {c[v]} exceeds n - i + 1 = {n - v}")
                if c[v + 1] < c[v] - 1:
                    raise StepViolation(f"c_{v+2} = {c[v+1]} < c_{v+1} - 1 = {c[v] - 1}")

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def is_cyclic(self) -> bool:
        return self.kind == CYCLIC

    @property
    def is_selfinjective(self) -> bool:
        """Constant cyclic series; always False for linear kind."""
        return self.kind == CYCLIC and len(set(self.c)) == 1

    @property
    def is_semisimple(self) -> bool:
        return self.kind == LINEAR and self.c == (1,)

    def __str__(self):
        return f"[{','.join(map(str, self.c))}]"


def validate(kind: str, c) -> KupischSeries:
    """Validate a length vector and return the series; the constructor raises otherwise."""
    return KupischSeries(kind, tuple(c))


def rotate(series: KupischSeries, j: int) -> KupischSeries:
    """Relabel vertices v -> v - j around the cycle (entry j+1 becomes first)."""
    if series.kind != CYCLIC:
        raise ValueError("only cyclic series can be rotated")
    n = series.n
    j %= n
    return KupischSeries(CYCLIC, series.c[j:] + series.c[:j])


def canonical_form(series: KupischSeries) -> KupischSeries:
    """Canonical representative of the isomorphism class.

    Linear series are already canonical (no relabelling freedom).  For a
    cyclic series the canonical form is the lexicographically greatest
    rotation; two cyclic series present isomorphic algebras exactly when
    their canonical forms are equal.
    """
    if series.kind != CYCLIC:
        return series
    c, n = series.c, series.n
    best = max(c[j:] + c[:j] for j in range(n))
    return series if best == c else KupischSeries(CYCLIC, best)


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
        raise InvalidModule(f"top {m.top} out of range 1..{series.n}")
    if not 1 <= m.length <= series.c[m.top - 1]:
        raise InvalidModule(
            f"length {m.length} not in 1..c_{m.top} = {series.c[m.top - 1]}"
        )


def is_projective(series: KupischSeries, m: UniserialModule) -> bool:
    check_module(series, m)
    return m.length == series.c[m.top - 1]


def composition_factors(series: KupischSeries, m: UniserialModule) -> tuple[int, ...]:
    """Vertices of the composition factors, top first."""
    check_module(series, m)
    n = series.n
    if series.kind == CYCLIC:
        return tuple((m.top - 1 + t) % n + 1 for t in range(m.length))
    return tuple(m.top + t for t in range(m.length))


def _syzygy_step(c, cyclic, top, length):
    """(top, length) of the syzygy of the non-projective M(top, length).

    The step constraint on the series guarantees the result is again a
    valid module; a result that is not raises InternalError.
    """
    new_top = (top - 1 + length) % len(c) + 1 if cyclic else top + length
    new_length = c[top - 1] - length
    if new_length > c[new_top - 1]:
        raise InternalError(f"syzygy of M({top},{length}) over [{','.join(map(str, c))}]"
                            f" is too long: M({new_top},{new_length})")
    return new_top, new_length


def syzygy(series: KupischSeries, m: UniserialModule) -> UniserialModule | None:
    """Kernel of the projective cover, or None when the module is projective.

    For M(t, l) over the projective of length c_t the kernel is the radical
    power rad^l, which is uniserial with top t + l and length c_t - l.
    """
    check_module(series, m)
    if m.length == series.c[m.top - 1]:
        return None
    return UniserialModule(*_syzygy_step(series.c, series.kind == CYCLIC, m.top, m.length))


# ---------------------------------------------------------------------------
# Relation systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationSystem:
    """An irredundant set of zero relations presenting the algebra.

    ``relations`` holds (start, end) arrow-index pairs sorted by start; see
    the module docstring for the unreduced-end convention.  For the linear
    kind the formal relation "arrow n vanishes" is implicit and not stored;
    the conventional relation count ``r`` is stored relations plus one.
    Cyclic selfinjective algebras are presented by n relations of equal
    length and flagged via ``selfinjective``.
    """

    kind: str
    n: int
    relations: tuple[tuple[int, int], ...]
    selfinjective: bool = field(default=False)

    def __post_init__(self):
        object.__setattr__(
            self, "relations", tuple(sorted((int(s), int(e)) for s, e in self.relations))
        )
        if self.kind not in (CYCLIC, LINEAR):
            raise ValueError(f"kind must be {CYCLIC!r} or {LINEAR!r}, got {self.kind!r}")
        if self.n < 1:
            raise InvalidRelationSystem(f"vertex count must be positive, got {self.n}")
        rel = self.relations
        if self.kind == CYCLIC and not rel:
            raise EmptyCyclicSystem("a cyclic quiver needs at least one relation")
        starts = [s for s, _ in rel]
        if len(set(starts)) != len(starts):
            raise InvalidRelationSystem(f"repeated relation starts in {rel}")
        for s, e in rel:
            if not 1 <= s <= self.n:
                raise InvalidRelationSystem(f"start {s} out of range 1..{self.n}")
            if e < s + 1:
                raise InvalidRelationSystem(f"relation ({s},{e}) has length < 2")
            if self.kind == LINEAR and e > self.n - 1:
                raise InvalidRelationSystem(
                    f"linear relation ({s},{e}) runs past arrow {self.n - 1}"
                )
        for a in rel:
            for b in rel:
                if a is not b and _contains(a, b, self.n, self.kind):
                    raise RedundantRelations(f"relation {a} contains relation {b}")
        if self.selfinjective:
            lengths = {e - s + 1 for s, e in rel}
            if self.kind != CYCLIC or len(rel) != self.n or len(lengths) != 1:
                raise InvalidRelationSystem(
                    "selfinjective flag requires n cyclic relations of equal length"
                )

    @property
    def r(self) -> int:
        """Relation count in the counting convention: stored + 1 for linear."""
        return len(self.relations) + (1 if self.kind == LINEAR else 0)

    def lengths(self) -> tuple[int, ...]:
        return tuple(e - s + 1 for s, e in self.relations)


def _contains(p, q, n, kind) -> bool:
    """Does the arrow interval of relation p contain that of relation q?

    Intervals live on the cycle, so q may sit inside p after shifting by a
    multiple of n.  On a line only the unshifted comparison applies.
    """
    (sp, ep), (sq, eq) = p, q
    if kind == LINEAR:
        return sp <= sq and eq <= ep
    # some shift t has sp <= sq + t*n and eq + t*n <= ep: ceil((sp-sq)/n) <= floor((ep-eq)/n)
    return -((sp - sq) // -n) <= (ep - eq) // n


def kupisch_to_relations(series: KupischSeries) -> RelationSystem:
    """Irredundant presentation: relation starts are the v with c_v <= c_{v+1}.

    Each start v contributes the zero path of length c_v, i.e. the pair
    (v, v + c_v - 1).  Inverse of ``relations_to_kupisch``.
    """
    c, n = series.c, series.n
    rel = []
    last = n if series.kind == CYCLIC else n - 1
    for v in range(1, last + 1):
        if c[v - 1] <= c[v % n]:
            rel.append((v, v + c[v - 1] - 1))
    return RelationSystem(series.kind, n, tuple(rel),
                          selfinjective=series.is_selfinjective)


def relations_to_kupisch(system: RelationSystem) -> KupischSeries:
    """Projective lengths determined by the first relation at or after each vertex.

    Walking forward from v, the first zero path that completes is the one
    belonging to the first relation start s at or after v (irredundancy
    makes later relations finish later), so c_v = dist(v, s) + length.
    Linear vertices past the last start run freely to the sink.
    """
    n = system.n
    starts = [s for s, _ in system.relations]
    length = {s: e - s + 1 for s, e in system.relations}
    c = []
    for v in range(1, n + 1):
        if system.kind == CYCLIC:
            dist, s = min(((s - v) % n, s) for s in starts)
            c.append(dist + length[s])
        else:
            ahead = [s for s in starts if s >= v]
            if ahead:
                s = ahead[0]
                c.append(s - v + length[s])
            else:
                c.append(n - v + 1)
    return KupischSeries(system.kind, tuple(c))


def normalize_relation_labels(system: RelationSystem) -> RelationSystem:
    """Rotate vertex labels so the smallest relation start becomes 1 (cyclic only)."""
    if system.kind != CYCLIC or not system.relations:
        return system
    shift = min(s for s, _ in system.relations) - 1
    if shift == 0:
        return system
    n = system.n
    rel = tuple(((s - shift - 1) % n + 1, (s - shift - 1) % n + 1 + (e - s))
                for s, e in system.relations)
    return RelationSystem(CYCLIC, n, rel, selfinjective=system.selfinjective)


# ---------------------------------------------------------------------------
# Textual formats ("3,4,4" and "1:2;2:3"), consumed by the CLI
# ---------------------------------------------------------------------------

def parse_kupisch(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse Kupisch series from {text!r}") from None


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
            raise ValueError(f"cannot parse relation {chunk!r}; expected start:end") from None
        if kind == CYCLIC and e <= s:
            e += n
        rel.append((s, e))
    return RelationSystem(kind, n, tuple(rel))


def format_relations(system: RelationSystem) -> str:
    return ";".join(f"{s}:{e}" for s, e in system.relations)
