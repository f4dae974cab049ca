"""Projective dimensions, global dimension, and the derived classification.

Projective dimensions are computed by iterating the syzygy map, which is a
deterministic function on the finite state space of uniserial modules: an
orbit either reaches a projective (finite pd) or revisits a state (infinite
pd).  ``math.inf`` is used for the infinite value so comparisons and
``max()`` behave naturally; JSON output encodes it as the string "inf".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import (
    CYCLIC,
    LINEAR,
    KupischSeries,
    UniserialModule,
    _syzygy_step,
    check_module,
    syzygy,
)
from .errors import InfiniteGlobalDimension, InternalError

INFINITE = math.inf


def syzygy_orbit(series: KupischSeries, m: UniserialModule):
    """Yield m, its syzygy, its second syzygy, ... .

    Stops after yielding a projective module, or just before a state would
    repeat (the orbit is then periodic and every pd along it is infinite).
    Never yields more than sum(c) modules.
    """
    check_module(series, m)
    seen = set()
    while m is not None and m not in seen:
        seen.add(m)
        yield m
        m = syzygy(series, m)


def projective_dimension(series: KupischSeries, m: UniserialModule, memo=None):
    """Number of syzygy steps until the module becomes projective, or INFINITE.

    A projective module has dimension 0.  Pass a shared ``memo`` dict to
    reuse results across queries on the same algebra; entries are final
    once written, so the answer never depends on query order.
    """
    check_module(series, m)
    return _pd_walk(series.c, series.kind == CYCLIC, m.top, m.length, {} if memo is None else memo)


def _pd_walk(c, cyclic, top, length, memo):
    """The walk of ``projective_dimension`` from the valid module M(top, length)."""
    path = []
    on_path = set()
    while True:
        if length == c[top - 1]:
            base = 0
            break
        key = (top, length)
        if key in memo:
            base = memo[key]
            break
        if key in on_path:
            base = INFINITE
            break
        on_path.add(key)
        path.append(key)
        top, length = _syzygy_step(c, cyclic, top, length)
    for key in reversed(path):
        base = base + 1  # INFINITE + 1 == INFINITE
        memo[key] = base
    return base


def pd_simples(series: KupischSeries, memo=None) -> tuple:
    """Projective dimension of every simple module, indexed by vertex."""
    if memo is None:
        memo = {}
    c, cyclic = series.c, series.kind == CYCLIC
    return tuple(_pd_walk(c, cyclic, v, 1, memo) for v in range(1, series.n + 1))


def all_modules(series: KupischSeries):
    """Every uniserial module of the algebra."""
    for v in range(1, series.n + 1):
        for length in range(1, series.c[v - 1] + 1):
            yield UniserialModule(v, length)


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyReport:
    """Homological classification of one algebra.

    ``o_set`` collects the finite pd values of simples; ``lam`` maps each
    c in o_set to the number of simples with pd different from c (asking
    for other c is a KeyError by design).  ``s_connected`` is True/False
    when the global dimension is finite and None when it is infinite, where
    the notion is undefined.  ``brown_slack`` is a_min + min(lam) - gldim,
    the slack in the sharpest interval bound; nonnegative whenever
    ``s_connected`` is True.
    """

    kind: str
    c: tuple[int, ...]
    pd_simple: tuple
    gldim: "int | float"
    o_set: tuple[int, ...]
    a_min: "int | None"
    lam: "dict[int, int]"
    s_connected: "bool | None"
    quasi_hereditary: bool
    brown_slack: "int | None"

    @property
    def lambda_one(self) -> int:
        """Number of simples with pd != 1 (Brown's lambda), defined for every algebra."""
        return sum(1 for p in self.pd_simple if p != 1)

    @property
    def brown_bound(self) -> int:
        """Brown's bound on gldim for quasi-hereditary algebras: lambda_1, +1 when cyclic."""
        return self.lambda_one + (1 if self.kind == CYCLIC else 0)

    def to_dict(self) -> dict:
        enc = lambda p: "inf" if p == INFINITE else p
        return {
            "kind": self.kind,
            "kupisch": list(self.c),
            "pd_simple": [enc(p) for p in self.pd_simple],
            "gldim": enc(self.gldim),
            "o_set": list(self.o_set),
            "a_min": self.a_min,
            "lambda": {str(k): v for k, v in sorted(self.lam.items())},
            "s_connected": self.s_connected,
            "quasi_hereditary": self.quasi_hereditary,
            "brown_slack": self.brown_slack,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def homology_report(series: KupischSeries, memo=None) -> HomologyReport:
    """Compute the full report for a connected Nakayama algebra (``memo`` as in pd_simples)."""
    pds = pd_simples(series, memo)
    gldim = max(pds)
    o_set = tuple(sorted({p for p in pds if p != INFINITE}))
    a_min = o_set[0] if o_set else None
    lam = {cc: sum(1 for p in pds if p != cc) for cc in o_set}
    if gldim == INFINITE:
        s_connected = None
    else:
        s_connected = o_set == tuple(range(a_min, gldim + 1))
    quasi_hereditary = 0 in pds or 2 in pds
    brown_slack = None
    if gldim != INFINITE:
        brown_slack = a_min + min(lam.values()) - gldim
        if series.kind == LINEAR and o_set != tuple(range(0, gldim + 1)):
            # acyclic algebras realize every pd from 0 up to the global dimension
            raise InternalError(f"linear {series} has simple pds {pds}, not 0..{gldim}")
    return HomologyReport(
        kind=series.kind,
        c=series.c,
        pd_simple=pds,
        gldim=gldim,
        o_set=o_set,
        a_min=a_min,
        lam=lam,
        s_connected=s_connected,
        quasi_hereditary=quasi_hereditary,
        brown_slack=brown_slack,
    )


# ---------------------------------------------------------------------------
# Checkable consequences (each returns a list of violations, [] on success)
# ---------------------------------------------------------------------------

def check_madsen(series: KupischSeries, memo=None) -> list:
    """Odd-pd modules attain their pd on a composition factor.

    For every uniserial module M of finite odd projective dimension, the
    maximum of the finite pds of its simple composition factors must exist
    and equal pd M.  Returns the violating modules.  M(t, l) adds the factor
    at t + l - 1 to those of M(t, l - 1), so one walk per top keeps the maximum.
    """
    if memo is None:
        memo = {}
    pds = pd_simples(series, memo)
    c, n, cyclic = series.c, series.n, series.kind == CYCLIC
    violations = []
    for top in range(1, n + 1):
        best = None  # largest finite pd among the factors so far
        for length in range(1, c[top - 1]):  # projectives have pd 0
            q = pds[(top + length - 2) % n]
            if q != INFINITE and (best is None or q > best):
                best = q
            p = _pd_walk(c, cyclic, top, length, memo)
            if p != INFINITE and p % 2 == 1 and p != best:
                violations.append(UniserialModule(top, length))
    return violations


def check_parity_interpolation(series: KupischSeries, memo=None) -> list[str]:
    """Odd values up to gldim are all attained; even values interpolate.

    Requires finite global dimension (raises InfiniteGlobalDimension
    otherwise).  Between any two attained even pds every intermediate even
    value must be attained as well.
    """
    pds = pd_simples(series, memo)
    if INFINITE in pds:
        raise InfiniteGlobalDimension(f"{series} has infinite global dimension")
    gldim = max(pds)
    attained = set(pds)
    violations = []
    for odd in range(1, gldim + 1, 2):
        if odd not in attained:
            violations.append(f"{series}: odd value {odd} <= gldim {gldim} not attained")
    evens = sorted(p for p in attained if p % 2 == 0)
    if evens:
        for t in range(evens[0], evens[-1] + 1, 2):
            if t not in attained:
                violations.append(f"{series}: even value {t} not interpolated")
    return violations


def check_inequalities(series: KupischSeries, report=None) -> list[str]:
    """Interval bound, Brown's bound, and the acyclic sink bound.

    When the pd values of simples form an interval: gldim <= a + lambda_c
    for every attained c.  When the algebra is quasi-hereditary: Brown's
    gldim <= lambda_1 (linear) or lambda_1 + 1 (cyclic).  Linear algebras
    additionally satisfy gldim <= n - 1 (one sink).  ``report``: the
    algebra's report, when already computed.
    """
    report = report or homology_report(series)
    violations = []
    if report.s_connected:
        for cc in report.o_set:
            if report.gldim > report.a_min + report.lam[cc]:
                violations.append(
                    f"{series}: gldim {report.gldim} > {report.a_min} + lambda_{cc}"
                    f" = {report.a_min + report.lam[cc]}"
                )
    if report.quasi_hereditary and report.gldim > report.brown_bound:
        violations.append(
            f"{series}: gldim {report.gldim} exceeds Brown bound {report.brown_bound}"
        )
    if series.kind == LINEAR and report.gldim > series.n - 1:
        violations.append(f"{series}: gldim {report.gldim} > n - 1 = {series.n - 1}")
    return violations
