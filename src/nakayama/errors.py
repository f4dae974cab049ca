"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class so
tests and the CLI can tell constraint violations apart; all of them derive
from ``NakayamaError``.  A broken internal invariant is an ``InternalError``
instead, which is deliberately not a ``NakayamaError``: it signals a bug in
the package, never bad input.
"""


class NakayamaError(Exception):
    """Base class for all errors raised by this package."""


class StepViolation(NakayamaError, ValueError):
    """Some entry drops by more than one: c_{i+1} < c_i - 1."""


class ShortProjective(NakayamaError, ValueError):
    """An entry is too small: cyclic needs c_i >= 2, linear needs c_i >= 2 for i < n."""


class BadTail(NakayamaError, ValueError):
    """Linear series must end in 1 and satisfy c_i <= n - i + 1."""


class InvalidRelationSystem(NakayamaError, ValueError):
    """Relation endpoints are malformed (bad range, repeated starts, length < 2)."""


class RedundantRelations(NakayamaError, ValueError):
    """One relation's path contains another's, so the system is not irredundant."""


class EmptyCyclicSystem(NakayamaError, ValueError):
    """A cyclic quiver needs at least one relation to give a finite dimensional algebra."""


class InvalidModule(NakayamaError, ValueError):
    """Module top out of range or length exceeding the projective cover's length."""


class InfiniteGlobalDimension(NakayamaError):
    """Raised by checks that are only defined for algebras of finite global dimension."""


class NotCyclic(NakayamaError, ValueError):
    """The operation is defined only for cyclic Nakayama algebras."""


class SelfinjectiveInput(NakayamaError, ValueError):
    """The operation is undefined for selfinjective algebras (constant series)."""


class InternalError(Exception):
    """An internal invariant failed; indicates a bug, not bad input."""


class FiltrationMismatch(InternalError):
    """Interval lengths failed to tile a projective exactly; indicates a bug."""


class NotFiltered(NakayamaError, ValueError):
    """The module does not decompose into consecutive base-set intervals."""

