"""The package's two exception classes.

Bad input, from a library caller or the command line, raises
``NakayamaError``, a ``ValueError`` whose message names the broken rule.
A broken internal invariant raises ``InternalError``, which is neither: it
signals a bug in the package, never bad input.  No other class is raised.
"""


class NakayamaError(ValueError):
    """The input breaks a rule of the package; the message names the rule."""


class InternalError(Exception):
    """An internal invariant failed; indicates a bug, not bad input."""
