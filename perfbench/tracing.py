"""Span and counter recorder for the traced benchmark pass.

The recorder wraps the public functions of the ``nakayama`` modules from
outside: while it is installed, every module attribute (and every value of
a module-level dict, such as the verify suite table) that refers to one of
those functions is rebound to a wrapper, so calls made inside the package,
for example ``check_inequalities -> homology_report``, are recorded too.

Spans nest by a stack: a span's self time is its duration minus the time of
the spans it caused.  Generator functions are timed per resumption, so the
time a consumer spends between two items is not charged to the generator.
The leaf calls made millions of times per sweep stay plain counters
(``COUNTED``) to bound the overhead; their time falls into the self time of
their caller.

Spans are aggregated in memory per name and per (caller, callee) edge and
written out once by the caller of ``Recorder.to_dict``.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

MODULES = ("cli", "verify", "enumeration", "homology", "filtration", "core")

# calls per verify sweep to n <= 8: check_module 3.7 M, projective_dimension
# 1.6 M, syzygy 1.4 M; all_modules yields about 0.8 M modules
COUNTED = (
    "core.check_module",
    "core.syzygy",
    "homology.projective_dimension",
    "homology.all_modules",
)
# constructor counters: (module, class) whose __post_init__ is counted
CONSTRUCTED = (("core", "KupischSeries"),)


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
    }


class Recorder:
    """Aggregated spans and counters for the nakayama package.

    Use as a context manager: entering rebinds the wrappers, leaving
    restores every original binding.
    """

    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive seconds, self seconds]
        self.edges = Counter()  # (caller name or None, callee name) -> calls
        self.counts = Counter()
        self._stack = []  # open spans: [name, child seconds]
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _enter(self, name):
        caller = self._stack[-1][0] if self._stack else None
        self.edges[(caller, name)] += 1
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, elapsed, new_call):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        record = self.spans.setdefault(frame[0], [0, 0.0, 0.0])
        record[0] += new_call
        record[1] += elapsed
        record[2] += elapsed - frame[1]

    def _span(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = self._enter(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame, clock() - start, 1)

        return traced

    def _generator_span(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)  # creating a generator runs no body code
            first = [1]

            def resume():
                while True:
                    frame = self._enter(name)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(frame, clock() - start, first[0])
                        first[0] = 0
                    yield item

            return resume()

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        modules = {short: importlib.import_module(f"nakayama.{short}") for short in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for fname, fn in public_functions(module).items():
                name = f"{short}.{fname}"
                if name in COUNTED:
                    wrappers[fn] = self._counter(name, fn)
                elif inspect.isgeneratorfunction(fn):
                    wrappers[fn] = self._generator_span(name, fn)
                else:
                    wrappers[fn] = self._span(name, fn)
        holders = list(modules.values()) + [importlib.import_module("nakayama")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(holder, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._set_item(value, key, wrappers[item])
        for short, cls_name in CONSTRUCTED:
            cls = getattr(modules[short], cls_name)
            name = f"{short}.{cls_name}.__post_init__"
            self._rebind(cls, "__post_init__", self._counter(name, cls.__post_init__))
        return self

    def _rebind(self, holder, attr, value):
        self._restore.append((setattr, holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _set_item(self, mapping, key, value):
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def __exit__(self, *exc):
        while self._restore:
            put, holder, key, original = self._restore.pop()
            put(holder, key, original)
        return False

    # -- results ----------------------------------------------------------

    def module_self(self) -> dict:
        """Self seconds per module (sum over the module's spans)."""
        totals = {short: 0.0 for short in MODULES}
        for name, (_, _, own) in self.spans.items():
            totals[name.split(".", 1)[0]] += own
        return totals

    def to_dict(self) -> dict:
        return {
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.spans.items())
            },
            "edges": [
                {"caller": caller, "callee": callee, "calls": calls}
                for (caller, callee), calls in sorted(
                    self.edges.items(), key=lambda item: (item[0][0] or "", item[0][1])
                )
            ],
            "counts": dict(sorted(self.counts.items())),
        }
