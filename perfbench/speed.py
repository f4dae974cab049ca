"""Machine speed probe: how fast this machine runs Python while the workload runs.

On a shared host the same code runs up to twice as slow from one phase to
the next, in phases from under a second to minutes long, because other
tenants compete for the physical cores.  While the workload runs, a timer
signal interrupts the main thread every ``PERIOD`` seconds and its handler
times ``_work``: a fixed, frozen piece of Nakayama-style Python (syzygy walks
over small Kupisch series, with frozen dataclass instances, tuples, sets and
dicts).  It belongs to the benchmark, so no change to the program moves it.
Samples are thread CPU time on the thread and core that run the workload.

``factor`` is the mean sample over ``REFERENCE_S``: how many times slower
than the reference machine the run went, averaged over the run the same way
the run's own wall time averages over it.  Timings divided by the factor
(rates multiplied by it) are in reference-machine units.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from dataclasses import dataclass

# mean probe time on a quiet 2-vCPU KVM guest (Intel Xeon, 2.0 GHz), Python 3.11
REFERENCE_S = 0.00025
PERIOD = 0.02

_SERIES = ((3, 4, 4), (2, 2, 3), (4, 4, 3, 3), (5, 4, 3, 3, 4), (6, 6, 5, 4, 4), (3, 3, 3, 2))


@dataclass(frozen=True)
class _Module:
    top: int
    length: int


def _pd(c, m, memo):
    n = len(c)
    path, seen = [], set()
    while m.length != c[m.top - 1]:
        if m in memo or m in seen:
            break
        seen.add(m)
        path.append(m)
        m = _Module((m.top - 1 + m.length) % n + 1, c[m.top - 1] - m.length)
    base = memo.get(m, 0 if m.length == c[m.top - 1] else -1)
    for step in reversed(path):
        base = base + 1 if base >= 0 else -1
        memo[step] = base
    return base


def _work() -> int:
    total = 0
    for c in _SERIES:
        memo = {}
        for top in range(1, len(c) + 1):
            for length in range(1, c[top - 1] + 1):
                total += _pd(c, _Module(top, length), memo)
    return total


def sample() -> float:
    """Thread CPU seconds of one run of the fixed work."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start


def factor(samples) -> float:
    """How many times slower than the reference machine the samples ran."""
    return statistics.mean(samples) / REFERENCE_S


class Sampler:
    """Appends a speed sample to ``samples`` every PERIOD seconds while in use.

    Main thread only; forked workers inherit the handler but not the timer.
    With ``cpus`` (for a pool whose workers fill every core) each sample is
    taken on the next of those cores in turn, the thread pinned there for the
    sample and released after it, so the factor averages over the cores that
    do the work.
    """

    def __init__(self, samples: list, cpus=None):
        self.samples = samples
        self.cpus = sorted(cpus) if cpus else None

    def _handle(self, signum, frame):
        if self.cpus is None:
            self.samples.append(sample())
            return
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpus[len(self.samples) % len(self.cpus)]})
        try:
            self.samples.append(sample())
        finally:
            os.sched_setaffinity(0, allowed)

    def __enter__(self):
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
