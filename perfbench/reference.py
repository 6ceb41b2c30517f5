"""Host-speed reference for the benchmark's timings.

Kept apart from the workloads so the ``verify-all`` child, which must
stay close to a plain ``ncdiff`` process, imports nothing else.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional

REFERENCE_STEPS = 600
REFERENCE_PERIOD_S = 0.25
THREE_SEVENTHS = Fraction(3, 7)


def reference_burst() -> float:
    """Seconds a fixed pure-Python Fraction kernel takes right now (about 5 ms)."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_STEPS):
        total += Fraction(1, i % 97 + 1) * THREE_SEVENTHS
    return perf_counter() - start


class ReferenceSampler:
    """Times ``reference_burst`` every 0.25 s of wall time while active.

    The host's speed swings by up to 2x over seconds to minutes, and
    Fraction arithmetic is what the library spends most of its time on,
    so dividing an operation's time by the bursts sampled around it gives
    a latency in host-independent units.  Bursts run from a SIGALRM
    handler, between bytecodes of whatever is running; ``net`` removes
    their time from an interval and ``on_burst`` lets a tracer do the same
    (a burst that lands inside a traced Scalar operation still counts as
    that operation's time, about 2% of a traced run).
    """

    def __init__(self, on_burst: Optional[Callable[[float], None]] = None):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.on_burst = on_burst
        self._previous = None

    def _burst(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        seconds = reference_burst()
        if enabled:
            gc.enable()
        self.samples.append((start, seconds))
        if self.on_burst:
            self.on_burst(perf_counter() - start)

    def __enter__(self):
        self._burst()
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._burst()

    def net(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the bursts that ran inside it."""
        return end - start - sum(s for t, s in self.samples if start <= t < end)

    def ref(self, start: float, end: float) -> float:
        """Mean burst time around [start, end]."""
        near = [s for t, s in self.samples if start - REFERENCE_PERIOD_S <= t <= end + REFERENCE_PERIOD_S]
        near = near or [s for _, s in self.samples]
        return sum(near) / len(near)
