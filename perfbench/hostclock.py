"""Host speed, read while a workload runs, and wall times scaled by it.

The benchmark host shares its cores: the same pure-Python work runs up to
about twice as slowly for stretches of seconds, while CPU steal stays near
zero.  A ``HostClock`` runs a fixed reference loop every ``PERIOD`` seconds
from a SIGALRM handler, in the benchmark's own thread, so every stretch of
a run has a speed reading taken next to it.  ``reference_seconds`` turns a
wall-time interval into the time it would have taken with the host at its
reference speed, where one loop takes ``REFERENCE_LOOP_S``; the time spent
in the loops themselves is left out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP_ITERATIONS = 4000
# One reference loop on a quiet 2-core x86-64 host (2.1 GHz) with Python
# 3.11.7.  It only sets the unit: scaled times read as seconds on that host.
REFERENCE_LOOP_S = 0.00052
PERIOD = 0.05
# Loops whose median is one speed reading; single loops are noisy.
SMOOTH = 5


def reference_loop() -> None:
    """The fixed pure-Python work whose time reads the host's speed."""
    table, acc = {}, 0
    for i in range(LOOP_ITERATIONS):
        table[i & 1023] = acc
        acc = (acc + i * 7) ^ (i >> 3)


class HostClock:
    """Reference loops on a timer while the ``with`` block runs."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, end) of each loop
        self._gaps = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        self.ticks.append((start, time.perf_counter()))

    def gaps(self) -> list[tuple[float, float, float]]:
        """(start, end, scale) of each stretch outside the loops."""
        if self._gaps is None:
            if not self.ticks:
                raise RuntimeError("no reference loop ran: the run was shorter than one period")
            durations = [end - start for start, end in self.ticks]
            half = SMOOTH // 2
            # Reference seconds per wall second around each loop.
            scales = [REFERENCE_LOOP_S / statistics.median(durations[max(0, k - half):k + half + 1])
                      for k in range(len(durations))]
            ticks = self.ticks
            gaps = [(float("-inf"), ticks[0][0], scales[0])]
            gaps += [(ticks[k][1], ticks[k + 1][0], (scales[k] + scales[k + 1]) / 2)
                     for k in range(len(ticks) - 1)]
            gaps.append((ticks[-1][1], float("inf"), scales[-1]))
            self._gaps = gaps
            self._starts = [g[0] for g in gaps]
        return self._gaps

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall interval ``[start, end]``, less the loops in it, at reference speed."""
        gaps = self.gaps()
        k = max(0, bisect.bisect_right(self._starts, start) - 1)
        total = 0.0
        while k < len(gaps) and gaps[k][0] < end:
            lo, hi, factor = gaps[k]
            total += max(0.0, min(end, hi) - max(start, lo)) * factor
            k += 1
        return total

    def median_scale(self) -> float:
        """Median reference seconds per wall second over the run."""
        return statistics.median(g[2] for g in self.gaps())
