"""Host-speed normalisation of wall times.

The reference host is a shared 2-vCPU virtual machine whose speed drifts
by tens of percent within minutes (neighbours on the same physical cores;
steal time stays near zero, so CPU time drifts with wall time).  Raw wall
metrics of identical runs spread 20-25% there, more than any usable
regression bound.

So every wall time of the timed phase is scaled to a nominal host
speed.  A :class:`SpeedMeter` runs a fixed pure-Python reference slice,
independent of the program, after every commit of the timed phase.  The
mean duration of the slices around a moment, against
:data:`REFERENCE_SLICE_S`, gives the host's speed at that moment; each
stretch of wall time and each transaction latency is scaled by the speed
around it, and slice time itself is left out of both.  Local factors
halved the spread of the latency percentiles against one factor for the
whole run.  The slice runs with the garbage collector off, so a
collection of the program's garbage never lands inside it (and its own
short-lived tuples are freed before the collector is back on).  A
program change therefore cannot move the slice, and it moves the
normalised metrics in full.  The mean, not the median, of the window's
slices sets the factor: under interference the host switches between
speeds faster than one window, and the program's time follows the
average speed.  Over stretches of 400 scan_heavy transactions on the
loaded reference host, mean-normalised times spread 4.1% (IQR/median)
and median-normalised ones 5.2%, against 19% raw.  On a quiet host the
factor is close to 1 and the metrics read as plain wall time.

Set-up is not normalised: slices taken just before and after a set-up
did not track its duration at all (the interference changes faster
than that), so ``setup_s`` is the fastest of several set-ups.
"""

from __future__ import annotations

import gc
import time
from typing import List

#: mean duration of one reference slice on the quiet reference host
REFERENCE_SLICE_S = 30e-6


def reference_slice() -> int:
    """Interpreter-bound work shaped like the program's: small dicts,
    tuples, integer arithmetic and calls."""
    table: dict = {}
    acc = 0
    for i in range(160):
        key = i & 31
        table[key] = (i, acc)
        acc += len(table[key]) + (key in table)
    return acc


class SpeedMeter:
    """A wall clock that leaves out reference-slice time, and the slices'
    timings.  The harness calls :meth:`mark` at every commit."""

    #: marks on each side whose slices estimate the local host speed
    WINDOW = 8

    def __init__(self) -> None:
        #: wall seconds spent in reference slices
        self.spent = 0.0
        #: per mark: slice-free time, and the duration of its slice
        self.marks: List[float] = []
        self.durations: List[float] = []

    def now(self) -> float:
        """Wall time without the slices run so far."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        """Record a mark now, then run one slice; returns the mark's index."""
        self.marks.append(self.now())
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_slice()
            duration = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.durations.append(duration)
        self.spent += duration
        return len(self.marks) - 1

    def factor(self) -> float:
        """Nominal / mean measured slice time over the whole measurement."""
        return REFERENCE_SLICE_S * len(self.durations) / self.spent

    def local_factors(self) -> List[float]:
        """Per mark, nominal / mean slice time over the marks within
        :data:`WINDOW` of it: the host's speed around that moment."""
        prefix = [0.0]
        for duration in self.durations:
            prefix.append(prefix[-1] + duration)
        n, w = len(self.durations), self.WINDOW
        out = []
        for i in range(n):
            lo, hi = max(0, i - w), min(n, i + w + 1)
            out.append(REFERENCE_SLICE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out

    def nominal_span(self, start: float, end: float) -> float:
        """Slice-free wall time from ``start`` to ``end`` (both from
        :meth:`now`), each stretch between marks scaled by its local
        factor; the stretch after the last mark takes the last factor."""
        factors = self.local_factors()
        total, last = 0.0, start
        for mark, factor in zip(self.marks, factors):
            total += (mark - last) * factor
            last = mark
        return total + (end - last) * factors[-1]
