"""Host-speed calibration: every time the benchmark reports is scaled to a
host of fixed speed.

A benchmark host is a few vCPUs of a shared machine, and their speed
drifts: the same pure-Python work takes from about 0.7x to 1.4x its usual
time, in phases lasting from seconds to many minutes.  No statistic taken
within one run removes a phase that covers the whole run.  So next to the
program's work the benchmark times a fixed reference block
(:func:`reference_block`: integer arithmetic, list indexing and dict
updates in the interpreter, no allocation of tracked objects, so no
garbage collection) and reports each measured time ``t`` as

    t * REF_MS / (the reference block's median time around it)

that is, the time the work would take on a host where the block takes
``REF_MS``.  A program change moves the scaled figure exactly as it moves
the raw one; a host phase moves the work and the block alike and cancels
out.  In the closed loops and around set-up the blocks run between timed
calls, while the program is idle; in an open loop the generator runs them
in its gaps between sends, so a block may share a CPU with requests in
flight.  The report prints the raw block times beside the scaled figures.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

REF_MS = 1.0
"""About the reference block's time in a calm phase of the host the bounds
in ``BENCHMARK.json`` were set on (2 vCPUs of an Intel Xeon, Python 3.11),
so that scaled times there read roughly as plain milliseconds."""
REF_LOOPS = 3500
"""Loop trips of one reference block (about ``REF_MS`` on that host)."""
TICK_S = 0.02
"""Least time between two in-loop reference blocks (5-7% overhead)."""
WINDOW_S = 0.5
"""Reference blocks within this many seconds of a sample set its scale."""

_TABLE = {i: i for i in range(512)}
_ROW = list(range(512))


def reference_block() -> int:
    """A fixed amount of interpreter work."""
    table, row = _TABLE, _ROW
    acc = 0
    for i in range(REF_LOOPS):
        k = (i * 31 + acc) & 511
        acc = (acc + table[k] + row[k ^ 5]) & 0xFFFF
        table[k] = acc & 511
    return acc


def factor_of(refs: list) -> float:
    """``REF_MS`` over the median of the ``(t, ms)`` samples ``refs``."""
    return REF_MS / statistics.median(ms for _, ms in refs)


class Calibrator:
    """Reference-block samples ``(perf_counter, ms)`` taken during a run."""

    def __init__(self, tick_s: float = TICK_S) -> None:
        self.refs: list = []
        self.tick_s = tick_s
        self._last = float("-inf")

    def due(self) -> bool:
        """True when no reference block ran in the last ``tick_s``."""
        return time.perf_counter() - self._last >= self.tick_s

    def tick(self) -> None:
        """One reference block if one is due; call between timed
        operations."""
        if self.due():
            self.measure(1)

    def measure(self, blocks: int) -> None:
        for _ in range(blocks):
            t0 = time.perf_counter()
            reference_block()
            t1 = time.perf_counter()
            self.refs.append((t0, (t1 - t0) * 1000.0))
            self._last = t1

    def factor(self) -> float:
        """``REF_MS`` over the median of every sample so far."""
        return factor_of(self.refs)

    def measure_cpus(self, blocks: int) -> None:
        """``blocks`` reference blocks on each CPU this process may use,
        pinned to it in turn (for work that runs in other processes, on
        whichever CPU)."""
        cpus = sorted(os.sched_getaffinity(0))
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                self.measure(blocks)
        finally:
            os.sched_setaffinity(0, cpus)


class Scaler:
    """Scale factors from reference samples (see the module docstring)."""

    def __init__(self, refs: list) -> None:
        refs = sorted(refs)
        if not refs:
            raise ValueError("no reference samples")
        self.times = [t for t, _ in refs]
        self.ms = [ms for _, ms in refs]

    def factor(self, t: float, window: float = WINDOW_S) -> float:
        """``REF_MS`` over the median reference time within ``window`` of
        ``t`` (at least the five nearest samples)."""
        lo = bisect.bisect_left(self.times, t - window)
        hi = bisect.bisect_right(self.times, t + window)
        if hi - lo < 5:
            mid = bisect.bisect_left(self.times, t)
            lo, hi = max(0, mid - 3), min(len(self.times), mid + 3)
        return REF_MS / statistics.median(self.ms[lo:hi])

    def factor_between(self, start: float, end: float) -> float:
        """``REF_MS`` over the median reference time in ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return REF_MS / statistics.median(self.ms[lo:hi] or self.ms)
