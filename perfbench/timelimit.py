"""Time on a shared machine: the per-query limit and the speed reference.

The benchmark shares its machine with other work, and the machine's speed
changes under it: a fixed loop of interpreter work takes 1.0 ms in one
second and 1.8 ms in the next.  Every time the benchmark reports is
therefore converted to reference seconds, the time the same work takes when
the kernel below takes REFERENCE_KERNEL_S, by sampling the kernel every
SAMPLE_PERIOD_S while the workload runs.  Time limits are given in
reference seconds and converted back to wall time when they are armed, so
a slow phase of the machine neither stretches reported times nor turns
completed queries into timeouts.  Measured on a 2-CPU shared Xeon: the
wall time of one `mat_star` call varied with a coefficient of variation of
0.22 across 2-second windows, its reference time with 0.024.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

REFERENCE_KERNEL_S = 0.001
SAMPLE_PERIOD_S = 0.05
WINDOW = 5  # the current speed is the median of the last WINDOW samples


def _kernel() -> int:
    """Fixed interpreter work (tuples, dict lookups and stores, integer
    arithmetic), independent of the library under test."""
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i, i & 7)
        table[key] = table.get((i - 1, (i - 1) & 7), 0) + i
        acc += len(table) & 3
    return acc


class Clock:
    """Converts between wall seconds and reference seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = 0.0
        self.sample()

    def sample(self) -> None:
        start = perf_counter()
        _kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self.last = end

    def tick(self) -> None:
        """Sample the kernel when the last sample is SAMPLE_PERIOD_S old."""
        if perf_counter() - self.last >= SAMPLE_PERIOD_S:
            self.sample()

    @property
    def slowdown(self) -> float:
        """Current wall seconds per reference second."""
        return statistics.median(self.samples[-WINDOW:]) / REFERENCE_KERNEL_S

    def slowdown_since(self, mark: int) -> float:
        """Median slowdown over the samples taken since len(samples) was mark."""
        return statistics.median(self.samples[max(0, mark - 1):]) / REFERENCE_KERNEL_S


class QueryTimeout(BaseException):
    """Raised inside a query that ran past its limit.

    A BaseException, so that no `except Exception` inside the library can
    swallow it and keep running."""


def _expire(signum, frame):
    raise QueryTimeout()


@contextmanager
def time_limit(seconds: float):
    """Interrupt the body with QueryTimeout after `seconds` of wall time."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
