"""The host's speed over a run, measured by a fixed piece of reference work.

The benchmark runs on shared virtual machines whose speed moves by a half
within seconds and for minutes at a time, while nothing inside the machine
changes: on a 2 vCPU Xeon VM the same pure-Python loop took 28 ms and
42 ms a minute apart.  Raw times then spread more across runs than any
bound a metric may have.  So the benchmark runs ``reference_work``
between operations, at most every ``INTERVAL_S`` seconds, and reports each
measured time scaled to a host on which the reference work takes
``REFERENCE_S`` seconds:

    reported = measured * REFERENCE_S / (reference time around the measurement)

The reference work uses only the standard library (int and Fraction
arithmetic, as the program's inner loops do), so a change to the program
moves the reported times by as much as it moves the measured ones; only
the host's slowdowns, which slow both alike, are divided out.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_STEPS = 3000
# Reported times are seconds on a host where the reference work takes this
# long.  On the 2 vCPU 2.1 GHz Xeon VM of the baseline it took from 0.013 s
# to 0.027 s, by the moment.
REFERENCE_S = 0.02
INTERVAL_S = 0.5


def reference_work() -> int:
    total = 0
    for i in range(1, REFERENCE_STEPS):
        q = Fraction(i, i % 89 + 1) * Fraction(i % 97 + 1, 7) - Fraction(1, i % 5 + 1)
        total += q.numerator % 7 + i * i % 7
    return total


class HostSpeed:
    """Times of the reference work, each with the moment it started."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def tick(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample began."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, elapsed: float) -> float:
        """``elapsed`` seconds measured from ``start``, in reference seconds.

        The host's speed is the mean of the samples from the last one
        before ``start`` to the first one after the measurement ended; a
        run takes a sample before its first and after its last measurement.
        """
        first = max(bisect.bisect_right(self.starts, start) - 1, 0)
        last = bisect.bisect_left(self.starts, start + elapsed)
        around = self.times[first:last + 1]
        return elapsed * REFERENCE_S / statistics.fmean(around)

    def median(self) -> float:
        return statistics.median(self.times)
