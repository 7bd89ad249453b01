"""Host-speed calibration for the benchmark's times.

On a shared 2-CPU virtual machine (Python 3.11.7) the speed of a pinned
vCPU changed by up to 1.7x within seconds to minutes: user CPU time moved
with wall time, so it is not scheduling.  A fixed pure-Python
loop, timed between operations, tracks that speed.  In a 110 s test that
alternated a first form of the loop (3000 iterations, median of three runs)
with a fixed check_axioms plus brute_force_optimum job, the coefficient of
variation of the job's time over 20-job windows was 7.3% raw and 1.8% after
scaling by the loop.

Every time the benchmark reports is therefore given in *reference
seconds*: the measured seconds times ``(NOMINAL_S / t) ** ELASTICITY``,
where ``t`` is the loop's time next to the measurement and ``NOMINAL_S`` is
the loop's time on that machine in its slow state (over a minute of
calibrations its times clustered near 0.85 ms and 1.5 ms).  The workloads
speed up less than the loop when the host is fast: across 10 to 15 runs
each, the log-log slope of a workload's raw throughput on the loop's speed
was 0.58 (exhaustive_large_n), 0.60 (suite_corpus) and 0.79
(capacity_dp_long).  ELASTICITY = 0.7 gave the three workloads the
smallest spread together.  Nothing here calls
into ``assortopt``, so a change to the package cannot move the loop.
"""

from __future__ import annotations

import gc
import math
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

NOMINAL_S = 1.5e-3
ELASTICITY = 0.7
# Calibrate before an operation once this long has passed since the last one.
INTERVAL_S = 0.2
# An interval is scaled by the median factor of the calibrations within this
# many seconds of it: single calibrations are noisy, while the host's speed
# holds for seconds at a time.
WINDOW_S = 1.0


def _loop() -> float:
    total = 0.0
    table: dict = {}
    for i in range(1500):
        members = frozenset((i & 7, i & 3, 5))
        table[members] = table.get(members, 0.0) + math.exp(-(i % 13) / 7.0)
        total += table[members] * 0.5
    return total


class HostSpeed:
    """Calibration points: when each ended, and its time scale factor
    (NOMINAL_S / t) ** ELASTICITY."""

    def __init__(self):
        self.times: list[float] = []
        self.factors: list[float] = []

    def calibrate(self) -> None:
        # The fastest of five runs, with the collector off: a collection of
        # the workload's garbage or an interrupt must not read as a slow host.
        gc.disable()
        try:
            fastest = math.inf
            for _ in range(5):
                started = perf_counter()
                _loop()
                fastest = min(fastest, perf_counter() - started)
        finally:
            gc.enable()
        self.times.append(perf_counter())
        self.factors.append((NOMINAL_S / fastest) ** ELASTICITY)

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= INTERVAL_S

    def scale(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end]: its length times
        the median factor of the calibrations from WINDOW_S before it to
        WINDOW_S after it, always including the last one before it and the
        first one after it."""
        first = max(0, min(bisect_left(self.times, start - WINDOW_S), bisect_right(self.times, start) - 1))
        last = max(bisect_right(self.times, end + WINDOW_S), bisect_left(self.times, end) + 1)
        return (end - start) * statistics.median(self.factors[first:last])
