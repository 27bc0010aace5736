"""The host's speed through a run, sampled with a fixed calibration loop.

The hosts this benchmark runs on share cores with other work, which
slows a process by up to 2x, changing within seconds and drifting over
minutes.  A run therefore times the same calibration loop every few
tenths of a second, and scales each measured time by the calibrations
taken just before and just after it, to what it would have been on a
reference core where the loop takes REFERENCE_CAL_S.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable

# The loop's time on an unloaded core of a 2 GHz Xeon host; it sets the
# scale of the reported times and nothing else.
REFERENCE_CAL_S = 0.0015
CAL_ITERATIONS = 10_000


def calibration_loop() -> None:
    """Fixed interpreter work of the kind the program does: integer
    arithmetic, tuples, a dict and a list."""
    table: dict[int, tuple[int, int]] = {}
    out = []
    for i in range(CAL_ITERATIONS):
        key = i * 7919 % 251
        table[key] = (i, key)
        out.append(table[key][0] + key)


class HostSpeed:
    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 loop: Callable[[], None] = calibration_loop):
        self.clock = clock
        self.loop = loop
        self.at: list[float] = []        # midpoint of each calibration
        self.seconds: list[float] = []   # its duration

    def sample(self) -> None:
        start = self.clock()
        self.loop()
        end = self.clock()
        self.at.append((start + end) / 2)
        self.seconds.append(end - start)

    def slowdown(self) -> float:
        """The run's median calibration time over the reference's."""
        return statistics.median(self.seconds) / REFERENCE_CAL_S

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the reference speed."""
        k = bisect.bisect(self.at, start + seconds / 2)
        near = self.seconds[max(k - 1, 0):k + 1]
        return seconds * len(near) * REFERENCE_CAL_S / sum(near)
