"""Samples the speed of the CPU this process runs on, while it works.

The 2-vCPU machine this benchmark was built on changes speed by about
1.5x from one stretch to the next (a fraction of a second to tens of
seconds; each vCPU on its own), so wall times of identical work differ by
±20% between runs. Every 5 ms of process CPU time, a SIGPROF handler times
a fixed loop of bytecode. Dividing a measured time by the probe's current
duration, times the probe's duration at this machine's fast speed, gives
the time the work would have taken at that speed. Measured here, this cut
the spread of 0.4 s searches from 0.22 to 0.08 of the median, and of
4-second block means from ±20% to ±3%. The handler adds about 0.3% of CPU.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.005  # process CPU time between samples
REFERENCE_NS = 13_000  # the probe loop at this machine's fast speed
WINDOW = 20  # fewest samples behind one speed estimate


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[int] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        total = 0
        for i in range(400):
            total += i
        self.samples.append(time.perf_counter_ns() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int, end: int | None = None) -> float:
        """Reference speed over the speed sampled between two marks.

        A span with fewer than WINDOW samples reaches back to earlier ones:
        the speed holds for longer than the shortest units last.
        """
        end = len(self.samples) if end is None else end
        recent = self.samples[max(0, min(start, end - WINDOW)):end]
        return REFERENCE_NS / statistics.median(recent) if recent else 1.0
