"""The host's pace, read from a fixed reference kernel on a timer.

The virtual machine the benchmark was tuned on runs the same Python code at
speeds that differ by up to 2x from one stretch of seconds to the next,
and the swings last long enough that twenty seconds of work do not average
them out: over four minutes, a fixed decider instance read 1.97 to 4.17 ms
in its 5 s stretches.  A small pure-Python kernel that uses none of the
program slows down with the host in step with the program: run between
those decider instances, a kernel of this kind read 0.47 to 0.91 ms, and
the ratio of the two stayed within 4.17 to 4.57.  Within a stretch the
host also flips between a fast and a slow state every few tenths of a
second (the kernel reads about 0.24 or 0.42 ms).

So a worker probes the kernel every PROBE_EVERY_S of wall time, from a
SIGALRM handler that runs between the program's bytecodes, in the same
thread, whatever instance is running.  Every timing is reported at the
reference pace: the measured time, less the time spent probing inside it,
times ``REFERENCE_S`` over the mean probe around it.  The mean weighs the
fast and the slow state by the share of time in each.  On a steady host
the factor is constant and the figures are proportional to wall time; a
slower program is slower at any pace.  The plain wall times are kept
beside them in the run's result file and in its human-readable lines.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# About the kernel's time on the tuning machine in its fast state (the
# tenth percentile of 24,000 probes read 0.248 ms); a fixed constant, so
# the scale of the reported figures does not depend on the run.
REFERENCE_S = 0.00025
# A probe is the median of this many kernel runs, so a collector pause or
# an interrupt inside one of them does not count.
REPEATS = 3
PROBE_EVERY_S = 0.05
# An instance is paced by the probes taken while it ran or within this
# much of its start or end.
WINDOW_S = 0.25

_KEYS = [(i, str(i)) for i in range(256)]
_TABLE: dict = {}


def kernel() -> int:
    """Dict, tuple and string work in the program's style; it allocates
    nothing the cycle collector tracks."""
    _TABLE.clear()
    acc = 0
    for i in range(1500):
        key = _KEYS[i & 255]
        _TABLE[key] = _TABLE.get(key, 0) + i
        acc += len(key[1])
    return acc


def probe() -> float:
    """The kernel's median time over REPEATS runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Pace:
    """Probes on a wall-clock timer, the time they took, and the factor that
    brings a time measured among them to the reference pace."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter() when each probe ended
        self.probes: list[float] = []
        self.spent = 0.0  # seconds spent probing
        self._busy = False

    def take(self, *_signal_args) -> None:
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        t = time.perf_counter()
        self.probes.append(probe())
        self.at.append(time.perf_counter())
        self.spent += self.at[-1] - t
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return REFERENCE_S / statistics.fmean(self.probes[lo:hi])
