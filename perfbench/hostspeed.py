"""Host speed correction for the benchmark's times.

The 2-core VM the benchmark was built on runs the same code at two speeds
that switch every 10 to 60 s, about 1.5x apart (see README, "Noise on this
machine"). A 10 s run mostly falls in one of them, so raw wall times of
identical runs spread by up to 0.3 between their quartiles.

``HostClock`` times a fixed reference mix of benchmark code (small numpy
calls on a 301-point grid and a pure-Python loop, like the program's own
mix) before the first interval and after every interval it scales. An
interval's time is scaled by ``REFERENCE_S`` over the mean of the reference
times just before and just after it, which reports it at the host speed at
which the reference takes ``REFERENCE_S``. The reference is the benchmark's
own code, so a change to the program moves the scaled time as much as the
wall time.
"""

from __future__ import annotations

import time

import numpy as np

# Reference time the scaled figures are quoted at: about the reference's
# time in the faster of the VM's two speeds.
REFERENCE_S = 0.032
REFERENCE_REPS = 5

_GRID = np.linspace(100e9, 400e9, 301)


def _reference_once() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(1200):
        x = (_GRID - 2e11 - i * 1e8) / 3e9
        y = np.exp(-x * x) / (1.0 + x * x)
        acc += float((np.tanh(x) * y).sum())
        acc += float(np.searchsorted(_GRID, 2e11 + i * 1e8))
    for i in range(120_000):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - start


def reference_s() -> float:
    """Median time of the reference mix over a few repetitions."""
    times = sorted(_reference_once() for _ in range(REFERENCE_REPS))
    return times[len(times) // 2]


class HostClock:
    """Scales wall-clock intervals to the speed at which the reference
    takes ``REFERENCE_S``. Call ``scale`` right after each interval."""

    def __init__(self):
        self.references = [reference_s()]

    def scale_before(self, elapsed: float) -> float:
        """An interval that ended just before this clock was made."""
        return elapsed * REFERENCE_S / self.references[0]

    def scale(self, elapsed: float) -> float:
        before = self.references[-1]
        self.references.append(reference_s())
        return elapsed * 2.0 * REFERENCE_S / (before + self.references[-1])
