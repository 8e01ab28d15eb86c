"""Machine-speed calibration of the end-to-end timings.

On a shared host the speed a process gets drifts by tens of per cent
within seconds and between minutes, far more than any bound a timing
may have.  While a :class:`Calibration` is active, a timer interrupts
the program every :data:`INTERVAL_S` seconds to time a short fixed
kernel that does not use the program, and its :meth:`~Calibration.clock`
counts the program's time between two kernel timings scaled by how much
slower or faster the kernel ran there than its reference time.  Runs
made minutes apart then compare the program and not the moment.  The
kernel mixes what the program spends its time on: interpreted loops
over tuples and dicts, small NumPy element-wise operations and small
matrix products.
"""

from __future__ import annotations

import math
import signal
import time
from statistics import fmean

import numpy as np

#: Nominal seconds of one :func:`kernel` call, about its time on a
#: 2-core Xeon VM: calibrated seconds are seconds on a machine where the
#: kernel takes this long.
REFERENCE_S = 0.005

#: Seconds from the end of one kernel timing to the start of the next.
INTERVAL_S = 0.05


def kernel() -> float:
    """A fixed amount of work; the result only keeps it from being idle."""
    vector = np.linspace(0.1, 1.0, 64)
    matrix = np.eye(32) * 0.5
    table: dict[tuple[int, int], float] = {}
    total = 0.0
    for i in range(3_000):
        key = (i % 61, i & 7)
        table[key] = table.get(key, 0.0) + i
        total += math.sqrt(i) % 3.0
        if i % 8 == 0:
            vector = np.abs(vector * 0.999 + 0.001)
            total += float(vector.sum())
        if i % 64 == 0:
            matrix = np.tanh(matrix @ matrix + 0.01)
    return total + sum(sorted(table.values())[:3]) + float(matrix[0, 0])


class Calibration:
    """Kernel timings taken while the context is active, and a clock
    calibrated by them.  The kernel runs in a ``SIGALRM`` handler, so
    only one calibration may be active at a time, in the main thread."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: (calibrated seconds at ``mark``, ``perf_counter()`` at the end
        #: of the last kernel timing, calibrated seconds per second since)
        self._state = (0.0, time.perf_counter(), 1.0)

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def sample(self) -> None:
        """Time the kernel; the program's time since the previous timing
        is scaled by the mean of the two."""
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        seconds = end - start
        calibrated, mark, _ = self._state
        if self.samples:
            calibrated += (start - mark) * REFERENCE_S * 2 / (self.samples[-1] + seconds)
        self.samples.append(seconds)
        self._state = (calibrated, end, REFERENCE_S / seconds)

    def clock(self) -> float:
        """Calibrated seconds: program time, kernel time left out, in
        seconds of the reference machine."""
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:  # no kernel timing in between
                calibrated, mark, rate = state
                return calibrated + (now - mark) * rate

    @property
    def slowdown(self) -> float:
        """The kernel's mean time over its reference time."""
        return fmean(self.samples) / REFERENCE_S
