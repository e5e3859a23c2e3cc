"""A host-speed yardstick sampled while a call runs.

The machines this benchmark runs on share their cores with other tenants,
and identical calls can take up to twice as long for tens of seconds at a
time.  While a :class:`Pace` is active, an interval timer interrupts the
main thread every ``INTERVAL_S`` and times a fixed loop by that thread's
CPU clock.  The loops use no lwf code, so a change to lwf never moves
them, while a busy host slows them as it slows the call.  A busy host slows
code made of many small numpy calls more than code made of a few large
ones, so there is one loop of each kind; a workload uses the one that
resembles it.  A time measured during the call, multiplied by ``speed``,
is the time it would have taken on a host where the loop takes its
reference time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from numpy.random import Generator, Philox  # bound now: samples may run mid-import

INTERVAL_S = 0.05
_P = np.array([0.2, 0.3, 0.5])


def small_calls() -> None:
    """Sixty steps of a 64-row simplex walk: many small numpy calls."""
    rng = Generator(Philox(7))
    x = np.full((64, 3), 1.0 / 3.0)
    for _ in range(60):
        y = x + 1e-3 * (x[:, [1, 2, 0]] - x[:, [2, 0, 1]]) * x
        y += 0.03 * rng.standard_normal(x.shape) * np.sqrt(x)
        np.maximum(y, 0.0, out=y)
        x = y / y.sum(axis=1, keepdims=True)


def large_arrays() -> None:
    """One 4000-row multinomial draw and a contest over it: a few large calls."""
    counts = Generator(Philox(7)).multinomial(3, _P, size=4000)
    np.bincount(np.where(counts > 0, np.arange(3), -1).max(axis=1), minlength=3)


# Each loop's thread CPU time on an uncontended core.
REFERENCE_S = {small_calls: 1.5e-3, large_arrays: 0.8e-3}


class Pace:
    """Context manager: sample the yardstick until exit.

    ``wall_s`` and ``cpu_s`` are what the samples themselves cost; the
    caller takes them out of the call's wall and CPU time.
    """

    def __init__(self, loop=small_calls):
        self.loop = loop
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _sample(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        self.loop()
        used = time.thread_time() - cpu
        self.samples.append(used)
        self.cpu_s += used
        self.wall_s += time.perf_counter() - wall

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a call shorter than one interval; this sample costs it nothing
            cpu = time.thread_time()
            self.loop()
            self.samples.append(time.thread_time() - cpu)

    @property
    def speed(self) -> float:
        """Reference time over the median sample: above 1 on a faster host."""
        return REFERENCE_S[self.loop] / statistics.median(self.samples)
