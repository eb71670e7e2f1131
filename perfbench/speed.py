"""Timings scaled to a reference machine speed.

The benchmark runs on a few virtual CPUs of a shared host. There the
same code runs up to 2x slower in stretches of seconds to minutes, set
by other tenants, and a run of tens of seconds holds only a few of the
longer ops, so raw wall times spread between runs by more than any
useful bound. A SpeedProbe measures that speed as the ops run: it
times a fixed reference computation of its own (a pure-Python loop and
small numpy array ops, the two kinds of work the package does) from a
SIGALRM handler every PROBE_INTERVAL seconds, and once right before and
right after each timed interval. The reference never calls the package,
so a change to the package cannot move it.

An interval's scaled time is its wall (or CPU) time, less the time its
own probes took, times the mean over its probes of the reference
speed: each part of the reference contributes REFERENCE_S / measured
time, and the two parts weigh equally. The result reads as the
interval's time at the speed this host has when nothing else loads it.
On ops of 1 to 11 s this cut the spread between ops of one run, as the
interquartile range over the median, from 0.19-0.27 to 0.03-0.07.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL = 0.05
# Seconds each reference part takes on this host's 2-core Xeon when
# nothing else loads it; they only set the scale of scaled times.
REFERENCE_S = (0.80e-3, 0.27e-3)

_ARRAY = np.linspace(-3.0, 3.0, 2000)


def _python_part():
    total = 0
    for i in range(15_000):
        total += i * i
    return total


def _numpy_part():
    for _ in range(40):
        x = np.exp(-0.5 * _ARRAY)
        x.sum()
        np.dot(_ARRAY, x)


class SpeedProbe:
    """Samples the host's speed while it is active (`with probe:`)."""

    def __init__(self, interval: float = PROBE_INTERVAL):
        self.interval = interval
        # (start, wall seconds, CPU seconds, speed) of each probe.
        self.samples: list[tuple[float, float, float, float]] = []
        self._busy = False
        self._previous = None

    def sample(self):
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        try:
            start, cpu0 = time.perf_counter(), time.process_time()
            part_times = []
            for part in (_python_part, _numpy_part):
                t0 = time.perf_counter()
                part()
                part_times.append(time.perf_counter() - t0)
            end = time.perf_counter()
            speed = statistics.fmean(ref / t for ref, t
                                     in zip(REFERENCE_S, part_times))
            self.samples.append((start, end - start,
                                 time.process_time() - cpu0, speed))
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn):
        """Call fn; returns (its result, scaled wall seconds, scaled CPU
        seconds, raw wall seconds, mean speed)."""
        self.sample()
        first = len(self.samples) - 1
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        w1, c1 = time.perf_counter(), time.process_time()
        self.sample()
        probes = self.samples[first:]
        inner = [s for s in probes if w0 <= s[0] < w1]
        wall = w1 - w0 - sum(s[1] for s in inner)
        cpu = c1 - c0 - sum(s[2] for s in inner)
        speed = statistics.fmean(s[3] for s in probes)
        return result, wall * speed, cpu * speed, wall, speed


class RawClock:
    """A SpeedProbe stand-in that takes no samples and scales nothing,
    for the traced runs, whose layer spans must not hold probe time."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def timed(self, fn):
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        wall = time.perf_counter() - w0
        return result, wall, time.process_time() - c0, wall, 1.0
