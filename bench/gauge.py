"""Speed gauges: rescale wall times to a fixed reference machine speed.

On a shared machine the same op can take twice as long in one stretch of
seconds as in the next, while its ratio to a small reference job of the
same kind, run just before and just after it, stays within a few percent.
A gauge times its reference job at each ``tick`` (before every op and
after the last); a wall time measured from t0 to t1 is rescaled by
``nominal / median`` of the samples taken from t0 - WINDOW to t1 + WINDOW,
which always holds the ticks just before and just after it.
The result reads as time on a machine where the reference job takes
``nominal`` ms; it moves with the program's own speed and not with the
machine's load.

Two references, matched to what is measured:

* ``kernel``: a pure-Python loop over exact fractions, dicts and ints (the
  operations the library spends its time on), for ops run in this process;
* ``process``: a fresh interpreter importing a few stdlib modules, for
  anything measured in a fresh process (process start and imports
  dominate there, and scale differently from arithmetic).

Both use only the standard library, so no change to the program can move
them.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

KERNEL_MS = 1.5
PROCESS_MS = 60.0
WINDOW = 0.3  # seconds; the machine's speed shifts over seconds
PROCESS_CMD = [
    sys.executable, "-I", "-c",
    "import argparse, dataclasses, decimal, fractions, json, typing",
]


def reference_kernel():
    acc = Fraction(0)
    buckets = {}
    for i in range(1, 400):
        x = Fraction(i % 37 + 1, i % 29 + 2)
        acc += x
        buckets[i % 50] = buckets.get(i % 50, 0) + (x.numerator * 7) // x.denominator
    return acc, sorted(buckets.items())


def kernel_ms() -> float:
    """Median of three timings of the reference kernel, in ms."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def process_ms() -> float:
    """One timing of the reference process, in ms.  No timeout: with one,
    the wait polls with sleeps of up to 50 ms and the timing snaps to them;
    a stdlib import does not hang."""
    t0 = time.perf_counter()
    subprocess.run(PROCESS_CMD, check=True)
    return (time.perf_counter() - t0) * 1e3


class Gauge:
    def __init__(self, name: str, reference, nominal: float):
        self.name = name
        self.reference = reference
        self.nominal = nominal
        self.samples = []
        self.paused = 0.0
        self._busy = False

    @classmethod
    def kernel(cls) -> "Gauge":
        return cls("kernel", kernel_ms, KERNEL_MS)

    @classmethod
    def process(cls) -> "Gauge":
        return cls("process", process_ms, PROCESS_MS)

    def tick(self):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        ms = self.reference()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, ms))
        self.paused += t1 - t0
        self._busy = False

    def sample_every(self, period: float):
        """Also tick every ``period`` seconds, from a timer signal, so that
        long ops are gauged while they run; the time the ticks take is
        added to ``paused`` for the caller to subtract.  Only for ops run
        in this process, on the main thread; ``period`` 0 stops it."""
        signal.signal(signal.SIGALRM, lambda *_: self.tick() if period else None)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def clock(self) -> float:
        """perf_counter time that excludes the time spent in ticks."""
        return time.perf_counter() - self.paused

    def scale(self, t0: float, t1: float) -> float:
        """Factor that rescales a wall time measured from t0 to t1."""
        near = [ms for t, ms in self.samples if t0 - WINDOW <= t <= t1 + WINDOW]
        return self.nominal / statistics.median(near)

    def record(self) -> dict:
        return {
            "reference": self.name,
            "median_ms": statistics.median(ms for _, ms in self.samples),
            "nominal_ms": self.nominal,
        }
