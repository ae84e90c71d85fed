"""CPU speed reference: a fixed loop timed around and during each operation.

Other tenants of a shared host slow its CPU by up to 1.8x, in spells that
last from a second to minutes, and process CPU time slows with wall time, so
the slow-down is not scheduling and cannot be subtracted.  Timing a fixed
reference loop while an operation runs measures the speed it ran at;
scaling its time by ``REF_S / reference time`` gives the time it would have
taken at a fixed nominal speed.

While a `SpeedRef` is entered, a SIGALRM timer samples the loop every
TICK_S seconds, between two Python bytecodes of whatever runs.  An
operation timed with `mark` and `since` averages the samples taken just
before it, during it and just after it, and the time spent sampling during
it is taken out of its time.

The loop mixes what oodfdd spends its time on: many small numpy calls whose
cost is interpreter overhead, a 196-wide matmul, elementwise passes over
2 MB arrays, dropout-style uniform draws and parsing CSV text.  Over 200 s
of back-to-back `oodfdd score` requests, normalising by this loop cut the
spread of 10 s window means from 0.15 to 0.04, against 0.07 for the loop
without the draws and the parsing.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Chunk time of the loop below on an Intel Xeon at 2.0 GHz (2-vCPU virtual
# machine, numpy 2.4.6, one OpenBLAS thread) outside slow spells: the 10th to
# 20th percentile of 300 chunks.  Normalised times are in seconds at that speed.
REF_S = 0.006
CHUNKS = 3
TICK_S = 0.5


class SpeedRef:
    """Samples the reference loop on demand, and on a timer while entered."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 16))
        self._w = rng.standard_normal((16, 16))
        self._a = rng.standard_normal((128, 196))
        self._b = rng.standard_normal((196, 64))
        # preallocated, so that sampling allocates and frees no large block
        # and leaves the allocator's behaviour towards oodfdd unchanged
        self._big = rng.standard_normal(1 << 18)
        self._out = np.empty_like(self._big)
        self._rng = np.random.default_rng(1)
        self._draws = np.empty((256, 64))
        self._line = ",".join(f"{v:.6f}" for v in rng.standard_normal(64))
        self.latest = None
        self.ticks: list[float] = []  # samples taken by the timer
        self.tick_s = 0.0  # time spent taking them
        self._busy = False
        self._old_handler = None

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def _chunk(self) -> float:
        t0 = time.perf_counter()
        x = self._x
        for _ in range(120):
            y = np.maximum(x @ self._w, 0.0)
            x = y / (1.0 + np.abs(y).max())
        for _ in range(16):
            np.tanh(self._a @ self._b)
        for _ in range(4):
            np.multiply(self._big, 0.5, out=self._out).sum()
        for _ in range(20):
            self._rng.random(out=self._draws)
            (self._draws < 0.5).sum()
        for _ in range(40):
            [float(v) for v in self._line.split(",")]
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median time of CHUNKS runs of the loop, in seconds."""
        busy, self._busy = self._busy, True
        try:
            self.latest = statistics.median(self._chunk() for _ in range(CHUNKS))
        finally:
            self._busy = busy
        return self.latest

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        t0 = time.perf_counter()
        self.ticks.append(self.sample())
        self.tick_s += time.perf_counter() - t0

    def mark(self):
        """Start timing an operation."""
        self._busy = True
        try:
            before = self.latest if self.latest is not None else self.sample()
            return before, len(self.ticks), self.tick_s, time.perf_counter()
        finally:
            self._busy = False

    def since(self, mark) -> tuple[float, float]:
        """Seconds the operation begun at `mark` ran, less the time the timer
        spent sampling, and the mean reference time over the operation."""
        self._busy = True
        try:
            end = time.perf_counter()
            before, n, tick_s, t0 = mark
            seconds = end - t0 - (self.tick_s - tick_s)
            return seconds, statistics.mean([before, *self.ticks[n:], self.sample()])
        finally:
            self._busy = False


class NoRef:
    """Times operations with no speed reference, as the traced run does."""

    def mark(self):
        return time.perf_counter()

    def since(self, mark) -> tuple[float, None]:
        return time.perf_counter() - mark, None


def normalised(seconds: float, ref_s: float) -> float:
    """`seconds` measured while the reference loop took `ref_s`, at REF_S."""
    return seconds * REF_S / ref_s
