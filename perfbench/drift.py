"""Timings corrected for drift of the shared machine.

On the machine the benchmark was built on (2 vCPUs, shared), the speed of
all code drifts by a factor of up to 1.8 over seconds to minutes.  A fixed
reference kernel timed between ops follows that drift; timed once per run
it does not.  So the kernel runs between slices of at most ``SLICE_S``
seconds of measured work, and every time in a slice is scaled by
``KERNEL_NOMINAL_S`` over the mean of the kernel times just before and
just after the slice: a time reads as it would at the speed where the
kernel takes ``KERNEL_NOMINAL_S``.

The kernel time is the geometric mean of two kernels, each the fastest of
``KERNEL_RUNS`` back-to-back runs (a single run now and then reads twice
its neighbours): exact elimination over Fraction, which speeds up more
than dglift does when the machine is fast, and random reads across a
7 MB heap of Fractions, which speeds up about as much.  Measured per op
on koszul-qq and koszul-fp (with a walk of 40000 reads), the mean cut the
spread of an op's time across passes from 0.19 to 0.07-0.10 (coefficient
of variation), and of a whole pass from 0.05-0.11 to 0.02-0.04.  The
kernels are the benchmark's own code and never run dglift, so a change
to the program moves scaled times as it moves raw ones.
"""

import math
import random
import statistics
import time
from fractions import Fraction

SLICE_S = 0.1
KERNEL_RUNS = 3
# A typical kernel time on the machine the baseline was recorded on
# (Python 3.11.7, 2 vCPUs).  Any fixed value works: it only sets the scale.
KERNEL_NOMINAL_S = 0.0045

_RNG = random.Random(2109)
_MATRIX = [[Fraction(_RNG.randint(-2, 2)) for _ in range(12)] for _ in range(12)]
_HEAP = [Fraction(_RNG.randint(1, 10**6), _RNG.randint(1, 10**6)) for _ in range(60000)]
_WALK = _RNG.sample(range(len(_HEAP)), 12000)


def eliminate():
    """Gauss-Jordan elimination of a fixed 12x12 matrix over Fraction."""
    rows = [row[:] for row in _MATRIX]
    n, r = len(rows), 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def walk():
    """Random reads across a fixed 60000-Fraction heap (about 7 MB)."""
    total = 0
    for i in _WALK:
        total += _HEAP[i].numerator & 7
    return total


def _fastest(kernel):
    best = None
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def time_kernel():
    """The reference time: geometric mean of the two kernels' fastest runs."""
    return math.sqrt(_fastest(eliminate) * _fastest(walk))


class DriftClock:
    """Collects raw times and scales each slice by the kernels around it."""

    def __init__(self):
        self.kernel_s = [time_kernel()]
        self.raw = []
        self.scaled = []
        self._open = 0          # first time not yet scaled
        self._since = 0.0

    def record(self, seconds):
        """Add one raw time; returns its index in ``raw`` and ``scaled``."""
        self.raw.append(seconds)
        self.scaled.append(None)
        self._since += seconds
        if self._since >= SLICE_S:
            self.flush()
        return len(self.raw) - 1

    def flush(self):
        """Close the open slice: time the kernel and scale the slice's times."""
        if self._open == len(self.raw):
            return
        kernel = time_kernel()
        scale = 2 * KERNEL_NOMINAL_S / (self.kernel_s[-1] + kernel)
        self.kernel_s.append(kernel)
        for i in range(self._open, len(self.raw)):
            self.scaled[i] = self.raw[i] * scale
        self._open = len(self.raw)
        self._since = 0.0

    def kernel_median(self):
        return statistics.median(self.kernel_s)
