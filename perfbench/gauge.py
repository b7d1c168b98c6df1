"""Measured seconds scaled to one reference machine speed.

On a shared machine the speed of one core drifts by up to about 1.8x
over a few seconds, as other tenants come and go, which would swamp any
change to pakit.  The gauge times a fixed pure-Python kernel next to
every timed segment and scales the segment by how slow the kernel ran
then.  The kernel does what pakit's hot paths do (binary search over
sliced bytes, small objects with slots, dict counters, log-domain float
math) without calling pakit, so a change to the library cannot move it.
In one-minute tests on a shared 2-core virtual machine, scaling cut the
spread of repeated timings of pakit work from 25%-40% to 6%-10%.

A scaled second is a second on a machine where the kernel takes
REFERENCE_S seconds, which is this kernel's typical time on that
machine.
"""

import math
import time

REFERENCE_S = 0.004
INTERVAL_S = 0.2  # longest a reading is reused before the kernel runs again
ROUNDS = 800  # kernel loop length, about REFERENCE_S on that machine

_KEY = 9
_KEYS = sorted(bytes((i * 7 + j * 13) % 26 + 97 for j in range(_KEY)) for i in range(512))
_BLOB = b"".join(_KEYS)

clock = time.perf_counter


class _Cell:
    __slots__ = ("count", "key")

    def __init__(self, count, key):
        self.count = count
        self.key = key


def _search(key: bytes) -> int:
    lo, hi = 0, len(_KEYS)
    while lo < hi:
        mid = (lo + hi) // 2
        if key < _BLOB[mid * _KEY : mid * _KEY + _KEY]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def kernel() -> int:
    counts = {}
    x = 0.5
    total = 0
    for i in range(ROUNDS):
        offset = (i * 37 % 512) * _KEY
        key = _BLOB[offset : offset + _KEY]
        cell = _Cell(_search(key), key)
        counts[i & 255] = (counts.get(i & 255, 0) + cell.count) & 0xFFFFFFFF
        x = (x + math.log1p(math.exp(-x))) % 7.0
        total += int.from_bytes(cell.key[:4], "big") & 7
    return total


class Gauge:
    """Times segments in scaled seconds: `mark = start()`, then `stop(mark)`.

    Segments may nest; time spent running the kernel inside a segment is
    left out of it.
    """

    def __init__(self):
        self._samples = []
        self._taken = -math.inf
        self._kernel_s = 0.0

    def reading(self) -> float:
        """Median of the last three kernel timings, one taken each INTERVAL_S."""
        if clock() - self._taken >= INTERVAL_S:
            start = clock()
            kernel()
            self._taken = clock()
            self._samples = self._samples[-2:] + [self._taken - start]
            self._kernel_s += self._taken - start
        return sorted(self._samples)[len(self._samples) // 2]

    def start(self) -> tuple:
        before = self.reading()
        return before, self._kernel_s, clock()

    def stop(self, mark: tuple) -> float:
        end = clock()
        before, kernel_s, start = mark
        elapsed = end - start - (self._kernel_s - kernel_s)
        return elapsed * REFERENCE_S * 2.0 / (before + self.reading())

    def split(self, mark: tuple) -> tuple[float, tuple]:
        """Stop the segment begun at `mark` and start the next one."""
        return self.stop(mark), self.start()
