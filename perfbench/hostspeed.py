"""Host-speed reference: times a fixed computation between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30% over seconds to minutes as other tenants load it; a single process
sees it in user CPU time as well as wall time, so no longer run or median
removes it.  A fixed reference computation that mixes the engine's kinds of
work (interpreter loop, float matmul, elementwise numpy, uint64 XOR +
popcount) on arrays of the workloads' size slows down with the host in step
with them, while its own code never changes between commits.

``HostSpeed.probe()`` is called before each timed operation and once after
the last.  Each operation's time is then scaled by ``REFERENCE_MS`` over the
median of the probes around it, so reported times read as milliseconds at
the host speed where the reference takes ``REFERENCE_MS``; a loop's time is
the sum of the gaps between its probes, each scaled the same way.  The raw
times are kept beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 6.0  # about the reference's time on the baseline host (2-core Xeon) when quiet
WINDOW = 2  # probes on each side of an operation that set its scale
REFERENCE_LOOP = 22_000  # interpreter part, about a third of the reference


class HostSpeed:
    def __init__(self, warmup: int = 3):
        rng = np.random.default_rng(0)  # fixed: the reference never depends on the workload seed
        # About 20 MB, well past the core's 4 MB L2 like the workloads' own
        # arrays, so host memory contention shows in it too; outputs are
        # preallocated, so its time does not depend on the allocator state
        # the workload leaves behind.
        self._x = rng.random((4096, 96))
        self._w = rng.random((96, 64))
        self._y = np.empty((4096, 64))
        self._img = rng.random((16, 24, 32, 32))
        self._buf = np.empty_like(self._img)
        self._a = rng.integers(0, 2**63, size=(128, 4096), dtype=np.uint64)
        self._b = rng.integers(0, 2**63, size=(128, 4096), dtype=np.uint64)
        self._c = np.empty_like(self._a)
        self._ones = np.empty(self._a.shape, dtype=np.uint8)
        self.samples_ms: list[float] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self.total_s = 0.0  # time spent probing, to take out of loop wall times
        for _ in range(warmup):
            self._reference()

    def _reference(self) -> float:
        s = 0
        for i in range(REFERENCE_LOOP):
            s += i * i
        np.matmul(self._x, self._w, out=self._y)
        np.maximum(self._img, 0.25, out=self._buf)
        self._buf *= 0.5
        self._buf += self._img
        np.bitwise_xor(self._a, self._b, out=self._c)
        np.bitwise_count(self._c, out=self._ones)
        return s + self._y[0, 0] + self._buf.sum() + int(self._ones.sum())

    def probe(self) -> int:
        """Times the reference once; returns the index of this probe."""
        start = time.perf_counter()
        self._reference()
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self.samples_ms.append(1e3 * (end - start))
        self.total_s += end - start
        return len(self.samples_ms) - 1

    def scale(self, index: int) -> float:
        """Time scale of an operation that ran right after probe ``index``."""
        window = self.samples_ms[max(0, index - WINDOW + 1) : index + WINDOW + 1]
        return REFERENCE_MS / statistics.median(window) if window else 1.0

    def loop_scale(self, first: int = 0) -> float:
        """Time scale over every probe from ``first`` on."""
        window = self.samples_ms[first:]
        return REFERENCE_MS / statistics.median(window) if window else 1.0

    def loop_time(self, first: int = 0, scaled: bool = True) -> float:
        """Seconds between probe ``first`` and the last one, without the probes."""
        return sum((self._starts[i + 1] - self._ends[i]) * (self.scale(i) if scaled else 1.0)
                   for i in range(first, len(self._starts) - 1))
