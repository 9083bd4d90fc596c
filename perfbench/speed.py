"""Machine-speed calibration.

On a shared machine the CPU's speed drifts by tens of percent over seconds
(other tenants, frequency changes), which moves every timing of a run
together. The benchmark runs a fixed reference kernel between operations,
outside their timed spans, and scales each time it reports by
REFERENCE_MS / (median kernel time of the run): times read as they would on
a machine where the kernel takes exactly REFERENCE_MS. The kernel mixes the
work joltsql does: small float32 matrix products, elementwise numpy,
Python-level list handling, and a sqlite query guarded by a
`threading.Timer`, as `metrics.execution_accuracy` runs them, so it slows
down with the program.
"""
from __future__ import annotations

import sqlite3
import statistics
import threading
import time

import numpy as np

REFERENCE_MS = 3.0
# Sample at most this often, so fast operations do not spend most of a run
# in the kernel.
MIN_INTERVAL_S = 0.05


class Speed:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((200, 80)).astype(np.float32)
        self._w = rng.standard_normal((80, 80)).astype(np.float32)
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        self._db.executemany("INSERT INTO t VALUES (?, ?)", [(i, i % 7) for i in range(200)])
        self.samples_ms: list[float] = []
        self._last = None

    def close(self):
        self._db.close()

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(12):
            h = self._a @ self._w
            h = np.where(h > 0, h, 0.0) / (1.0 + np.abs(h).max())
            total += float(h.sum())
            order = sorted(range(200), key=lambda i: (i * 7919) % 200)
            total += order[0]
        for _ in range(4):
            timer = threading.Timer(5.0, self._db.interrupt)
            timer.start()
            total += len(self._db.execute("SELECT b, COUNT(*) FROM t GROUP BY b").fetchall())
            timer.cancel()
            timer.join()
        return total

    def sample(self):
        if self._last is not None and self.clock() - self._last < MIN_INTERVAL_S:
            return
        self._kernel()  # warm-up: the timed pass should not pay for cold caches
        t0 = self.clock()
        self._kernel()
        self._last = self.clock()
        self.samples_ms.append((self._last - t0) * 1000.0)

    def factor(self, first: int = 0) -> float:
        """Multiplier that converts times to reference speed, from the
        samples taken since sample number `first`."""
        return REFERENCE_MS / statistics.median(self.samples_ms[first:])
