"""Machine-speed probe: single-threaded times at a fixed reference speed.

On a 2-core host shared with other tenants the speed drifts: the same
run read 30-40% slower or faster a quarter of an hour apart, in CPU
time as much as in wall time.
A single-threaded run therefore times a fixed probe (interpreter loop,
dict updates, hashing, a NumPy sort: the kinds of work the program
does) between episodes and scales every time it reports by
``REFERENCE_S / median(probe times)``.  A change to the program moves
the scaled times exactly as it moves the raw ones; a change in machine
speed between runs largely cancels.  Six runs of one ``serve`` seed
spread 13-15% (quartile distance over median) raw and 4-5% scaled.

The two-writer ``shard`` workload is not scaled: neither this probe
nor the same probe on two threads tracked its speed (six runs spread
12% raw and 14-17% scaled), which depends on how the two writers share
the interpreter lock more than on the machine's single-thread speed.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "probe", "scale"]

#: probe time, in seconds, at the reference speed (the median probe on
#: a shared 2-core x86-64 host)
REFERENCE_S = 0.010

_ARRAY = np.random.default_rng(0).random(20_000)
_BLOCK = bytes(range(256)) * 4


def probe() -> float:
    """Seconds one fixed mix of work takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    counts: dict[int, int] = {}
    for i in range(25_000):
        k = i % 997
        counts[k] = counts.get(k, 0) + 1
    h = hashlib.sha256()
    for _ in range(300):
        h.update(_BLOCK)
    for _ in range(6):
        np.sort(_ARRAY)
    return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor taking this run's times to the reference speed."""
    return REFERENCE_S / statistics.median(probes)
