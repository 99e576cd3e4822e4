"""A fixed reference computation, timed next to every measured segment.

The 2-core host this benchmark was written on alternates, over periods of
seconds, between a fast and a slow state about 1.5x apart (a fixed
Python loop took 19 ms or 28 ms depending on the period), and a whole
25 s run can fall in the slow state.  Raw times then spread by 20-50%
between runs of the same code.  Dividing each measured segment by the time of
this probe, taken just before and just after it, removes most of
that: the slowdown hits both alike.  Times are reported as
``segment / probe * REFERENCE_S``, that is in seconds of a host on which
the probe takes REFERENCE_S, which is about its time on that host in
its fast state.  The probe mixes the kinds of work hswit does: Python
dict and tuple handling, many small numpy calls, and a dense matrix
product.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010

_VEC = np.linspace(0.0, 1.0, 16)
_MAT = np.random.default_rng(0).normal(size=(96, 96))


def probe() -> float:
    """Seconds taken by the reference computation now."""
    t0 = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    for i in range(24_000):
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0.0) + 1.0
    v = _VEC.copy()
    for _ in range(2_000):
        v = v * 0.5 + _VEC
    for _ in range(16):
        _MAT @ _MAT
    return time.perf_counter() - t0
