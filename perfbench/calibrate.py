"""Host-speed calibration of the release timings.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over seconds to minutes (other tenants' load on the same
cores, caches and memory).  A fixed loop of plain Python and numpy,
timed on this host, swung between 10.1 and 15.7 ms in 2-second windows
and between runs; one workload read 2x slower for a whole run.  No
statistic of raw times survives that, so each timed operation is
bracketed by a fixed *reference unit* of work that does not touch the
program, and its time is rescaled to a host on which the reference unit
takes :data:`REFERENCE_MS`::

    reported = measured * REFERENCE_MS / reference_time_around_it

The reference unit mixes the two kinds of work the program does
(allocating small Python objects, and numpy passes over arrays), so a
slowdown of the host slows both alike and cancels.  Raw, unscaled
figures are printed next to the result for comparison.

References are taken between the steady-state releases only.  Right
after a set-up the reference unit read two to three times slower than
just before it (the process heap had changed, not the host), so a
reference taken around a set-up does not track it; set-ups are
rescaled by the run's median factor over its releases instead.
Serving throughput is rescaled round by round in the same way, and so
is the part of each serving latency above the coalescing window; serving
set-ups are not (see ``serving.py``).
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Reference-unit time, in ms, of the host every figure is scaled to.
REFERENCE_MS = 4.0


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


_TABLE = np.cumsum(np.ones((64, 9)), axis=1)


def reference_unit() -> None:
    pairs = [(float(i), i * 0.5) for i in range(4000)]
    arr = np.asarray(pairs)
    np.searchsorted(_TABLE[0], arr[:, 0] % 9.0)
    cells = [_Cell(x, y) for x, y in arr[:2000].tolist()]
    np.asarray([(c.x, c.y) for c in cells])


def reference_seconds() -> float:
    """One reference unit's time.  The collector is paused for it: the
    unit frees everything it allocates, and a collection of the
    program's garbage landing inside it would read as a slow host."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_unit()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale_between(times, refs) -> np.ndarray:
    """Rescale ``times[i]``, measured between ``refs[i]`` and
    ``refs[i + 1]``, to the reference host."""
    times = np.asarray(times, dtype=float)
    refs = np.asarray(refs, dtype=float)
    local = (refs[:-1] + refs[1:]) / 2.0
    return times * (REFERENCE_MS / 1e3) / local
