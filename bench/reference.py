"""Machine-speed reference for the benchmark's end-to-end timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by
15-40% within seconds as other work on the host comes and goes.  A fixed job,
timed right before and right after each library call, tells how fast the
machine ran during that call.  The benchmark scales the call's wall time by
``NOMINAL_S`` over the mean of those two times, so an end-to-end timing reads
as seconds on a machine that runs this job in ``NOMINAL_S``.  The job is
part of the benchmark, so no change to the program changes it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# The job's median time on the 2-core host (Python 3.11.7, numpy 2.4.6) the
# benchmark was written on, so scaled timings read close to its wall times.
NOMINAL_S = 0.002
SAMPLES = 3

_BITS = np.random.default_rng(0).integers(0, 2, 4096, dtype=np.uint8)


def job() -> int:
    """Interpreter and numpy work in the program's mix: integer arithmetic,
    dict stores, a list built from array bits and small array operations."""
    s = 0
    table = {}
    for i in range(6000):
        s += (i * 2654435761) & 0xFFFF
        table[i & 255] = s
    s += sum([int(b) for b in _BITS[:2000]])
    for _ in range(20):
        s += int(np.cumsum(_BITS).sum())
    return s


def sample() -> float:
    """Median wall time of ``SAMPLES`` runs of the job, with the collector off
    so that the program's heap does not change the job's time."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            job()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds between two samples into scaled seconds."""
    return NOMINAL_S / ((before + after) / 2.0)
