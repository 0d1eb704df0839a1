"""Machine-speed calibration for timings taken on a shared, noisy machine.

On the shared 2-core container the benchmark was built on, the calibration
below took from 0.025 s to 0.051 s in runs minutes apart, and pass times of
a workload swung with it, because other tenants load the host.  So the
benchmark runs this fixed piece of work, which does not use juxtaspec, every
half second between sessions, and reports each time scaled to the speed at
which the calibration takes REFERENCE_S:

    scaled = raw * REFERENCE_S / (median calibration of the run)

A change to the library moves scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.040


def calibrate() -> float:
    """Seconds taken by a fixed mix of integer arithmetic and allocation."""
    start = perf_counter()
    acc = 0
    for i in range(200000):
        acc += i * i % 7
    table = {}
    for i in range(40000):
        table[(i, i % 13)] = str(i)
    return perf_counter() - start
