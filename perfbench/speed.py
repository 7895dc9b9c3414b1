"""Calibration of the machine's momentary speed.

The benchmark shares its CPU with other tenants.  On the 2-vCPU Xeon it was
written on, a fixed pure-Python loop ran at two speeds about 1.4x apart,
switching every few seconds, independently on each CPU, and raw medians of
one 20 s run moved by 20-30 % from run to run.  So every timed call (every
pass, for calls too short to bracket) is bracketed by `sample()`, a fixed
kernel of the same kind of work phisoft does (dict inserts and lookups, tuple
building, float arithmetic), on the same CPU, and its time is multiplied by
REFERENCE_S / (mean of the two samples): it is reported in seconds at the
reference speed.  For in-process calls the samples correlated with the call
time at about 0.9 there.  The run's output prints the raw times beside.
"""

import gc
import time

#: The kernel's time at the reference speed (fast state of the machine above).
REFERENCE_S = 0.020


def _kernel() -> float:
    total = 0.0
    for _ in range(4):
        table = {}
        for i in range(12_000):
            table[(i, i & 255)] = (i * 0.5, i / 3.0)
        for (i, j), (x, y) in table.items():
            total += x * y - j
    return total


def sample() -> float:
    # With the collector on, the kernel's allocations would set off full
    # collections over whatever heap the workload holds, and the sample would
    # time those instead of the CPU.  The kernel frees all it allocates, so
    # pausing the collector leaves the program's collection schedule as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from seconds measured between two samples to reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
