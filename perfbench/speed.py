"""Scale measured times to a fixed machine speed.

On a shared 2-core VM the same fixed work ran at speeds up to 40% apart
between 5-second windows, with CPU time tracking wall time, so the drift is
the host's and does not average out within a run. The benchmark therefore
times a fixed kernel around each timed stretch and multiplies the stretch by
REFERENCE_KERNEL_S / (kernel time around it). The kernel mixes what the
workloads spend time on: a Python float loop, small numpy calls and one
pass over a large array. It never calls the package, so a change to the
package moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the 2-core box the benchmark was built on, in a quiet spell.
REFERENCE_KERNEL_S = 3.0e-3
REPEATS = 5

_SMALL = np.linspace(0.1, 3.0, 16)
_LARGE = np.linspace(0.1, 3.0, 200_000)


def _kernel() -> float:
    s = 0.0
    for k in range(1, 1500):
        s += (2.0 * k / 7.3) * 0.5 - s * 1e-3
    for _ in range(60):
        s += float(np.cos(_SMALL * s).sum())
    y = np.cos(3.0 * _LARGE + s)
    return s + float(np.einsum("i,i->", y, _LARGE))


def kernel_s() -> float:
    """Median wall time of the fixed kernel over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for a stretch bracketed by two kernel timings."""
    return REFERENCE_KERNEL_S / (0.5 * (before + after))
