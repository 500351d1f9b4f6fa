"""Host speed: pin to the fastest CPU, and scale wall times to a reference speed.

On the shared host this benchmark was built on, each virtual CPU's speed
moved between levels up to 1.5x apart, for seconds to minutes at a time;
a slow spell could cover a whole run.  Two things answer that.  Before
each timed call the process moves to the CPU that runs the calibration
kernel fastest at that moment (only this process's own affinity changes;
children inherit it).  And each call's wall time is scaled to the
reference speed by the kernel's time around the call, on the same CPU:

    time at reference speed = wall time * REFERENCE_S / kernel time

The kernel is a fixed pure-Python product of two sparse polynomials held
as dicts from exponent pairs to residues, the pattern of the package's
ring arithmetic, and it imports nothing from the package, so a change to
the program cannot move it.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

# About the kernel's median time on the reference host (2 vCPUs, Python
# 3.11), so that times at reference speed stay close to its wall times.
REFERENCE_S = 0.0025
# Seconds between kernel samples during a timed call.
SAMPLE_S = 0.03
# The CPUs this process may use, before any pinning.
ALLOWED = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

_PRIME = 2**31 - 1
_LEFT = {(i, j): (i * 1_000_003 + j) ** 3 % _PRIME for i in range(8) for j in range(8)}
_RIGHT = {(i, j): (i + 7 * j + 1) ** 5 % _PRIME for i in range(8) for j in range(8)}


def kernel_seconds() -> float:
    """Wall seconds of one run of the calibration kernel on the current CPU."""
    start = time.perf_counter()
    product: dict = {}
    for (i, j), a in _LEFT.items():
        for (k, m), b in _RIGHT.items():
            key = (i + k, j + m)
            product[key] = (product.get(key, 0) + a * b) % _PRIME
    return time.perf_counter() - start


def pin_fastest() -> float:
    """Pin to the CPU that runs the kernel fastest now; return that kernel time."""
    if len(ALLOWED) < 2:
        return kernel_seconds()
    speeds = {}
    for cpu in ALLOWED:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = kernel_seconds()
    fastest = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {fastest})
    return speeds[fastest]


def unpin() -> None:
    if ALLOWED:
        os.sched_setaffinity(0, ALLOWED)


def at_reference(elapsed: float, kernel_times: list[float]) -> float:
    """``elapsed`` scaled to reference speed by the median of the kernel times measured around it."""
    return elapsed * REFERENCE_S / statistics.median(kernel_times)


class Speedometer:
    """Kernel times measured when pinning, before a timed block, every SAMPLE_S during it, and after it.

    The samples during the block run in a SIGALRM handler, so they follow
    the host's speed through calls that last seconds; ``stolen`` is the
    time they took, which the block's wall time must not count.
    """

    def __enter__(self) -> "Speedometer":
        self.kernel = [pin_fastest(), kernel_seconds()]
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        self.kernel.append(kernel_seconds())
        self.stolen += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.kernel.append(kernel_seconds())

    def at_reference(self, elapsed: float) -> float:
        return at_reference(elapsed - self.stolen, self.kernel)
