"""
Machine-speed calibration of the timed phase.

The benchmark runs on a few cores of a shared host whose speed swings by
a third within seconds: a fixed pure-Python loop timed in 0.5 s windows on
the 2-vCPU VM the benchmark was defined on took 13 to 22 ms per call, with
process CPU time tracking wall time (no steal), in phases of seconds to
minutes.  Raw timings of the same code therefore spread more between runs
than any bound a regression check could use.

So the workload process times a fixed reference kernel between ops, about
every :data:`PERIOD_S` seconds, and scales each op's wall time by
``REFERENCE_S / kernel time`` measured around it: the op's time at the
speed at which the kernel takes :data:`REFERENCE_S`.  The kernel is what
netcalc spends most of its time on, written independently of it: power
iterations in a Python loop, on a small matrix (where numpy call overhead
and the interpreter dominate) and on a larger one, and a dense eigenvalue
call.  A slow phase slows both alike, so the ratio stays put.  The kernel
is the benchmark's own fixed code; a change to netcalc moves the
calibrated times in full.  Raw timings are printed beside the calibrated
ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

PERIOD_S = 0.05  # a kernel sample at least this often during the timed phase
REFERENCE_S = 0.002  # kernel time that calibrated timings are expressed at
WINDOW = 3  # samples on each side of a segment that its factor averages

_SMALL = np.random.default_rng(20181005).uniform(0.0, 1.0, (24, 24)) / 24.0
_LARGE = np.random.default_rng(20181006).uniform(0.0, 1.0, (120, 120)) / 120.0


def kernel() -> float:
    """The fixed reference work; returns a checksum so nothing is skipped."""
    # A bracketing power iteration on a small matrix: numpy call overhead
    # and the interpreter dominate, as in the stability decision on small M.
    x = np.ones(24)
    for _ in range(100):
        y = _SMALL @ x + 1e-6 * x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        x = np.maximum(y / y.max(), 1e-250)
    # On a larger matrix the products themselves cost.
    z = np.ones(120)
    for _ in range(150):
        w = _LARGE @ z
        z = w / w.max()
    # The dense eigenvalue routine of the fallback.
    return lo + hi + float(z.sum()) + float(abs(np.linalg.eigvals(_LARGE[:60, :60])).max())


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(samples: List[float]) -> float:
    """``REFERENCE_S`` over the mean of some kernel times."""
    return REFERENCE_S / statistics.fmean(samples)


class Calibrator:
    """
    Kernel samples taken between ops.  Ops between two consecutive samples
    form a segment; each op remembers its segment, and the segment's factor
    comes from the mean of the samples around it: the mean follows the
    share of time the host spends in its slow state, which is what stretches
    an op, and averaging over several samples damps single hiccups.
    """

    def __init__(self):
        time_kernel()  # first call pays for lazy set-up in numpy
        self.samples: List[float] = []
        self.last = 0.0
        self.sample()

    def sample(self) -> None:
        self.samples.append(time_kernel())
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= PERIOD_S:
            self.sample()

    @property
    def segment(self) -> int:
        """The segment that an op starting now belongs to."""
        return len(self.samples) - 1

    def factors(self) -> List[float]:
        """Factor per segment; call after a final :meth:`sample`."""
        s = self.samples
        return [speed_factor(s[max(0, i - WINDOW + 1): i + WINDOW + 1]) for i in range(len(s))]
