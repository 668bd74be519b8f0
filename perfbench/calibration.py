"""Machine-speed probe: a fixed numpy kernel timed between ops.

The benchmark shares its cores with other tenants. Their load slows every
op by 20 to 35% for minutes at a time, which is more than the bounds in
BENCHMARK.json allow. The probe measures that slowdown where the ops run.

A worker times this kernel just before each op, in the same process and
at the same thread caps. The kernel is eight small attention blocks (256 queries
over 512 keys, d = 16) and a 3-D FFT, the same kinds of work the program
does. run.py scales the run's end-to-end times by PROBE_REFERENCE_S /
(the run's median kernel time). A run on a busy machine then reads about
what it would on an idle one. The report prints the raw values too.

The kernel touches no specfuse code, so a change to the program cannot
change the kernel's work. A change that left CPU-burning threads running
between ops would slow the kernel as well, and the scaling would hide part
of that cost. The raw values in the report and the per-layer times would
still show it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


class Probe:
    """Times the fixed kernel."""

    def __init__(self):
        rng = np.random.Generator(np.random.Philox(key=20250701))
        self.q = rng.standard_normal((256, 16))
        self.k = rng.standard_normal((512, 16))
        self.v = rng.standard_normal((512, 16))
        self.x = rng.standard_normal((8, 16, 16, 16))

    def kernel(self) -> None:
        for _ in range(8):
            logits = self.q @ self.k.T
            logits -= logits.max(axis=1, keepdims=True)
            np.exp(logits, out=logits)
            logits /= logits.sum(axis=1, keepdims=True)
            logits @ self.v
        np.fft.fftn(self.x, axes=(1, 2, 3))

    def measure(self, at_least_s: float) -> float:
        """Run the kernel once, then again until `at_least_s` has passed;
        return the median kernel time."""
        samples = []
        end = time.perf_counter() + at_least_s
        while True:
            start = time.perf_counter()
            self.kernel()
            now = time.perf_counter()
            samples.append(now - start)
            if now >= end:
                return statistics.median(samples)
