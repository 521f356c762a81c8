"""Host-speed calibration: report times at one fixed reference speed.

A shared host's speed drifts: the same join on the same virtual CPU
takes 1.7 s for minutes, then 2.8 s for minutes, without any steal time
showing, because the physical core, its caches and memory bandwidth are
shared with other machines.  A run therefore also times a fixed
reference kernel (plain numpy and Python, no program code) after every
set-up, every join and every round of served requests, and scales every
time it reports by
``REFERENCE_S / median reference time`` over the whole run.  The
reported figures are what the run would have measured on a host where
the kernel takes ``REFERENCE_S``; the raw figures and the factor are
printed with the run details.

One factor per run, not one per operation: a single reference sample
varies by about 10%, more than a join of several seconds does, while
the host's speed changes over minutes.

The kernel mixes the primitives the joins spend their time in: a stable
argsort with a gather, binary searches, a histogram, and an interpreted
loop over Python integers.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: CPU seconds of one reference sample at the reference speed.  Any
#: constant would do; this one is a round figure near the kernel's time
#: on the host the committed records were made on (2-vCPU x86_64), so
#: reported figures stay close to the raw ones there.
REFERENCE_S = 0.040
#: Samples taken at each calibration point.
SAMPLES_PER_POINT = 3


class Calibration:
    """Reference-kernel samples taken during one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240101)
        self._keys = rng.integers(0, 1 << 20, 1 << 17)
        self._payloads = rng.integers(0, 1 << 32, 1 << 17)
        self._probe = rng.integers(0, 1 << 20, 1 << 15)
        self.samples: List[float] = []

    def _kernel(self) -> int:
        order = np.argsort(self._keys, kind="stable")
        keys = self._keys[order]
        payloads = self._payloads[order]
        low = np.searchsorted(keys, self._probe, side="left")
        high = np.searchsorted(keys, self._probe, side="right")
        counts = np.bincount(keys & 0x7FFF, minlength=1 << 15)
        total = 0
        for count, payload in zip(counts.tolist(),
                                  payloads[:1 << 15].tolist()):
            total = (total + count * payload) & 0xFFFFFFFFFFFFFFFF
        return total + int((high - low).sum())

    def point(self, n: int = SAMPLES_PER_POINT) -> None:
        """Time the kernel ``n`` times in this process's CPU time."""
        for _ in range(n):
            start = time.process_time()
            self._kernel()
            self.samples.append(time.process_time() - start)

    def factor(self) -> float:
        """Reference seconds per measured second over the run so far."""
        return REFERENCE_S / statistics.median(self.samples)
