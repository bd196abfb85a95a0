"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the speed of one core drifts by up to 2x over minutes,
as neighbours come and go, and every layer of the backtest slows with it.
Timing this kernel between repetitions and dividing by it removes that
drift: on a shared two-vCPU virtual machine, the spread of a run's median
wall time over ten runs fell from 14% to 4% this way. The kernel
mixes what the backtest spends its time on (interpreted loops over dicts
and lists, single-value numpy calls, small sorts) and uses no mixrec code,
so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.3  # kernel time that defines the reported speed


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._sorted = np.sort(rng.integers(0, 10**6, 5000))
        self._keys = rng.integers(0, 10**6, 30000).tolist()
        self._small = rng.random(3000)

    def run(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        for _ in range(4):
            counts: dict[int, int] = {}
            found = []
            for k in self._keys:
                counts[k & 1023] = counts.get(k & 1023, 0) + 1
                if k & 3 == 0:
                    found.append(int(np.searchsorted(self._sorted, k)))
            for j in range(200):
                np.lexsort((self._small, -self._small))
                np.unique(self._sorted[j:j + 500])
        return time.perf_counter() - t0


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, rescaled to
    the speed at which it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / kernel_s
