"""Host-speed probe, so that timings taken on a shared host compare across runs.

On a small shared host the same fit runs up to twice as slow for stretches
of seconds to minutes, and CPU time slows with it, so neither more repeats nor
process CPU time remove the drift. The benchmark therefore runs a fixed
probe, independent of kpfit, every ``INTERVAL_S`` of the timed loop (outside
any fit's timing) and scales each timing by ``REFERENCE_S`` over the median
probe time in a window around it: a time reads as it would on the host at
its reference speed. The probe is the same small-array work the fits do
(a weighted cross-covariance, its 3x3 SVD, a residual and ridge terms), so
both slow down together. Raw times are reported alongside.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

PROBE_REPS = 500
# probe seconds on the reference host (2-vCPU Intel Xeon, Python 3.11,
# numpy 2.4 with OpenBLAS on one thread) when it was not slowed down
REFERENCE_S = 0.015
INTERVAL_S = 0.5
WINDOW_S = 3.0  # probes within this distance of a timing scale it

_A = np.linspace(-1.0, 1.0, 3 * 124).reshape(3, 124)
_B = np.cos(_A)
_W = np.linspace(0.5, 1.0, 124)
_MODES = np.stack([_A, _B])


def probe_work():
    """One block-descent step per rep: weighted Procrustes, residual, ridge terms."""
    acc = 0.0
    for _ in range(PROBE_REPS):
        m = (_A * _W) @ _B.T
        u, s, vt = np.linalg.svd(m)
        resid = _A - (u @ vt) @ _B
        g = np.einsum("p,jap,ap->j", _W, _MODES, resid)
        acc += float(np.sum(_W * np.sum(resid**2, axis=0))) + float(g[0]) + float(s[0])
    return acc


class HostSpeed:
    """Probe times by midpoint; ``factor`` converts a raw time to reference speed."""

    def __init__(self):
        self._times = []
        self._seconds = []

    def probe(self):
        start = perf_counter()
        probe_work()
        end = perf_counter()
        self._times.append(0.5 * (start + end))
        self._seconds.append(end - start)

    def maybe_probe(self):
        if not self._times or perf_counter() - self._times[-1] >= INTERVAL_S:
            self.probe()

    def factor(self, t):
        """REFERENCE_S over the median probe within WINDOW_S of time ``t``
        (the nearest probe if none is that close)."""
        lo = bisect.bisect_left(self._times, t - WINDOW_S)
        hi = bisect.bisect_right(self._times, t + WINDOW_S)
        if lo == hi:
            lo = min(range(len(self._times)), key=lambda i: abs(self._times[i] - t))
            hi = lo + 1
        return REFERENCE_S / statistics.median(self._seconds[lo:hi])

    def median_seconds(self):
        return statistics.median(self._seconds)
