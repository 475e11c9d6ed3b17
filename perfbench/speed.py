"""Machine speed, measured alongside the ops, for the end-to-end time metrics.

The benchmark shares a few cores of a host with other tenants, and the speed
of those cores moves by up to 1.7x within minutes, for wall time and CPU time
alike.  So a run interleaves a small fixed kernel with its ops: about one
kernel sample per EVERY_S seconds, taken just before an op starts.  The
kernel is timed in CPU time of the calling thread, so a stretch in which the
host takes the core away does not count as slowness.  Each op's time is then
rescaled to a reference speed:

    scaled = time * REFERENCE_S / (median kernel time of the samples around it)

The kernel belongs to the benchmark and mixes what the program spends its
time on: small numpy arrays, 3x3 Hermitian eigenvalues, 4x4 products, and
pure-Python objects, floats and dicts.  No change to the package changes the
kernel, so a faster program shows as a smaller scaled time, while the host
speeding up or slowing down moves the op and the kernel together and
cancels.  Kernel time is not counted in any op.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Kernel CPU time at the reference speed.  On a shared 2-vCPU Intel Xeon at
# 2.1 GHz the kernel took about 0.55 ms in the host's slow state, which is
# about 1.6x slower than its fast one; 0.4 ms lies in between.
REFERENCE_S = 0.4e-3
# Dense sampling and a narrow window: the host changes speed within tens of
# milliseconds.  Over 150 s of extraction, the 10-s medians of op time moved
# by 17% (coefficient of variation) unscaled, 2% scaled with one sample per
# 20 ms and 8 around each op, and 1% with one per 4 ms and 4 around each op.
EVERY_S = 0.004
BURST = 10
# An op is scaled by the median of the WINDOW samples before it and the
# WINDOW samples after it, widened to the whole bursts on either side, so a
# long op gets as many samples as it spans sampling periods (up to BURST).
WINDOW = 2
SETUP_SAMPLES = 200
# A cli op, a subprocess that mostly imports modules, moves with the host's
# speed by about half as much as the kernel does, in log terms: over 20 cli
# runs the standard deviation of log p50 was 0.098 unscaled, 0.074 with the
# full factor and 0.045 with its square root.
SUBPROCESS_ELASTICITY = 0.5

_GENERATOR = np.array([
    [-1.0, 0.2, 0.1, 0.0],
    [0.1, -2.0, 0.0, 0.3],
    [0.0, 0.1, -0.5, 0.2],
    [0.3, 0.0, 0.1, -1.0],
])


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel() -> float:
    """Fixed work of about REFERENCE_S seconds; the result only defeats elision."""
    acc = 0.0
    table = {}
    for k in range(10):
        m = np.array([[1.0, 0.1j * k, 0.0], [-0.1j * k, 2.0, 0.0], [0.0, 0.0, 3.0]])
        acc += float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]) + float(np.abs(m).sum())
        y = np.ones(4)
        k1 = _GENERATOR @ y
        k2 = _GENERATOR @ (y + 0.005 * k1)
        acc += float(np.max(np.abs(k2 - k1)))
        for j in range(10):
            pair = _Pair(j, str(j))
            table[(k, j)] = pair
            acc += math.exp(-0.01 * pair.a)
    return acc


class Speed:
    """Kernel samples of one run, and the rescaling of op times by them."""

    def __init__(self, elasticity: float = 1.0):
        """elasticity: the power of the speed factor that ops are scaled by."""
        self.elasticity = elasticity
        self.at: list = []
        self.took: list = []
        self.burst: list = []  # index of the tick() that took each sample
        self._last = -math.inf
        self._bursts = 0
        kernel()  # warm-up: first-call costs are not machine speed

    def sample(self) -> None:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        kernel()
        self.took.append(time.thread_time() - cpu_start)
        self.at.append(start)
        self.burst.append(self._bursts)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """One sample per EVERY_S seconds since the last, at most BURST.

        Sampling is so about as dense in time around a one-second op as
        around a one-millisecond one.
        """
        since = time.perf_counter() - self._last
        for _ in range(BURST if since >= BURST * EVERY_S else int(since / EVERY_S)):
            self.sample()
        self._bursts += 1

    def median(self) -> float:
        return statistics.median(self.took)

    def pace(self, first: int) -> float:
        """The speed factor over the samples from index `first` on."""
        return (REFERENCE_S / statistics.median(self.took[first:])) ** self.elasticity

    def factor_at(self, t: float) -> float:
        """REFERENCE_S over the local median kernel time at time t, to the elasticity."""
        j = bisect.bisect(self.at, t)
        lo, hi = max(0, j - WINDOW), min(len(self.at), j + WINDOW)
        while 0 < lo < j and self.burst[lo - 1] == self.burst[j - 1]:
            lo -= 1
        while j < hi < len(self.at) and self.burst[hi] == self.burst[j]:
            hi += 1
        return (REFERENCE_S / statistics.median(self.took[lo:hi])) ** self.elasticity

    def scale(self, starts: list, times: list) -> list:
        """Each op's time, scaled to REFERENCE_S speed at its start."""
        return [d * self.factor_at(t) for t, d in zip(starts, times)]
