"""Calibrated time: CPU seconds scaled by a reference kernel timed alongside.

On a shared host the same Python arithmetic runs at different speeds from
one second to the next.  A fixed kernel of `fractions.Fraction` and mpmath
work, which touches no `openwaring` code and so cannot be moved by a change
to the program, is run from an interval timer all through the run.
An interval of the benchmark's CPU time is worth ``T_REF / T_kernel``
calibrated seconds, where ``T_kernel`` is the mean kernel time sampled in
and around that interval.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

#: median kernel CPU time on the reference host (see README.md)
T_REF = 0.0045

#: seconds between kernel samples.  The timer is a wall-clock one: while a
#: process-wide CPU timer is armed, Linux reads the process CPU clock only
#: at scheduler ticks (4 ms steps here), too coarse to time one operation.
INTERVAL = 0.05

#: CPU seconds on each side of an interval whose samples also count
WINDOW = 0.5


def kernel() -> None:
    """Fixed mixed workload: rational sums and 256-bit complex products."""
    acc = Fraction(0)
    for i in range(1, 90):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    with mpmath.workprec(256):
        z = mpc(mpf(1) / 3, mpf(2) / 7)
        w = mpc(0)
        for i in range(1, 120):
            w = w * z + mpf(i) / 11
            if abs(w) > 1000:
                w = w / 1000


class Calibrator:
    """Samples the kernel every `INTERVAL` seconds from SIGALRM.

    `cpu()` is the process CPU time less the time spent in the kernel, so
    intervals measured with it exclude the samples taken inside them.
    `now_ns()` is the same for the wall clock, for trace spans.
    """

    def __init__(self):
        self.stamps = []    # cpu() at each sample
        self.kernels = []   # kernel CPU seconds of each sample
        self.kernel_cpu = 0.0
        self.kernel_ns = 0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_):
        w0 = time.perf_counter_ns()
        t0 = time.process_time()
        kernel()
        t1 = time.process_time()
        self.stamps.append(t0 - self.kernel_cpu)
        self.kernels.append(t1 - t0)
        self.kernel_cpu += t1 - t0
        self.kernel_ns += time.perf_counter_ns() - w0

    def cpu(self) -> float:
        while True:
            k = self.kernel_cpu
            t = time.process_time() - k
            if k == self.kernel_cpu:
                return t

    def now_ns(self) -> int:
        return time.perf_counter_ns() - self.kernel_ns

    def factor(self, start: float, end: float) -> float:
        """T_REF over the mean kernel time sampled in [start, end], widened
        by `WINDOW` on each side (timestamps from `cpu()`)."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW)
        hi = bisect.bisect_right(self.stamps, end + WINDOW)
        if hi <= lo:
            lo, hi = max(0, lo - 1), min(len(self.stamps), lo + 1)
        ks = self.kernels[lo:hi]
        return T_REF * len(ks) / sum(ks)

    def calibrated(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
