"""A clock in reference seconds, steady against changes in host speed.

On a shared host other tenants slow this process by up to about 1.7x for
seconds to minutes at a time: a fixed stdlib loop measured 11 to 21 ms in
consecutive 2-second windows on a 2-core VM, with no CPU steal reported.
Wall times of whole batches then spread by a third across runs.

`HostClock` runs a fixed stdlib reference computation every INTERVAL_S of
wall time, from a SIGALRM handler in the calling thread, and counts each
slice of wall time since the previous probe scaled by REFERENCE_S / (the
probe's duration).  Work that would take t seconds on the host at the
speed where the probe takes REFERENCE_S reads about t at any host speed,
to the extent that the probe and the work slow down alike.  The probes'
own time is not counted.  Nothing here depends on secantinv, so the scale
is the same for every version of the program.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
# The probe's median duration on the 2-core VM the baseline was taken on.
REFERENCE_S = 0.0009


def reference() -> Fraction:
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    return total


class HostClock:
    """Use as a context manager; `now()` reads reference seconds."""

    def __init__(self):
        self._total = 0.0
        self._scale = 1.0
        self._last = 0.0

    def __enter__(self) -> "HostClock":
        self._last = time.perf_counter()
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        scale = REFERENCE_S / (end - start)
        # The slice since the previous probe runs at the mean of the speeds
        # measured at its two ends.
        self._total += (start - self._last) * (self._scale + scale) / 2
        self._scale = scale
        self._last = end

    def now(self) -> float:
        # Block the probe while reading, so the two fields agree.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._total + (time.perf_counter() - self._last) * self._scale
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
