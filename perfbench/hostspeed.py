"""How fast the host runs interpreted Python, sampled while the benchmark runs.

On a shared host, interpreted Python can run about 1.6 times slower for
seconds or minutes at a time, and a run of 20 s can spend any share of its
time in that state.  A fixed reference loop, timed from a SIGALRM handler
every INTERVAL_S while an op runs, shows the state the op ran in.

The handler runs the loop twice and keeps the second time: the first run
warms the caches the interrupted op left cold, so the kept time follows the
host's state rather than the op's memory use.

An op's host-scaled time is its wall time times the mean of REFERENCE_S / r
over the reference times r taken during it: the time the op would have
taken with the reference loop running in REFERENCE_S throughout.  It moves
with the op's own speed, as a wall time does, but not with the host's.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.02
# The unit of host-scaled seconds.  It is the reference loop's mean time,
# weighted by op time, over 15 runs of the three interpreted workloads on a
# shared 2-CPU x86-64 VM with Python 3.11.7 (30 to 35 us in its fastest
# state), so that host-scaled seconds there come out near wall seconds.
# It must not change between the commits being compared.
REFERENCE_S = 52e-6


def _reference() -> int:
    d: dict[int, int] = {}
    s = 0
    for i in range(300):
        j = i & 31
        d[j] = d.get(j, 0) + i
        s += i * i % 7
    return s


class HostSpeed:
    """Reference times (seconds) and the time the sampling itself took."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def sample(self, *_):
        t0 = perf_counter()
        _reference()
        t1 = perf_counter()
        _reference()
        t2 = perf_counter()
        self.samples.append(t2 - t1)
        self.busy += t2 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.busy, perf_counter()

    def since(self, mark) -> dict:
        """Wall seconds since mark, less the sampling, and host-scaled seconds.
        A span too short to be sampled takes the sample just after it."""
        i0, busy0, t0 = mark
        s = perf_counter() - t0 - (self.busy - busy0)
        if len(self.samples) == i0:
            self.sample()
        refs = self.samples[i0:]
        return {"s": s, "host_s": s * REFERENCE_S * sum(1 / r for r in refs) / len(refs)}
