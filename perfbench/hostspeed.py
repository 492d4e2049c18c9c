"""Host-speed meter: turns measured seconds into reference seconds.

On a shared VM the same single-threaded Python code runs up to twice as
fast at one moment as at the next, and the whole process slows, not only
its wall clock: CPU time moves with it and no run-queue wait shows.  Runs
of the same code then spread by a quarter or more, as much as any bound a
regression check could use.

So while a run is measured, a timer signal interrupts it every INTERVAL_S
and runs a fixed probe, a small pure-Python kernel that lives here and does
not change with the program.  The probe's time tracks the host's speed at
that moment.  One probe is noisy, so the speed of a stretch between two
probes is the mean over the WINDOW probes on either side.

`Meter.clock(t)` maps a `time.perf_counter()` reading onto a reference
clock.  The clock runs at PROBE_REF_S / (mean probe time) of real time, and
stands still while a probe runs, so probing adds nothing to the work it
interrupts.  A duration on the reference clock is the time the work would
have taken on a host where the probe takes exactly PROBE_REF_S.  The
program's own speed-ups and slow-downs pass through unchanged, because the
probe does not call the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

now = time.perf_counter

# Seconds one probe takes on the reference host: about the median probe
# time on a shared 2-core x86-64 VM under CPython 3.11.  Reference seconds
# are seconds on that host at that speed.
PROBE_REF_S = 0.9e-3
# Seconds between probes; a probe takes about 1 ms, so probing costs about
# 1% of a run.
INTERVAL_S = 0.1
# The speed of a stretch is the mean over this many probes on either side of
# it: two seconds of probes.
WINDOW = 10

# The probe multiplies a dense polynomial in three variables, held as a dict
# from exponent tuples to int coefficients, and reduces the product's
# coefficients modulo a prime: the dict, tuple and integer work the
# program's expansion, enumeration and field arithmetic are made of.
_POLY = {(i, j, k): i * 7 + j * 3 - k - 5
         for i in range(4) for j in range(4) for k in range(3)}
_PRIME = 1_000_003


def probe() -> float:
    """Seconds for one run of the fixed kernel."""
    t0 = now()
    product: dict = {}
    for (a0, a1, a2), ca in _POLY.items():
        for (b0, b1, b2), cb in _POLY.items():
            m = (a0 + b0, a1 + b1, a2 + b2)
            product[m] = product.get(m, 0) + ca * cb
    sum(c * c % _PRIME for c in product.values())
    return now() - t0


class Meter:
    """Probes taken through a run, and the reference clock they give.

    Use it as a context manager around everything that is to be timed; the
    clock can be read only after it has stopped.  Its SIGALRM handler stays
    installed afterwards but does nothing, so that a signal already on its
    way when the timer stops cannot end the process."""

    def __init__(self):
        self.starts: list[float] = []  # when each probe began
        self.ends: list[float] = []  # when it ended
        self.probe_s: list[float] = []  # how long it took
        self._ref: list[float] = []  # the reference clock at each end
        self._rate: list[float] = []  # its rate after each end
        self._running = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._running = False
        self._sample()
        self._build()

    def _on_alarm(self, signum, frame) -> None:
        if self._running:
            self._sample()

    def _sample(self) -> None:
        start = now()
        p = probe()
        self.starts.append(start)
        self.ends.append(now())
        self.probe_s.append(p)

    def _build(self) -> None:
        n = len(self.probe_s)
        sums = [0.0]
        for p in self.probe_s:
            sums.append(sums[-1] + p)
        self._ref = [0.0]
        self._rate = []
        for k in range(n - 1):
            lo, hi = max(0, k + 1 - WINDOW), min(n, k + 1 + WINDOW)
            rate = PROBE_REF_S * (hi - lo) / (sums[hi] - sums[lo])
            self._rate.append(rate)
            self._ref.append(
                self._ref[-1] + (self.starts[k + 1] - self.ends[k]) * rate)

    def clock(self, t: float) -> float:
        """The reference clock at perf_counter reading `t`, which must lie
        between the first probe's end and the last probe's start."""
        k = bisect.bisect_right(self.ends, t) - 1
        if k < 0 or k + 1 >= len(self.ends):
            raise ValueError(f"time {t} lies outside the probed stretch")
        if t >= self.starts[k + 1]:  # inside the next probe
            return self._ref[k + 1]
        return self._ref[k] + (t - self.ends[k]) * self._rate[k]

    def ref_s(self, start: float, end: float) -> float:
        """Reference seconds between two perf_counter readings."""
        return self.clock(end) - self.clock(start)

    def probing_s(self) -> float:
        """Real seconds spent in probes."""
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def quartiles_s(self) -> list[float]:
        """Quartiles of the probe times."""
        return statistics.quantiles(self.probe_s, n=4)
