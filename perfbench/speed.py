"""Machine-speed calibration: timings in reference seconds.

On a shared machine the CPU's speed drifts by tens of percent over
seconds (measured while building this benchmark: a fixed pure-Python
loop took 14-22 ms from one second to the next, and a kernel round
drifted from 41 ms to 61 ms within 40 s). Timing the program alone
would measure the neighbours.

So every timed phase runs under a :class:`SpeedProbe`: a ``SIGALRM``
timer runs a fixed, benchmark-owned pure-Python loop (:func:`probe`)
every :data:`INTERVAL_S`, and a host interval is converted to
*reference seconds* by the ratio :data:`REFERENCE_S` / (median probe
duration over the interval).  A reference second is a second at the
speed where the probe takes :data:`REFERENCE_S`.  The probe never calls
the program, so a program change moves the program's time and not the
scale.  Raw host seconds are printed alongside.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import time
from typing import Callable, List, Tuple

#: Probe duration at reference speed (this machine's quiet speed).
REFERENCE_S = 0.002
#: Seconds between probes (about 1% of the time goes to probing).
INTERVAL_S = 0.25
_ITERATIONS = 30000


def probe() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    started = time.monotonic()
    total = 0
    for i in range(_ITERATIONS):
        total += i * i % 7
    return time.monotonic() - started


def _probe_on(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    return probe()


class SpeedProbe:
    """Samples machine speed on a timer while the context is open.

    ``probe_s`` accumulates the time spent probing, so closed-loop
    callers can take it out of the intervals they time.

    The machine's two vCPUs slow each other down: a probe that runs
    while another process of the benchmark computes reads about twice
    as slow.  So the timer skips its probe while :attr:`busy` says the
    benchmark's own processes are working, and :meth:`paused` stops it
    around a child process.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.probe_s = 0.0
        #: A :class:`~perfbench.tracing.Recorder` during traced phases:
        #: probes then show as spans of their own layer.
        self.recorder = None
        #: Returns True while other processes of the benchmark compute.
        self.busy: Callable[[], bool] = lambda: False
        #: Probe each CPU in turn and keep the mean: for work spread over
        #: worker processes on every CPU, whose neighbours differ.
        self.every_cpu = every_cpu
        self.cpus = sorted(os.sched_getaffinity(0))
        self._saved = None

    def sample(self) -> None:
        rec = self.recorder
        frame = rec.enter("probe", "probe") if rec is not None else None
        if self.every_cpu:
            duration = statistics.fmean(_probe_on(cpu) for cpu in self.cpus)
            os.sched_setaffinity(0, self.cpus)
        else:
            duration = probe()
        if frame is not None:
            rec.exit(frame, False)
        self.samples.append((time.monotonic(), duration))
        self.probe_s += duration * (len(self.cpus) if self.every_cpu else 1)

    def _tick(self, signum, frame) -> None:
        if not self.busy():
            self.sample()

    @contextlib.contextmanager
    def paused(self):
        """No timer probes inside the block (a child process runs)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``.

        Uses the probes inside the interval; for an interval shorter
        than the probe period, the two probes on either side.
        """
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi == lo:
            lo, hi = max(lo - 1, 0), hi + 1
        window = [d for _, d in self.samples[lo:hi]]
        return REFERENCE_S / statistics.median(window)

    def reference_seconds(self, start: float, end: float,
                          probing: float = 0.0) -> float:
        """``end - start`` less *probing* seconds, in reference seconds."""
        return (end - start - probing) * self.scale(start, end)
