"""Shared pieces of the benchmark: results, statistics, set-up timing.

Every workload module exposes ``run(seed, seconds, trace) -> Outcome``.
An :class:`Outcome` carries the end-to-end metrics (untraced runs), the
per-layer metrics (traced runs), the attempted/failed operation counts
and the workload's content digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Working space for the service's state directory and the span JSON;
#: inside the checkout and listed in ``.gitignore``.
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: Dict[str, float] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    #: Human-readable lines printed ahead of the JSON result line.
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = value
        self.units[name] = unit

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_metrics(out: Outcome, latencies_s: List[float], slo_s: float,
                    misses: int = 0) -> None:
    """p50/p95 latency and SLO share over per-operation latencies.

    *misses* counts failed or rejected operations; they have no latency
    and count against the SLO.
    """
    out.put("latency_p50_ms", quantile(latencies_s, 0.50) * 1e3, "ms")
    out.put("latency_p95_ms", quantile(latencies_s, 0.95) * 1e3, "ms")
    slo_metric(out, latencies_s, slo_s, misses)


def slo_metric(out: Outcome, latencies_s: List[float], slo_s: float,
               misses: int = 0) -> None:
    met = sum(1 for value in latencies_s if value <= slo_s)
    out.put("slo_met_ratio", met / (len(latencies_s) + misses), "ratio")


def peak_rss_mb(children: int = 0) -> float:
    """Peak resident set of this process, plus *children* workers.

    The kernel reports the largest peak among reaped children, so the
    workers' share is that peak times the worker count.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def import_program() -> None:
    """A fresh interpreter imports the program's packages (set-up cost)."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import repro.experiments.harness, repro.service.service"
    )
    subprocess.run([sys.executable, "-c", code, SRC], check=True,
                   cwd=ROOT, stdout=subprocess.DEVNULL)


def median_setup(prepare, speed, repeats: int = SETUP_REPEATS):
    """Run *prepare* ``repeats`` times; returns (median seconds, last value).

    Each set-up is a fresh interpreter importing the program plus one
    call of *prepare*, which builds the workload's state up to its first
    timed operation.  Earlier states are discarded via their ``close``
    method when they have one.
    """
    times = []
    state = None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
        with timed_setup(speed, times):
            state = prepare()
    return statistics.median(times), state


@contextlib.contextmanager
def timed_setup(speed, times: List[float]):
    """Time one set-up -- a fresh interpreter importing the program, then
    the block -- in reference seconds, appending it to *times*.

    *speed* is a running :class:`~perfbench.speed.SpeedProbe`.  It probes
    right before and after (nothing else of the benchmark runs then),
    not while the child process runs, and its probes inside the block
    are left out of the time.
    """
    speed.sample()
    probing = speed.probe_s
    started = time.monotonic()
    with speed.paused():
        import_program()
    yield
    ended = time.monotonic()
    probing = speed.probe_s - probing
    speed.sample()
    times.append(speed.reference_seconds(started, ended, probing))


def content_digest(payload) -> str:
    """sha256 of a canonical JSON rendering of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def array_digest(value) -> str:
    """Digest of one array's dtype, shape and bytes (as job results use)."""
    import numpy as np

    h = hashlib.sha256()
    h.update(str(value.dtype).encode())
    h.update(str(value.shape).encode())
    h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def result_line(out: Optional[Outcome], correct: bool) -> str:
    """The JSON object the benchmark prints as its last line."""
    metrics = {}
    if out is not None:
        metrics = {
            name: {"value": value, "unit": out.units[name]}
            for name, value in out.metrics.items()
        }
    return json.dumps({
        "correct": correct,
        "attempted": out.attempted if out else 0,
        "failed": out.failed if out else 0,
        "metrics": metrics,
    })
