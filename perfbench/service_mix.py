"""Workload ``service_mix``: an open-loop job stream into the service.

Seeded Poisson arrivals at :data:`RATE` jobs/s (about 40% of the
capacity of two workers) go to an in-process
``CampaignService(workers=2, state_dir=...)``: a process pool with the
write-ahead journal and the persistent result store turned on.  Each
request is timed from when it was due, so a stall also delays the
requests behind it.

The mix:

* 60% COMP-optimized ``run`` jobs: recurring affine templates with
  fresh inputs (a fresh input seed per job);
* 20% un-optimized ``run`` jobs over the same templates;
* 10% exact repeats of an earlier request (store hits, or coalesced
  onto the execution still in flight);
* 10% fault-campaign cells of the workloads whose cell costs under
  about 50 ms (a 2.5 s CG or bfs cell would set the tail alone).

The classes, templates and fault workloads are dealt from shuffled
cycles, so every seed offers the same mix.  An untimed warm-up with a
different seed first fills each worker's memos: fault baselines and the
codegen kernel cache.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import statistics
import time
from typing import List, Optional

import numpy as np

from perfbench import tracing
from perfbench.common import (
    SETUP_REPEATS, WORK_DIR, Outcome, array_digest, content_digest, geomean,
    peak_rss_mb, quantile, slo_metric, timed_setup,
)
from perfbench.speed import SpeedProbe

WORKERS = 2
#: Offered load, jobs per second.  At 50 jobs/s (half of capacity) the
#: main process and two workers on two cores had so little slack that
#: outside load showed up as queueing: p95 spread 36% over 5 runs,
#: against 6% at 40 jobs/s.
RATE = 40.0
#: A request slower than this, from when it was due, misses the limit.
SLO_S = 0.05
#: The timed phase is cut into this many equal slices; the latency
#: percentiles and ``wall_s`` are medians over the slices.
WINDOWS = 10

#: name -> (loop body, array names read, array written, lanes).  Each
#: body is one float32 operation per element, so numpy reproduces the
#: interpreter's results bit for bit.
TEMPLATES = {
    "scale": ("B[i] = A[i] * 2.0;", ("A",), "B", 4096),
    "offset": ("B[i] = A[i] + 3.0;", ("A",), "B", 8192),
    "add": ("C[i] = A[i] + B[i];", ("A", "B"), "C", 4096),
    "square": ("B[i] = A[i] * A[i];", ("A",), "B", 2048),
}

FAULT_WORKLOADS = ("cfd", "dedup", "freqmine", "hotspot", "srad",
                   "streamcluster")
#: Input seed of every fault cell; the scenario index varies instead, so
#: the workers' fault baselines stay warm.
FAULT_INPUT_SEED = 0

#: One cycle of request classes, shuffled anew for every 20 requests:
#: 60% optimized runs, 20% un-optimized runs, 10% repeats, 10% faults.
#: Dealing whole cycles (and whole cycles of templates and fault
#: workloads) keeps the mix the same for every seed.
MIX = ("opt",) * 12 + ("unopt",) * 4 + ("repeat",) * 2 + ("fault",) * 2


class Deck:
    """Deals *items* in a fresh seeded shuffle per cycle."""

    def __init__(self, items, rng) -> None:
        self.items, self.rng, self.hand = list(items), rng, []

    def deal(self):
        if not self.hand:
            self.hand = [self.items[i]
                         for i in self.rng.permutation(len(self.items))]
        return self.hand.pop()


def template_source(name: str) -> str:
    body, reads, written, n = TEMPLATES[name]
    clauses = " ".join(f"in({a} : length({n}))" for a in reads)
    return (
        "void main() {\n"
        f"#pragma offload target(mic:0) {clauses} in(n) "
        f"out({written} : length({n}))\n"
        "#pragma omp parallel for\n"
        f"    for (int i = 0; i < n; i++) {{ {body} }}\n}}\n"
    )


def run_spec(name: str, seed: int, optimize: bool):
    from repro.service.jobs import JobSpec

    _, reads, written, n = TEMPLATES[name]
    arrays = tuple(f"{a}={n}:float:random" for a in reads)
    return JobSpec(
        kind="run", source=template_source(name),
        arrays=arrays + (f"{written}={n}:float:zeros",),
        scalars=(f"n={n}",), optimize=optimize, seed=seed,
    )


def fault_spec(workload: str, scenario: int):
    from repro.service.jobs import JobSpec

    return JobSpec(kind="faults", workload=workload, variant="opt",
                   scenario=scenario, seed=FAULT_INPUT_SEED)


def expected_outputs(name: str, seed: int, corrupt: bool = False) -> dict:
    """Digests of every host array after a template run, from numpy."""
    body, reads, written, n = TEMPLATES[name]
    rng = np.random.default_rng(seed)
    arrays = {a: (rng.random(n) * 100).astype(np.float32) for a in reads}
    A = arrays["A"]
    if name == "scale":
        out = A * np.float32(2.0)
    elif name == "offset":
        out = A + np.float32(3.0)
    elif name == "add":
        out = A + arrays["B"]
    else:
        out = A * A
    arrays[written] = out + np.float32(1.0 if corrupt else 0.0)
    return {a: array_digest(v) for a, v in sorted(arrays.items())}


@dataclasses.dataclass
class Request:
    offset: float
    kind: str
    spec: object
    #: (template, input seed) of a ``run`` request, for the reference.
    template: Optional[tuple] = None
    repeat: bool = False


def requests(seed: int, seconds: float) -> List[Request]:
    """The seeded open-loop schedule: arrival offsets and job specs."""
    rng = np.random.default_rng(seed)
    kinds = Deck(MIX, rng)
    templates = {"opt": Deck(sorted(TEMPLATES), rng),
                 "unopt": Deck(sorted(TEMPLATES), rng)}
    faults = Deck(FAULT_WORKLOADS, rng)
    out: List[Request] = []
    issued: List[Request] = []
    offset = 0.0
    while True:
        offset += rng.exponential(1.0 / RATE)
        if offset >= seconds:
            return out
        kind = kinds.deal()
        if kind == "repeat" and issued:
            src = issued[int(rng.integers(len(issued)))]
            out.append(dataclasses.replace(src, offset=offset, repeat=True))
            continue
        if kind == "fault":
            out.append(Request(offset, "fault", fault_spec(
                faults.deal(), int(rng.integers(1, 1 << 30)))))
            continue
        optimize = kind != "unopt"
        template = templates["opt" if optimize else "unopt"].deal()
        input_seed = int(rng.integers(1, 1 << 62))
        req = Request(offset, "run", run_spec(template, input_seed, optimize),
                      template=(template, input_seed))
        out.append(req)
        issued.append(req)


# -- service lifecycle -----------------------------------------------------------


class Outstanding:
    """Jobs submitted and not finished; the speed probe's busy signal."""

    def __init__(self) -> None:
        self.count = 0

    def submit(self, service, spec):
        job = service.submit(spec)
        self.count += 1
        job.done.add_done_callback(self._finished)
        return job

    def _finished(self, _future) -> None:
        self.count -= 1

    def __call__(self) -> bool:
        return self.count > 0


async def _start(index: int):
    from repro.service.service import CampaignService

    state_dir = os.path.join(WORK_DIR, f"service-{os.getpid()}-{index}")
    shutil.rmtree(state_dir, ignore_errors=True)
    service = CampaignService(workers=WORKERS, state_dir=state_dir)
    await service.start()
    return service, state_dir


async def _warm_up(service, seed: int, outstanding: Outstanding) -> None:
    """Each job class twice at once (one per worker), twice over."""
    rng = np.random.default_rng(seed)
    waves = []
    for _ in range(2):
        for name in sorted(TEMPLATES):
            for optimize in (True, False):
                waves.append([run_spec(name, int(rng.integers(1, 1 << 62)),
                                       optimize) for _ in range(WORKERS)])
        for workload in FAULT_WORKLOADS:
            waves.append([fault_spec(workload, int(rng.integers(1, 1 << 30)))
                          for _ in range(WORKERS)])
    for wave in waves:
        jobs = [outstanding.submit(service, spec) for spec in wave]
        await asyncio.gather(*(job.done for job in jobs))


async def _drive(service, schedule: List[Request], outstanding: Outstanding,
                 traced: bool):
    """Submit each request when due; returns one record per request."""
    from repro.service.queue import AdmissionRejected

    records = []
    t0 = time.monotonic() + 0.05
    for index, req in enumerate(schedule):
        due = t0 + req.offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        if traced:
            tracing.RECORDER.request = index
        submitted = time.monotonic()
        try:
            job = outstanding.submit(service, req.spec)
        except AdmissionRejected:
            job = None
        records.append((req, due, submitted, job))
    jobs = [job for _, _, _, job in records if job is not None]
    await asyncio.gather(*(job.done for job in jobs), return_exceptions=True)
    return records


def _check(records, out: Outcome, corrupt: bool) -> tuple:
    """Correctness gate; returns (content, simulated times per template)."""
    content, sim = [], {}
    for req, _, _, job in records:
        out.attempted += 1
        if job is None or job.state != "done":
            out.failed += 1
            out.notes.append(f"{req.spec.label()}: "
                             f"{'rejected' if job is None else job.error}")
            continue
        result = job.result
        if req.kind == "run":
            template, input_seed = req.template
            good = result["outputs"] == expected_outputs(
                template, input_seed, corrupt)
            key = (template, req.spec.optimize)
            sim.setdefault(key, []).append(result["sim_time"])
        else:
            good = bool(result["ok"])
        if not good:
            out.failed += 1
            if len(out.notes) < 5:
                out.notes.append(f"{req.spec.label()}: wrong result")
        content.append(result)
    return content, sim


def _execute_seconds(records) -> float:
    """Host seconds of execution per 1000 requests."""
    busy = sum(job.finished_wall - job.started_wall
               for _, _, _, job in records
               if job is not None and job.started_wall)
    return busy / len(records) * 1000.0


def _windowed(out: Outcome, records, budget: float, speed) -> None:
    """The timing metrics, each a median over :data:`WINDOWS` slices.

    Each slice is an equal share of the schedule (about 120 requests at
    the default length), converted to reference seconds with the speed
    probes taken during it, so a burst of outside load spoils one slice,
    not the run's figures.  ``slo_met_ratio`` is over all requests.
    """
    width = budget / WINDOWS
    slices = [[] for _ in range(WINDOWS)]
    for record in records:
        slices[min(int(record[0].offset / width), WINDOWS - 1)].append(record)
    p50, p95, walls, latencies = [], [], [], []
    misses = 0
    for part in filter(None, slices):
        first, last = part[0][1], max(
            job.finished_wall for _, _, _, job in part if job is not None)
        scale = speed.scale(first, last)
        walls.append(_execute_seconds(part) * scale)
        done = [(job.finished_wall - due) * scale for _, due, _, job in part
                if job is not None and job.state == "done"]
        misses += len(part) - len(done)
        latencies.extend(done)
        p50.append(quantile(done, 0.50))
        p95.append(quantile(done, 0.95))
    out.notes.append("slices p95 ms: " + " ".join(f"{v * 1e3:.1f}" for v in p95))
    out.put("wall_s", statistics.median(walls), "s")
    out.put("latency_p50_ms", statistics.median(p50) * 1e3, "ms")
    out.put("latency_p95_ms", statistics.median(p95) * 1e3, "ms")
    slo_metric(out, latencies, SLO_S, misses)


def _phase_wall(records, speed) -> float:
    """Execution seconds per 1000 requests, in reference seconds."""
    last = max(job.finished_wall for _, _, _, job in records if job is not None)
    return _execute_seconds(records) * speed.scale(records[0][1], last)


def _service_metrics(records, service, exec_s, journal_before, admits):
    executed = [job for _, _, _, job in records
                if job is not None and job.started_wall]
    waits = [job.started_wall - job.submitted_wall for job in executed]
    runs = [job.finished_wall - job.started_wall for job in executed]
    ipc = [job.finished_wall - job.started_wall - exec_s[job.spec.key_id()]
           for job in executed
           if not job.cached and job.spec.key_id() in exec_s]
    coalesced = 0
    for job in executed:
        while not job.events.empty():
            if job.events.get_nowait()["event"] == "coalesced":
                coalesced += 1
    done = [job for _, _, _, job in records if job is not None]
    journal = service.journal.stats()
    late = [submitted - due for _, due, submitted, _ in records]
    keys = [req.spec.key_sha() for req, _, _, _ in records]
    thousands = len(records) / 1000.0
    seen, repeats = set(), 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return {
        "service.admit_ms": statistics.fmean(admits) * 1e3,
        "service.queue_wait_p50_ms": quantile(waits, 0.5) * 1e3,
        "service.queue_wait_p95_ms": quantile(waits, 0.95) * 1e3,
        "service.execute_p50_ms": quantile(runs, 0.5) * 1e3,
        "service.ipc_overhead_ms": statistics.fmean(ipc) * 1e3 if ipc else 0.0,
        "service.store_hit_ratio":
            sum(job.cached for job in done) / len(records),
        "service.coalesced": coalesced / thousands,
        "service.journal_appends":
            (journal["appends"] - journal_before[0]) / thousands,
        "service.journal_fsyncs":
            (journal["fsyncs"] - journal_before[1]) / thousands,
        "service.rejected": (len(records) - len(done)) / thousands,
        "service.generator_late_p95_ms": quantile(late, 0.95) * 1e3,
        "service.repeat_source_ratio": repeats / len(records),
    }


async def _main(seed: int, seconds: float, trace: bool, corrupt: bool,
                out: Outcome, speed) -> None:
    setups = []
    service = state_dir = None
    outstanding = speed.busy = Outstanding()
    try:
        for index in range(SETUP_REPEATS):
            if service is not None:
                await service.close()
                shutil.rmtree(state_dir, ignore_errors=True)
            with timed_setup(speed, setups):
                service, state_dir = await _start(index)
                await _warm_up(service, seed + 7919, outstanding)

        budget = seconds / 2 if trace else seconds
        records = await _drive(service, requests(seed, budget), outstanding,
                               traced=False)
        content, sim = _check(records, out, corrupt)
        out.digest = content_digest(content)
        if trace:
            await _traced_phase(service, seed, budget, corrupt, out, speed,
                                outstanding, _phase_wall(records, speed))
            return
        out.put("setup_s", statistics.median(setups), "s")
        _windowed(out, records, budget, speed)
        ratios = [statistics.median(sim[(t, False)]) /
                  statistics.median(sim[(t, True)])
                  for t in TEMPLATES if (t, False) in sim and (t, True) in sim]
        out.put("sim_speedup_geomean", geomean(ratios), "x")
        host = [job.finished_wall - due for _, due, _, job in records
                if job is not None and job.state == "done"]
        out.notes.append(f"requests {len(records)}; host seconds p50/p95 "
                         f"{quantile(host, 0.5):.4f}/{quantile(host, 0.95):.4f}")
    finally:
        if service is not None:
            await service.close()
            shutil.rmtree(state_dir, ignore_errors=True)
    out.put("peak_rss_mb", peak_rss_mb(children=WORKERS), "MB")


async def _traced_phase(service, seed, budget, corrupt, out, speed,
                        outstanding, untraced_wall):
    """The same mix under tracing, on a fresh schedule (seed + 1)."""
    rec = tracing.RECORDER
    traced = tracing.ServiceTracing().install()
    rec.reset()
    speed.recorder = rec
    journal = service.journal.stats()
    try:
        records = await _drive(service, requests(seed + 1, budget),
                               outstanding, traced=True)
    finally:
        speed.recorder = None
        traced.remove()
    admits = [rec_span[5] - rec_span[4] for rec_span in rec.spans
              if rec_span[2] == "service.admit"]
    _check(records, out, corrupt)
    svc = _service_metrics(records, service, traced.exec_s,
                           (journal["appends"], journal["fsyncs"]), admits)
    # The service spans tile each request from its submission to its
    # completion; what stays unattributed is the generator's lateness.
    late = 0.0
    for index, (req, due, submitted, job) in enumerate(records):
        late += submitted - due
        if job is None or not job.started_wall:
            continue
        rec.add_span("service.queue", "service", job.submitted_wall,
                     job.started_wall, request=index)
        dispatched = traced.exec_s.get(job.spec.key_id())
        if dispatched is not None and not job.cached:
            ipc = job.finished_wall - job.started_wall - dispatched
            rec.add_span("service.ipc", "service", job.finished_wall - ipc,
                         job.finished_wall, request=index)
        else:
            rec.add_span("service.wait_inflight", "service",
                         job.started_wall, job.finished_wall, request=index)
    requested = sum(job.finished_wall - due
                    for _, due, _, job in records if job is not None)
    tracing.report(
        out, rec, svc, _phase_wall(records, speed) / untraced_wall,
        late / requested, tracing.output_path("service_mix", seed),
        {"workload": "service_mix", "seed": seed},
        units=len(records) / 1000.0,
    )


def run(seed: int, seconds: float, trace: bool, corrupt: bool = False) -> Outcome:
    out = Outcome()
    with SpeedProbe(every_cpu=True) as speed:
        asyncio.run(_main(seed, seconds, trace, corrupt, out, speed))
    return out
