"""Workload ``paper_suite``: the paper's evaluation, one pass at a time.

Closed loop, one caller.  Each pass builds a fresh
``SuiteRunner(engine="auto")`` and calls ``.run_suite()`` over all 12
Table II workloads x cpu/mic/opt (36 cells), so every program is parsed,
COMP-compiled and interpreted once per pass.

The inputs are each workload's fixed default inputs -- the fixed input
set the paper's Fig. 10 reports against.  The benchmark seed permutes
the order the 12 workloads run in.  (Seeded inputs change the work
itself: bfs's random graph alone moves a pass between 12.9 s and 16.5 s
over seeds 1-3, which would bury any code change in input variance.)
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time

from perfbench import tracing
from perfbench.common import (
    Outcome, array_digest, content_digest, geomean, latency_metrics,
    median_setup, peak_rss_mb,
)
from perfbench.speed import SpeedProbe

#: A pass slower than this misses the workload's latency limit.
SLO_S = 20.0


def _order(seed: int):
    from repro.workloads.suite import workload_names

    names = workload_names()
    random.Random(seed).shuffle(names)
    return names


def _prepare():
    from repro.experiments.harness import SuiteRunner

    return SuiteRunner(engine="auto")


def _pass(names, speed):
    """One pass; returns (reference seconds, host seconds, results)."""
    from repro.experiments.harness import SuiteRunner

    runner = SuiteRunner(engine="auto")
    probing = speed.probe_s
    started = time.monotonic()
    results = runner.run_suite(names)
    ended = time.monotonic()
    probing = speed.probe_s - probing
    return (speed.reference_seconds(started, ended, probing),
            ended - started - probing, results)


def _content(results, corrupt: bool) -> tuple:
    """(per-cell content, benchmarks whose outputs disagree)."""
    cells = {}
    bad = []
    for name in sorted(results):
        bench = results[name]
        if corrupt:
            cpu = bench.runs["cpu"].outputs
            for key in cpu:
                cpu[key] = cpu[key] + 1.0
        if not bench.outputs_match():
            bad.append(name)
        for variant, run in sorted(bench.runs.items()):
            cells[f"{name}/{variant}"] = {
                "sim_time": run.time,
                "ops": dataclasses.asdict(run.stats.ops),
                "outputs": {k: array_digest(v)
                            for k, v in sorted(run.outputs.items())},
            }
    return cells, bad


def run(seed: int, seconds: float, trace: bool, corrupt: bool = False) -> Outcome:
    out = Outcome()
    names = _order(seed)
    budget = seconds / 2 if trace else seconds
    with SpeedProbe() as speed:
        setup_s, _ = median_setup(_prepare, speed)

        def passes(label):
            walls, raw, digests = [], [], set()
            speedup = None
            started = time.monotonic()
            while not walls or time.monotonic() - started < budget:
                wall, host, results = _pass(names, speed)
                walls.append(wall)
                raw.append(host)
                cells, bad = _content(results, corrupt)
                out.attempted += len(results)
                out.failed += len(bad)
                for name in bad:
                    out.notes.append(f"{label}: {name} outputs differ "
                                     f"across cpu/mic/opt")
                digests.add(content_digest(cells))
                speedup = geomean([b.opt_speedup for b in results.values()])
            if len(digests) != 1:
                out.failed += 1
                out.notes.append(f"{label}: passes disagree on content")
            out.digest = sorted(digests)[0]
            out.notes.append(f"{label} passes, host seconds: "
                             + " ".join(f"{w:.3f}" for w in raw)
                             + "; reference seconds: "
                             + " ".join(f"{w:.3f}" for w in walls))
            return walls, speedup

        untraced, speedup = passes("untraced")
        if not trace:
            out.put("setup_s", setup_s, "s")
            out.put("wall_s", statistics.median(untraced), "s")
            latency_metrics(out, untraced, SLO_S)
            out.put("sim_speedup_geomean", speedup, "x")
            out.put("peak_rss_mb", peak_rss_mb(), "MB")
            return out

        patches = tracing.Patches().install()
        rec = tracing.RECORDER
        rec.reset()
        speed.recorder = rec
        try:
            frame = rec.enter("bench.pass", "bench")
            try:
                traced, _, results = _pass(names, speed)
            finally:
                rec.exit(frame, True)
        finally:
            speed.recorder = None
            patches.remove()
    cells, bad = _content(results, corrupt)
    out.attempted += len(results)
    out.failed += len(bad)
    if content_digest(cells) != out.digest:
        out.failed += 1
        out.notes.append("traced pass disagrees with untraced content")
    tracing.report(
        out, rec, None, traced / statistics.median(untraced),
        rec.self_by_layer["bench"] / rec.total_s["bench.pass"],
        tracing.output_path("paper_suite", seed),
        {"workload": "paper_suite", "seed": seed},
    )
    return out
