"""Traced runs: spans around each layer's public functions.

The benchmark patches every layer entry point *where its caller looks
the name up* (``repro.transforms.pipeline.apply_streaming``,
``repro.runtime.codegen.try_run_parallel_for``, ...) with a wrapper
that records a span: name, layer, start, end, parent and request id.
Nothing in the program changes; the patches are removed when the traced
phase ends.

Self time is computed online: each open span accumulates the durations
of its direct children, and on exit its duration minus that sum is
booked to its layer and to its own name.  High-frequency boundaries
(simulator scheduling, the vector tiers) are kept as aggregates only;
the other spans are also kept individually and written to JSON.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.service import jobs as _jobs

#: Layers a span can belong to.  ``bench`` is the benchmark's own root
#: span per operation; its self time is the unattributed time.
#: ``probe`` is the machine-speed probe (see :mod:`perfbench.speed`).
LAYERS = ("minic", "analysis", "transforms", "runtime", "hardware",
          "faults", "service", "probe", "bench")


class Recorder:
    """Span and counter store of one process (one thread records)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.self_by_name: Dict[str, float] = defaultdict(float)
        self.self_by_layer: Dict[str, float] = defaultdict(float)
        self.request: object = None
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()

    def enter(self, name: str, layer: str) -> list:
        parent = self.stack[-1][4] if self.stack else None
        frame = [name, layer, time.monotonic(), 0.0, next(self._ids), parent]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, keep: bool) -> None:
        end = time.monotonic()
        name, layer, start, children, span_id, parent = frame
        duration = end - start
        self.stack.pop()
        self.self_by_layer[layer] += duration - children
        self.self_by_name[name] += duration - children
        self.total_s[name] += duration
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][3] += duration
        if keep:
            self.spans.append(
                (span_id, parent, name, layer, start, end, self.request)
            )

    def add_span(self, name: str, layer: str, start: float, end: float,
                 request=None, parent=None) -> None:
        """Book a span measured elsewhere (service job timestamps)."""
        duration = end - start
        self.self_by_layer[layer] += duration
        self.self_by_name[name] += duration
        self.total_s[name] += duration
        self.calls[name] += 1
        self.spans.append(
            (next(self._ids), parent, name, layer, start, end, request)
        )

    def export(self) -> dict:
        """A picklable summary (workers send this back with each job)."""
        return {
            "pid": os.getpid(),
            "spans": list(self.spans),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "self_by_name": dict(self.self_by_name),
            "self_by_layer": dict(self.self_by_layer),
        }

    def merge(self, data: dict) -> None:
        """Fold a worker's :meth:`export` into this recorder."""
        for key in ("total_s", "calls", "counts", "self_by_name",
                    "self_by_layer"):
            mine = getattr(self, key)
            for name, value in data[key].items():
                mine[name] += value
        pid = data["pid"]
        self.spans.extend(
            (f"{pid}:{s[0]}", f"{pid}:{s[1]}" if s[1] else None) + s[2:]
            for s in data["spans"]
        )


RECORDER = Recorder()


def _wrap(fn: Callable, name: str, layer: str, keep: bool,
          after: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        if threading.get_ident() != rec._owner:
            return fn(*args, **kwargs)
        frame = rec.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame, keep)
        if after is not None:
            after(rec, result)
        return result

    return wrapper


def _counting(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        RECORDER.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _tier(prefix: str) -> Callable:
    def after(rec, trips):
        if trips is None:
            rec.counts[f"{prefix}.rejected"] += 1
        else:
            rec.counts[f"{prefix}.loops"] += 1
            rec.counts[f"{prefix}.lanes"] += trips
    return after


def _sim_counts(rec, result) -> None:
    stats = result.stats
    rec.counts["hardware.kernel_launches"] += stats.kernel_launches
    rec.counts["hardware.bytes_to_device"] += stats.bytes_to_device
    rec.counts["hardware.offloads"] += stats.offload_count


def _applied(rec, result) -> None:
    rec.counts["transforms.applied"] += len(result.applied())


#: (module, attribute, span name, layer, keep span, after-hook).
#: Each attribute is patched in the namespace its caller reads it from.
SPAN_PATCHES = [
    ("repro.minic.parser", "parse", "minic.parse", "minic", True, None),
    ("repro.workloads.base", "parse", "minic.parse", "minic", True, None),
    ("repro.runtime.executor", "parse", "minic.parse", "minic", True, None),
    ("repro.workloads.base", "insert_offload_pragmas",
     "analysis.offload_inference", "analysis", True, None),
    ("repro.transforms.pipeline", "CompOptimizer.optimize",
     "transforms.optimize", "transforms", True, _applied),
    ("repro.transforms.pipeline", "convert_aos_to_soa",
     "transforms.regularize", "transforms", True, None),
    ("repro.transforms.pipeline", "split_loop",
     "transforms.regularize", "transforms", True, None),
    ("repro.transforms.pipeline", "reorder_arrays",
     "transforms.regularize", "transforms", True, None),
    ("repro.transforms.pipeline", "merge_offloads",
     "transforms.merge", "transforms", True, None),
    ("repro.transforms.pipeline", "apply_streaming",
     "transforms.streaming", "transforms", True, None),
    ("repro.transforms.pipeline", "apply_thread_reuse",
     "transforms.thread_reuse", "transforms", True, None),
    ("repro.transforms.pipeline", "lower_shared_memory",
     "transforms.shared_memory", "transforms", True, None),
    ("repro.analysis.validate", "validate_program",
     "transforms.validate", "transforms", True, None),
    ("repro.runtime.executor", "run_program",
     "runtime.execute", "runtime", True, _sim_counts),
    ("repro.workloads.base", "run_program",
     "runtime.execute", "runtime", True, _sim_counts),
    ("repro.workloads.base", "SharedMemoryWorkload.run",
     "runtime.shm_driver", "runtime", True, _sim_counts),
    ("repro.runtime.codegen", "try_run_parallel_for",
     "runtime.codegen", "runtime", False, _tier("runtime.codegen")),
    ("repro.runtime.batch_exec", "try_run_parallel_for",
     "runtime.batch", "runtime", False, _tier("runtime.batch")),
    ("repro.hardware.event_sim", "Timeline.schedule",
     "hardware.schedule", "hardware", False, None),
    ("repro.hardware.device", "ComputeDevice.compute_time",
     "hardware.compute_time", "hardware", False, None),
    ("repro.faults.campaign", "scenario_cell",
     "faults.cell", "faults", True, None),
    ("repro.service.service", "CampaignService.submit",
     "service.admit", "service", True, None),
]

#: (module, attribute, counter name): counted, not timed.
COUNT_PATCHES = [
    ("repro.runtime.executor", "Executor._exec_parallel_for",
     "runtime.parallel_loops"),
]


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Patches:
    """Installs the span patches; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def install(self) -> "Patches":
        if self._saved:
            return self
        for module_name, attr, name, layer, keep, after in SPAN_PATCHES:
            owner, leaf = _resolve(module_name, attr)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, _wrap(original, name, layer, keep, after))
        for module_name, attr, name in COUNT_PATCHES:
            owner, leaf = _resolve(module_name, attr)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, _counting(original, name))
        return self

    def remove(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved = []


# -- worker side of the service workload ---------------------------------------

_WORKER_PATCHES = Patches()
#: The job function before :class:`ServiceTracing` swaps it.
_REAL_EXECUTE_JOB = _jobs.execute_job


def traced_execute_job(payload: dict) -> dict:
    """``execute_job`` with span recording, run inside a pool worker.

    The worker's spans and aggregates travel back under the
    ``_perfbench_trace`` key, which the main process removes before the
    service sees the result.
    """
    _WORKER_PATCHES.install()
    RECORDER.reset()
    RECORDER.request = _jobs.JobSpec.from_dict(payload).key_id()
    frame = RECORDER.enter("service.execute_job", "service")
    try:
        result = _REAL_EXECUTE_JOB(payload)
    finally:
        RECORDER.exit(frame, True)
    data = RECORDER.export()
    data["execute_job_s"] = RECORDER.total_s["service.execute_job"]
    result["_perfbench_trace"] = data
    return result


class ServiceTracing:
    """Main-process side: route pool jobs through :func:`traced_execute_job`.

    Installs the main-process span patches, swaps the job function the
    pool dispatches, and strips each worker's trace from its result,
    merging it into :data:`RECORDER` and keeping the in-worker
    ``execute_job`` seconds per provenance id.
    """

    def __init__(self) -> None:
        self.patches = Patches()
        self.exec_s: Dict[str, float] = {}
        self._saved = []

    def install(self) -> "ServiceTracing":
        from repro.service import pool

        self.patches.install()
        original_run = pool.WorkerPool.run
        tracing = self

        async def run(self_pool, spec_payload):
            result = await original_run(self_pool, spec_payload)
            data = result.pop("_perfbench_trace", None)
            if data is not None:
                RECORDER.merge(data)
                tracing.exec_s[result["key_id"]] = data["execute_job_s"]
            return result

        self._saved = [(_jobs, "execute_job", _jobs.execute_job),
                       (pool.WorkerPool, "run", original_run)]
        _jobs.execute_job = traced_execute_job
        pool.WorkerPool.run = run
        return self

    def remove(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved = []
        self.patches.remove()


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(rec: Recorder) -> Dict[str, tuple]:
    """The per-layer metrics every workload reports, ``name -> (value, unit)``.

    Metrics of layers a workload does not touch read 0.
    """
    total, calls, counts = rec.total_s, rec.calls, rec.counts
    engaged = counts["runtime.codegen.loops"] + counts["runtime.batch.loops"]
    loops = counts["runtime.parallel_loops"]
    metrics = {
        "minic.parse_calls": (calls["minic.parse"], "count"),
        "minic.parse_s": (total["minic.parse"], "s"),
        "analysis.offload_inference_s":
            (total["analysis.offload_inference"], "s"),
        "transforms.optimize_calls": (calls["transforms.optimize"], "count"),
        "transforms.optimize_s": (total["transforms.optimize"], "s"),
    }
    for stage in ("regularize", "merge", "streaming", "thread_reuse",
                  "shared_memory", "validate"):
        metrics[f"transforms.{stage}_s"] = (total[f"transforms.{stage}"], "s")
    metrics.update({
        "transforms.applied": (counts["transforms.applied"], "count"),
        "hardware.kernel_launches": (counts["hardware.kernel_launches"], "count"),
        "hardware.bytes_to_device": (counts["hardware.bytes_to_device"], "B"),
        "hardware.offloads": (counts["hardware.offloads"], "count"),
        "runtime.execute_s": (total["runtime.execute"], "s"),
        "runtime.codegen.loops": (counts["runtime.codegen.loops"], "count"),
        "runtime.codegen.rejected": (counts["runtime.codegen.rejected"], "count"),
        "runtime.codegen_s": (total["runtime.codegen"], "s"),
        "runtime.batch.loops": (counts["runtime.batch.loops"], "count"),
        "runtime.batch.rejected": (counts["runtime.batch.rejected"], "count"),
        "runtime.batch_s": (total["runtime.batch"], "s"),
        "runtime.vector_engaged_ratio":
            (engaged / loops if loops else 0.0, "ratio"),
        "runtime.tree_s": (rec.self_by_name["runtime.execute"], "s"),
        "runtime.shm_driver_s": (total["runtime.shm_driver"], "s"),
        "hardware.schedule_calls": (calls["hardware.schedule"], "count"),
        "hardware.schedule_s": (total["hardware.schedule"], "s"),
        "hardware.compute_time_calls": (calls["hardware.compute_time"], "count"),
        "faults.cells": (calls["faults.cell"], "count"),
        "faults.cell_s": (total["faults.cell"], "s"),
    })
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (rec.self_by_layer[layer], "s")
    return metrics


#: Service metrics read 0 on the workloads that never reach the service.
SERVICE_METRICS = {
    "service.admit_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p95_ms": "ms",
    "service.execute_p50_ms": "ms",
    "service.ipc_overhead_ms": "ms",
    "service.store_hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.journal_appends": "count",
    "service.journal_fsyncs": "count",
    "service.rejected": "count",
    "service.generator_late_p95_ms": "ms",
    "service.repeat_source_ratio": "ratio",
}


def output_path(workload: str, seed: int) -> str:
    """Where a traced run writes its span JSON (inside the checkout)."""
    from perfbench.common import WORK_DIR

    return os.path.join(WORK_DIR, f"spans-{workload}-{seed}.json")


def report(out, rec: Recorder, service: Optional[dict], overhead: float,
           unattributed: float, path: str, meta: dict,
           units: float = 1.0) -> None:
    """Put every per-layer metric into *out* and write the span JSON.

    Seconds and counts are divided by *units*, the traced phase's units
    of work (passes, rounds, or thousands of requests), so they read per
    unit like ``wall_s``.  *overhead* is traced over untraced wall time
    per unit; *unattributed* the share of traced time no layer span
    covers.
    """
    for name, (value, unit) in layer_metrics(rec).items():
        out.put(name, float(value) / (1.0 if unit == "ratio" else units), unit)
    for name, unit in SERVICE_METRICS.items():
        out.put(name, float((service or {}).get(name, 0.0)), unit)
    out.put("obs.trace_overhead_ratio", overhead, "ratio")
    out.put("obs.unattributed_ratio", unattributed, "ratio")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            **meta,
            "fields": ["id", "parent", "name", "layer", "start", "end",
                       "request"],
            "spans": rec.spans,
            "self_by_layer": dict(rec.self_by_layer),
            "metrics": out.metrics,
        }, fh)
    out.notes.append(f"spans {len(rec.spans)} written to "
                     f"{os.path.relpath(path)}")
