"""Workload ``kernels``: offloaded parallel-for kernels on the vector tiers.

Closed loop, one caller.  A fixed set of offloaded MiniC ``parallel
for`` kernels at 2^17 lanes runs through ``run_program(engine="auto")``
without the COMP pipeline; each output is checked against a numpy
reference.  The set covers what each vector tier handles today:

* ``affine`` and ``masked`` (if/else) run in the codegen tier;
* ``gather`` (``A[IDX[i]]``), ``strided`` (``A[2 * i]``) and
  ``inner_for`` (a sequential ``for`` inside the parallel body) are
  rejected by codegen and run in the batch tier.

The seed draws the input arrays.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from perfbench import tracing
from perfbench.common import (
    Outcome, array_digest, content_digest, geomean, latency_metrics,
    median_setup, peak_rss_mb,
)
from perfbench.speed import SpeedProbe

LANES = 1 << 17

#: A kernel call slower than this misses the workload's latency limit.
SLO_S = 0.025
#: Width of the window of speed probes that converts one call.
SMOOTHING_S = 2.0

#: name -> (loop body, extra ``in`` clause, length of A in lanes).
KERNELS = {
    "affine": ("B[i] = A[i] * 2.0 + 1.0;", "", 1),
    "masked": ("if (A[i] > 50.0) { B[i] = A[i] - 50.0; } "
               "else { B[i] = A[i] * 0.5; }", "", 1),
    "gather": ("B[i] = A[IDX[i]] * 2.0;", " in(IDX : length(n))", 1),
    "strided": ("B[i] = A[2 * i] + 1.0;", "", 2),
    "inner_for": ("float s = 0.0; for (int j = 0; j < 4; j++) "
                  "{ s = s + A[i] * j; } B[i] = s;", "", 1),
}


def source(name: str, offload: bool = True) -> str:
    body, extra, stride = KERNELS[name]
    length = f"{stride} * n" if stride > 1 else "n"
    pragma = (
        f"#pragma offload target(mic:0) in(A : length({length})){extra} "
        f"in(n) out(B : length(n))\n" if offload else ""
    )
    return (
        "void main() {\n" + pragma + "#pragma omp parallel for\n"
        "    for (int i = 0; i < n; i++) { " + body + " }\n}\n"
    )


def reference(name: str, A: np.ndarray, IDX: np.ndarray) -> np.ndarray:
    """The kernel's output computed by numpy (float64, compared with
    the float32 tolerance of ``BenchmarkResult.outputs_match``)."""
    if name == "strided":
        return A[0:2 * LANES:2].astype(np.float64) + 1.0
    a = A[:LANES].astype(np.float64)
    if name == "affine":
        return a * 2.0 + 1.0
    if name == "masked":
        return np.where(a > 50.0, a - 50.0, a * 0.5)
    if name == "gather":
        return a[IDX] * 2.0
    if name == "inner_for":
        return a * 6.0
    raise KeyError(name)


@dataclasses.dataclass
class Kernels:
    """Inputs, references and host-only simulated times of the set."""

    inputs: dict
    expected: dict
    cpu_sim: dict


def _prepare(seed: int, corrupt: bool) -> Kernels:
    from repro.runtime import executor

    rng = np.random.default_rng(seed)
    A = (rng.random(2 * LANES) * 100).astype(np.float32)
    IDX = rng.integers(0, LANES, LANES).astype(np.int32)
    inputs, expected, cpu_sim = {}, {}, {}
    for name in KERNELS:
        arrays = {"A": A[: KERNELS[name][2] * LANES]}
        if name == "gather":
            arrays["IDX"] = IDX
        inputs[name] = arrays
        expected[name] = reference(name, A, IDX) + (1.0 if corrupt else 0.0)
        # Host-only run: the denominator's baseline for the simulated
        # speedup, and a warm-up of the parse and codegen caches.
        cpu_sim[name] = _call(executor, name, arrays,
                              offload=False)[1].total_time
        _call(executor, name, arrays)
    return Kernels(inputs, expected, cpu_sim)


def _call(executor, name, arrays, offload=True, traced=False):
    """One kernel call; returns ((start, end), stats, output)."""
    bound = dict(arrays, B=np.zeros(LANES, np.float32))
    frame = tracing.RECORDER.enter("bench.call", "bench") if traced else None
    started = time.monotonic()
    try:
        result = executor.run_program(
            source(name, offload), arrays=bound, scalars={"n": LANES},
            engine="auto",
        )
    finally:
        ended = time.monotonic()
        if frame is not None:
            tracing.RECORDER.exit(frame, True)
    return (started, ended), result.stats, result.array("B")


def _rounds(state: Kernels, out: Outcome, budget: float, speed,
            traced=False):
    """Run whole rounds over the set for *budget* seconds.

    Returns (per-call reference seconds, per-round reference seconds,
    per-kernel content).  A call is converted with the speed probes of
    the :data:`SMOOTHING_S` around it, less any probe that interrupted it.
    """
    from repro.runtime import executor

    calls, content = [], {}
    started = time.monotonic()
    while not calls or time.monotonic() - started < budget:
        for name, arrays in state.inputs.items():
            probing = speed.probe_s
            span, stats, got = _call(executor, name, arrays, traced=traced)
            calls.append(span + (speed.probe_s - probing,))
            out.attempted += 1
            if not np.allclose(got, state.expected[name], rtol=1e-5, atol=1e-6):
                out.failed += 1
                if len(out.notes) < 5:
                    out.notes.append(f"{name}: output differs from numpy")
            cell = {"sim_time": stats.total_time,
                    "ops": dataclasses.asdict(stats.ops),
                    "output": array_digest(got)}
            if content.setdefault(name, cell) != cell:
                out.failed += 1
                out.notes.append(f"{name}: calls disagree on content")
    half = SMOOTHING_S / 2
    latencies = [
        (end - start - probing) * speed.scale(start - half, end + half)
        for start, end, probing in calls
    ]
    size = len(KERNELS)
    walls = [sum(latencies[i:i + size])
             for i in range(0, len(latencies), size)]
    return latencies, walls, content


def run(seed: int, seconds: float, trace: bool, corrupt: bool = False) -> Outcome:
    out = Outcome()
    budget = seconds / 2 if trace else seconds
    with SpeedProbe() as speed:
        setup_s, state = median_setup(lambda: _prepare(seed, corrupt), speed)
        latencies, walls, content = _rounds(state, out, budget, speed)
        out.digest = content_digest(content)
        if trace:
            patches = tracing.Patches().install()
            rec = tracing.RECORDER
            rec.reset()
            speed.recorder = rec
            try:
                _, traced_walls, traced = _rounds(state, out, budget, speed,
                                                  traced=True)
            finally:
                speed.recorder = None
                patches.remove()
    if not trace:
        wall = statistics.median(walls)
        out.put("setup_s", setup_s, "s")
        out.put("wall_s", wall, "s")
        latency_metrics(out, latencies, SLO_S)
        out.put("sim_speedup_geomean", geomean(
            [state.cpu_sim[name] / content[name]["sim_time"]
             for name in KERNELS]), "x")
        out.put("peak_rss_mb", peak_rss_mb(), "MB")
        out.notes.append(f"rounds {len(walls)}; iters_per_s "
                         f"{len(KERNELS) * LANES / wall:.4g} 1/s "
                         f"at {LANES} lanes (reference seconds)")
        return out

    if content_digest(traced) != out.digest:
        out.failed += 1
        out.notes.append("traced rounds disagree with untraced content")
    calls = rec.total_s["bench.call"]
    tracing.report(
        out, rec, None, statistics.median(traced_walls) / statistics.median(walls),
        rec.self_by_layer["bench"] / calls,
        tracing.output_path("kernels", seed),
        {"workload": "kernels", "seed": seed}, units=len(traced_walls),
    )
    return out
