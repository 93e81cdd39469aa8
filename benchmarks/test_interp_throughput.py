"""Interpreter throughput: the scalar tier vs the codegen tier.

Times a blackscholes-style parallel kernel under both engines and writes
``BENCH_interp.json`` at the repo root with iterations/second per engine
and codegen's speedup over the scalar tier, so CI tracks the
interpreter's raw speed alongside the paper figures.  The codegen tier
must hold >= 3x throughput over the scalar tier on this kernel (the
generated function pays zero per-op Python dispatch and frees dead temps
so passes stay L2-resident).

Each engine runs the kernel with its own repetition count — the scalar
tier is ~three orders of magnitude slower per entry, so equal reps
would either starve the fast engine of measurement resolution or take
minutes.  Throughput normalizes by each engine's own iteration count,
and the kernel is idempotent (C[i] depends only on the inputs), so the
cross-engine output assertion is unaffected by differing reps.
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit
from repro.experiments.report import render_table
from repro.obs.provenance import build_provenance
from repro.runtime.executor import Machine, run_program

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_interp.json"

N = 20_000

#: Loop repetitions per engine: enough that per-entry cost dominates the
#: fixed parse/setup overhead (~0.5 ms), small enough to keep the bench
#: quick.  (reps, timing repeats — best-of is reported.)
ENGINE_REPS = {
    "tree": (1, 1),
    "codegen": (40, 3),
}

KERNEL = """
void main() {
    for (int r = 0; r < reps; r++) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            double d1 = (log(S[i] / K[i]) + 0.573 * T[i]) / (0.3 * sqrt(T[i]));
            double d2 = d1 - 0.3 * sqrt(T[i]);
            double nd1 = 1.0 / (1.0 + exp(0.0 - 1.702 * d1));
            double nd2 = 1.0 / (1.0 + exp(0.0 - 1.702 * d2));
            C[i] = S[i] * nd1 - K[i] * exp(0.0 - 0.05 * T[i]) * nd2;
        }
    }
}
"""


def _arrays():
    rng = np.random.default_rng(42)
    return {
        "S": (rng.random(N) * 90 + 10).astype(np.float64),
        "K": (rng.random(N) * 90 + 10).astype(np.float64),
        "T": (rng.random(N) * 2 + 0.1).astype(np.float64),
        "C": np.zeros(N, dtype=np.float64),
    }


def _time_engine(engine):
    reps, repeats = ENGINE_REPS[engine]
    best = float("inf")
    result = None
    for _ in range(repeats):
        arrays = _arrays()
        started = time.perf_counter()
        result = run_program(
            KERNEL,
            arrays=arrays,
            scalars={"n": N, "reps": reps},
            machine=Machine(),
            engine=engine,
        )
        best = min(best, time.perf_counter() - started)
    return best, reps, result


def test_interpreter_throughput():
    report = {
        "provenance": build_provenance(
            seed=42, engine="tree,codegen", workers=1
        ),
        "benchmark": "interp_throughput",
        "kernel": "blackscholes-style parallel for",
        "lanes": N,
        "engines": {},
    }
    outputs = {}
    for engine in ("tree", "codegen"):
        seconds, reps, result = _time_engine(engine)
        outputs[engine] = result.array("C").copy()
        iterations = N * reps
        report["engines"][engine] = {
            "seconds": round(seconds, 6),
            "reps": reps,
            "iterations_per_sec": round(iterations / seconds, 1),
        }

    # Throughput claims are only meaningful if both engines computed the
    # same thing.
    assert outputs["codegen"].tobytes() == outputs["tree"].tobytes()

    tree = report["engines"]["tree"]["iterations_per_sec"]
    codegen = report["engines"]["codegen"]["iterations_per_sec"]
    report["codegen_speedup"] = round(codegen / tree, 2)
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    emit(render_table(
        ["engine", "seconds", "iters/sec"],
        [
            [engine, f"{entry['seconds']:10.4f}",
             f"{entry['iterations_per_sec']:14.1f}"]
            for engine, entry in report["engines"].items()
        ],
    ))
    assert report["codegen_speedup"] >= 3.0
