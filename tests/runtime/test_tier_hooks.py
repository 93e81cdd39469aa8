"""The tier boundary the benchmark's traced run patches.

``perfbench --trace 1`` attributes execution time per tier by wrapping
three names where their callers look them up.  A refactor that inlines
or caches any of them would silently break that attribution, so this
test patches the same names with counting wrappers and checks that one
parallel loop reaches the two live ones.  The retired batch tier's name
must stay resolvable (the traced run patches it) but is never called.
"""

import numpy as np

from repro.runtime import batch_exec, codegen
from repro.runtime.executor import Executor, run_program

GATHER = """
void main() {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) { B[i] = A[C[i]] * 2.0; }
}
"""


def _counting(fn, counts, key, results=None):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        out = fn(*args, **kwargs)
        if results is not None:
            results.append(out)
        return out

    return wrapper


def test_parallel_loop_reaches_every_patched_tier(monkeypatch):
    counts = {"codegen": 0, "batch": 0, "parallel_for": 0}
    trips = []
    monkeypatch.setattr(
        codegen, "try_run_parallel_for",
        _counting(codegen.try_run_parallel_for, counts, "codegen", trips),
    )
    monkeypatch.setattr(
        batch_exec, "try_run_parallel_for",
        _counting(batch_exec.try_run_parallel_for, counts, "batch"),
    )
    monkeypatch.setattr(
        Executor, "_exec_parallel_for",
        _counting(Executor._exec_parallel_for, counts, "parallel_for"),
    )
    n = 16
    result = run_program(
        GATHER,
        arrays={
            "A": np.arange(n, dtype=np.float64),
            "B": np.zeros(n),
            "C": np.arange(n, dtype=np.int32)[::-1].copy(),
        },
        scalars={"n": n},
    )
    # The gather reaches codegen and runs there; batch is never called.
    assert counts == {"codegen": 1, "batch": 0, "parallel_for": 1}
    assert trips == [n]
    assert result.array("B").tolist() == (np.arange(n)[::-1] * 2.0).tolist()
