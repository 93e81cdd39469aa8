"""Codegen tier: loop shapes, fallback ladder, generated-source cache.

Each shape test runs one small MiniC program under the scalar tier and
under codegen and asserts the two agree bit-for-bit on outputs, dynamic
operation counters and simulated time — including fallback and error
cases, where codegen must behave as if it never ran.

The lru parse cache means two parses of the same source return distinct
AST clones; the kernel cache must still share one compiled function
across them (it keys on the kernel's printed form + transform
provenance, never on object identity).  Cached and freshly-compiled
kernels must be indistinguishable: identical outputs, identical op
counters, identical simulated time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minic.parser import parse
from repro.runtime import codegen
from repro.runtime.executor import Executor, Machine

KERNEL_SRC = """
void main() {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        double x = a[i] * s + b[i];
        if (x > 0.0) {
            x = x / (s + 2.0);
        }
        out[i] = x + sqrt(fabs(x));
    }
}
"""


def _arrays(seed=0, n=128):
    rng = np.random.default_rng(seed)
    return {
        "a": rng.standard_normal(n),
        "b": rng.standard_normal(n),
        "out": np.zeros(n),
    }


def _run(src, arrays, scalars, engine="codegen"):
    executor = Executor(parse(src), Machine(), engine=engine)
    result = executor.run(arrays=arrays, scalars=scalars)
    return executor, result


def _run_both(source, make_arrays, scalars=None, outputs=()):
    """Run under the scalar tier and codegen; assert parity; return the
    codegen executor."""
    arrays = make_arrays()
    _, tree = _run(source, {k: v.copy() for k, v in arrays.items()},
                   dict(scalars or {}), engine="tree")
    cg_ex, cg = _run(source, arrays, dict(scalars or {}))
    for name in outputs:
        expected, actual = tree.array(name), cg.array(name)
        assert expected.dtype == actual.dtype, name
        assert expected.tobytes() == actual.tobytes(), name
    assert cg.stats.ops.as_dict() == tree.stats.ops.as_dict()
    assert cg.stats.total_time == tree.stats.total_time
    return cg_ex


def _fails_alike(source, arrays, scalars):
    """The codegen run fails exactly like the scalar tier: same error
    class and text, same partial state; returns the codegen executor."""
    seen = {}
    for engine in ("tree", "codegen"):
        executor = Executor(parse(source), Machine(), engine=engine)
        bound = arrays()
        with pytest.raises(Exception) as excinfo:
            executor.run(arrays=bound, scalars=dict(scalars))
        seen[engine] = (
            type(excinfo.value).__name__,
            str(excinfo.value),
            {k: v.tobytes() for k, v in bound.items()},
        )
    assert seen["codegen"] == seen["tree"]
    return executor


# -- loop shapes that run on codegen -----------------------------------------


def test_simple_loop_runs_on_codegen():
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            B[i] = A[i] * 2.0 + 1.0;
        }
    }
    """
    ex = _run_both(
        source,
        lambda: {
            "A": np.arange(64, dtype=np.float64),
            "B": np.zeros(64, dtype=np.float64),
        },
        scalars={"n": 64},
        outputs=("B",),
    )
    assert ex._codegen_stats["ran"] == 1
    assert ex._codegen_stats["fallback"] == 0


def test_masked_control_flow():
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            if (A[i] > 0.5) {
                B[i] = sqrt(A[i]);
            } else {
                B[i] = A[i] * A[i];
            }
            C[i] = A[i] > 0.25 ? 1.0 : -1.0;
        }
    }
    """
    data = np.random.default_rng(7).random(97)
    ex = _run_both(
        source,
        lambda: {"A": data.copy(), "B": np.zeros(97), "C": np.zeros(97)},
        scalars={"n": 97},
        outputs=("B", "C"),
    )
    assert ex._codegen_stats["ran"] == 1


def test_function_inlining_with_early_return():
    source = """
    double clamp01(double x) {
        if (x < 0.0) {
            return 0.0;
        }
        if (x > 1.0) {
            return 1.0;
        }
        return x;
    }
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            B[i] = clamp01(A[i] * 3.0 - 1.0);
        }
    }
    """
    data = np.random.default_rng(11).random(80)
    ex = _run_both(
        source,
        lambda: {"A": data.copy(), "B": np.zeros(80)},
        scalars={"n": 80},
        outputs=("B",),
    )
    assert ex._codegen_stats["ran"] == 1


def test_inner_sequential_loop():
    source = """
    void main(int n, int m) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            double acc = 0.0;
            for (int j = 0; j < m; j++) {
                acc = acc + A[i * m + j];
            }
            B[i] = acc;
        }
    }
    """
    data = np.random.default_rng(3).random(12 * 5)
    ex = _run_both(
        source,
        lambda: {"A": data.copy(), "B": np.zeros(12)},
        scalars={"n": 12, "m": 5},
        outputs=("B",),
    )
    assert ex._codegen_stats["ran"] == 1


def test_gather_through_index_array():
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            B[i] = A[idx[i]] + 1.0;
        }
    }
    """
    rng = np.random.default_rng(5)
    perm = rng.permutation(50).astype(np.int32)
    data = rng.random(50)
    ex = _run_both(
        source,
        lambda: {"A": data.copy(), "idx": perm.copy(), "B": np.zeros(50)},
        scalars={"n": 50},
        outputs=("B",),
    )
    assert ex._codegen_stats["ran"] == 1


def test_irregular_accesses_match_at_paper_scale():
    """With arrays too big for the cache, gathers, offsets and strided
    reads inside an inner loop charge bytes and irregular accesses
    exactly like the scalar tier."""
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 1; i < n; i++) {
            float s = A[i - 1] + A[2 * i];
            for (int j = 0; j < 3; j++) {
                s = s + A[idx[i] + j] * A[i * j];
            }
            B[i - 1] = s;
        }
    }
    """
    rng = np.random.default_rng(9)
    n = 40
    src_arrays = {
        "A": rng.random(4 * n).astype(np.float32),
        "idx": rng.integers(0, 2 * n, n).astype(np.int32),
        "B": np.zeros(n, dtype=np.float32),
    }
    results = {}
    for engine in ("tree", "codegen"):
        executor = Executor(parse(source), Machine(scale=1e5), engine=engine)
        arrays = {k: v.copy() for k, v in src_arrays.items()}
        result = executor.run(arrays=arrays, scalars={"n": n})
        results[engine] = (executor, result, arrays["B"].tobytes())
    ex, cg, cg_out = results["codegen"]
    _, tree, tree_out = results["tree"]
    assert ex._codegen_stats["ran"] == 1
    assert cg.stats.ops.irregular_accesses > 0
    assert cg.stats.ops.as_dict() == tree.stats.ops.as_dict()
    assert cg.stats.total_time == tree.stats.total_time
    assert cg_out == tree_out


def test_inlined_parameters_keep_their_own_lifetimes():
    """Two inlined functions share a parameter name; the first runs only
    under a mask that no lane takes.  The second's paper-scale write
    classifies its site with the MiniC name as a binding key, which must
    not count as a use of the first parameter's Python variable."""
    source = """
    float first(float x, int k) { return x + k; }
    void put(int k) { OUT2[k] = 1.0; }
    void main() {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            if (A[i] > 100.0) { OUT[i] = first(A[i], 1); }
            put(i);
        }
    }
    """
    results = {}
    for engine in ("tree", "codegen"):
        arrays = {"A": np.arange(8.0), "OUT": np.zeros(8), "OUT2": np.zeros(8)}
        executor = Executor(parse(source), Machine(scale=1e5), engine=engine)
        result = executor.run(arrays=arrays, scalars={"n": 8})
        results[engine] = (result.stats.ops.as_dict(), arrays["OUT2"].tobytes())
    assert executor._codegen_stats["ran"] == 1
    assert results["codegen"] == results["tree"]


# -- shapes that fall back to the scalar tier ------------------------------


def test_cross_lane_dependence_falls_back():
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 1; i < n; i++) {
            A[i] = A[i - 1] + 1.0;
        }
    }
    """
    ex = _run_both(
        source, lambda: {"A": np.zeros(32)}, scalars={"n": 32}, outputs=("A",)
    )
    assert ex._codegen_stats["fallback"] == 1
    assert ex._codegen_stats["ran"] == 0


def test_scalar_reduction_falls_back():
    source = """
    void main(int n) {
        double total = 0.0;
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            total = total + A[i];
        }
        B[0] = total;
    }
    """
    ex = _run_both(
        source,
        lambda: {"A": np.arange(16, dtype=np.float64), "B": np.zeros(1)},
        scalars={"n": 16},
        outputs=("B",),
    )
    # Statically ineligible: rejected before any attempt.
    assert ex._codegen_stats["ran"] == 0
    info = next(iter(ex._codegen_static_cache.values()))
    assert not info.eligible
    assert "total" in info.reason


def test_while_body_falls_back():
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            double x = A[i];
            while (x > 1.0) {
                x = x / 2.0;
            }
            B[i] = x;
        }
    }
    """
    ex = _run_both(
        source,
        lambda: {"A": np.arange(24, dtype=np.float64), "B": np.zeros(24)},
        scalars={"n": 24},
        outputs=("B",),
    )
    assert ex._codegen_stats["ran"] == 0
    info = next(iter(ex._codegen_static_cache.values()))
    assert not info.eligible


def test_lane_varying_inner_bound_falls_back():
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            double acc = 0.0;
            for (int j = 0; j < counts[i]; j++) {
                acc = acc + A[j];
            }
            B[i] = acc;
        }
    }
    """
    counts = np.array([1, 3, 2, 5, 4, 2, 1, 3], dtype=np.int32)
    ex = _run_both(
        source,
        lambda: {
            "A": np.arange(8, dtype=np.float64),
            "counts": counts.copy(),
            "B": np.zeros(8),
        },
        scalars={"n": 8},
        outputs=("B",),
    )
    assert ex._codegen_stats["fallback"] == 1


def test_dynamic_bail_poisons_static_cache():
    """After a dynamic hazard, the same loop node must not retry."""
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            A[idx[i]] = A[i] + 1.0;
        }
    }
    """
    idx = np.zeros(8, dtype=np.int32)  # every lane writes slot 0
    ex = _run_both(
        source,
        lambda: {"A": np.arange(8, dtype=np.float64), "idx": idx.copy()},
        scalars={"n": 8},
        outputs=("A",),
    )
    assert ex._codegen_stats["fallback"] == 1
    info = next(iter(ex._codegen_static_cache.values()))
    assert not info.eligible


def test_out_of_bounds_error_is_identical():
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            B[i + 2] = A[i];
        }
    }
    """
    ex = _fails_alike(
        source,
        lambda: {"A": np.arange(8, dtype=np.float64), "B": np.zeros(8)},
        {"n": 8},
    )
    assert ex._codegen_stats["fallback"] == 1


def test_division_by_zero_is_identical():
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            B[i] = C[i] / D[i];
        }
    }
    """
    ex = _fails_alike(
        source,
        lambda: {
            "C": np.arange(8, dtype=np.int32),
            "D": np.array([1, 2, 1, 0, 1, 1, 1, 1], dtype=np.int32),
            "B": np.zeros(8, dtype=np.int32),
        },
        {"n": 8},
    )
    assert ex._codegen_stats["fallback"] == 1


def test_tree_engine_never_runs_codegen():
    source = """
    void main(int n) {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            B[i] = A[i] + 1.0;
        }
    }
    """
    executor, _ = _run(
        source,
        {"A": np.arange(8, dtype=np.float64), "B": np.zeros(8)},
        {"n": 8},
        engine="tree",
    )
    assert executor._codegen_stats["ran"] == 0
    assert executor._codegen_stats["fallback"] == 0
    assert not executor._codegen_static_cache


# -- the kernel cache ----------------------------------------------------------


def test_cache_hit_across_parse_clones():
    """Distinct AST clones of one kernel share one compiled function."""
    codegen.clear_cache()
    arrays1 = _arrays(seed=1)
    ex1, _ = _run(KERNEL_SRC, arrays1, {"n": 128, "s": 1.5})
    assert ex1._codegen_stats["ran"] == 1
    assert ex1._codegen_stats["compiled"] == 1
    first = codegen.cache_stats()
    assert first["misses"] == 1

    arrays2 = _arrays(seed=1)
    ex2, _ = _run(KERNEL_SRC, arrays2, {"n": 128, "s": 1.5})
    assert ex2._codegen_stats["ran"] == 1
    assert ex2._codegen_stats["compiled"] == 0
    assert ex2._codegen_stats["cache_hits"] == 1
    second = codegen.cache_stats()
    assert second["misses"] == first["misses"]  # no recompile
    assert second["hits"] > first["hits"]
    assert arrays1["out"].tobytes() == arrays2["out"].tobytes()


def test_cache_misses_on_different_provenance():
    """Two identically-printed kernels from different transform
    pipelines must not share a generated function."""
    codegen.clear_cache()
    program1 = parse(KERNEL_SRC)
    program2 = parse(KERNEL_SRC)
    program2.comp_provenance = "streaming,thread_reuse"

    for program in (program1, program2):
        executor = Executor(program, Machine(), engine="codegen")
        executor.run(arrays=_arrays(), scalars={"n": 128, "s": 1.5})
        assert executor._codegen_stats["compiled"] == 1
    assert codegen.cache_stats()["misses"] == 2


def test_cache_misses_on_different_dtype_signature():
    codegen.clear_cache()
    arrays64 = _arrays()
    _run(KERNEL_SRC, arrays64, {"n": 128, "s": 1.5})
    arrays32 = {
        name: value.astype(np.float32) for name, value in _arrays().items()
    }
    _run(KERNEL_SRC, arrays32, {"n": 128, "s": 1.5})
    assert codegen.cache_stats()["misses"] == 2


def test_clear_cache_resets_stats():
    _run(KERNEL_SRC, _arrays(), {"n": 128, "s": 1.5})
    codegen.clear_cache()
    assert codegen.cache_stats() == {"hits": 0, "misses": 0}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    s=st.floats(
        min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
    ),
)
def test_cached_kernel_indistinguishable_from_fresh(seed, s):
    """Property: a cache-hit run is bit-identical to a fresh compile —
    same outputs, same op counters, same simulated time — and both
    match the tree walker."""
    scalars = {"n": 128, "s": s}

    codegen.clear_cache()
    fresh_arrays = _arrays(seed=seed)
    ex_fresh, fresh = _run(KERNEL_SRC, fresh_arrays, dict(scalars))
    assert ex_fresh._codegen_stats["compiled"] == 1

    cached_arrays = _arrays(seed=seed)
    ex_cached, cached = _run(KERNEL_SRC, cached_arrays, dict(scalars))
    assert ex_cached._codegen_stats["cache_hits"] == 1

    tree_arrays = _arrays(seed=seed)
    _, tree = _run(KERNEL_SRC, tree_arrays, dict(scalars), engine="tree")

    assert fresh_arrays["out"].tobytes() == cached_arrays["out"].tobytes()
    assert fresh_arrays["out"].tobytes() == tree_arrays["out"].tobytes()
    assert fresh.stats.ops.as_dict() == cached.stats.ops.as_dict()
    assert fresh.stats.ops.as_dict() == tree.stats.ops.as_dict()
    assert fresh.stats.total_time == cached.stats.total_time
    assert fresh.stats.total_time == tree.stats.total_time


def test_invariant_index_runs_on_codegen():
    """An index that is not the induction variable (here lane-invariant)
    runs in the codegen tier and agrees with the scalar tier."""
    src = """
    void main() {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            out[i] = a[i] + a[0];
        }
    }
    """
    n = 64
    rng = np.random.default_rng(3)
    ex = _run_both(
        src,
        lambda: {"a": rng.standard_normal(n), "out": np.zeros(n)},
        scalars={"n": n},
        outputs=("out",),
    )
    assert ex._codegen_stats["ran"] == 1


def test_engine_validation_lists_valid_engines():
    with pytest.raises(ValueError, match="codegen.*tree"):
        Executor(parse(KERNEL_SRC), Machine(), engine="warp")


def test_kernel_source_shows_generated_numpy():
    """The docs helper returns the emitted source for an eligible loop,
    including the dead-temp frees the performance model relies on."""
    from repro.minic import ast_nodes as ast
    from repro.minic.visitor import walk

    program = parse(KERNEL_SRC)
    loop = next(
        node
        for node in walk(program)
        if isinstance(node, ast.For)
        and any(
            isinstance(p, ast.OmpParallelFor)
            for p in getattr(node, "pragmas", [])
        )
    )
    src = codegen.kernel_source(loop, "")
    assert src.startswith("def __cg_kernel(")
    assert "rt.c_sqrt" in src
    assert "del " in src
    compile(src, "<kernel>", "exec")  # must be valid Python
