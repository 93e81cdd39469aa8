"""Cross-tier fuzzing: generated parallel kernels agree on every engine.

The scalar tier is the reference semantics; the batch and codegen tiers
are independent implementations of the same loops.  Hypothesis emits
small MiniC ``parallel for`` kernels — affine arithmetic, masked
if/else, gathers ``A[C[i]]``, strided ``A[2*i]``, inner ``for`` loops
with literal bounds, int division and modulo — and every engine must
produce the same output bytes, op counters and simulated time, or fail
with the same error class and leave the same partial state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.executor import run_program

ENGINES = ("tree", "batch", "codegen")

_float_leaf = st.sampled_from(
    ["A[i]", "B[i]", "A[2 * i]", "A[C[i]]", "A[i + 1]", "(float)i", "1.5",
     "0.25", "i"]
)
_int_leaf = st.sampled_from(["i", "C[i]", "X[i]", "3", "7", "(i + 2)"])


def _float_expr(depth=2):
    if depth == 0:
        return _float_leaf
    sub = _float_expr(depth - 1)
    return st.one_of(
        _float_leaf,
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} / ({t[1]} + 2.0))"),
        sub.map(lambda e: f"(-{e})"),
        sub.map(lambda e: f"sqrt(fabs({e}))"),
    )


def _int_expr(depth=2):
    if depth == 0:
        return _int_leaf
    sub = _int_expr(depth - 1)
    return st.one_of(
        _int_leaf,
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "%"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
    )


_cond = st.one_of(
    _float_expr(0).map(lambda e: f"{e} > 0.5"),
    st.just("X[i] == 0"),
    st.just("i % 2 == 0"),
)


def _statement():
    fe, ie = _float_expr(), _int_expr()
    return st.one_of(
        fe.map(lambda e: f"OUT[i] = {e};"),
        ie.map(lambda e: f"IOUT[i] = {e};"),
        st.tuples(_cond, fe, fe).map(
            lambda t: f"if ({t[0]}) {{ OUT[i] = {t[1]}; }} "
            f"else {{ OUT[i] = {t[2]}; }}"
        ),
        st.tuples(st.integers(0, 4), _float_expr(1)).map(
            lambda t: "{ float s = 0.0; "
            f"for (int j = 0; j < {t[0]}; j++) {{ s = s + {t[1]} * j; }} "
            "OUT[i] = s; }"
        ),
        fe.map(lambda e: f"{{ float t = {e}; OUT[i] = t * 2.0; }}"),
    )


@st.composite
def kernels(draw):
    body = " ".join(draw(st.lists(_statement(), min_size=1, max_size=3)))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    # Most kernels keep gathers in range; some may index past the end.
    gather_slack = draw(st.sampled_from([0, 0, 0, 3]))
    source = (
        "void main() {\n#pragma omp parallel for\n"
        f"for (int i = 0; i < n; i++) {{ {body} }}\n}}\n"
    )
    return source, n, seed, gather_slack


def _arrays(n, seed, gather_slack):
    rng = np.random.default_rng(seed)
    size = 2 * n + 2
    return {
        "A": rng.integers(-4, 5, size).astype(np.float64) * 0.5,
        "B": rng.integers(-4, 5, n).astype(np.float64) * 0.25,
        "C": rng.integers(0, size + gather_slack, n).astype(np.int32),
        "X": rng.integers(-2, 3, n).astype(np.int32),
        "OUT": np.zeros(n, dtype=np.float64),
        "IOUT": np.zeros(n, dtype=np.int32),
    }


def _observe(source, n, seed, gather_slack, engine):
    arrays = _arrays(n, seed, gather_slack)
    try:
        result = run_program(
            source, arrays=arrays, scalars={"n": n}, engine=engine
        )
    except Exception as exc:  # the error class is what must agree
        outcome = ("error", type(exc).__name__)
    else:
        outcome = (
            "ok",
            result.stats.ops.as_dict(),
            repr(result.stats.total_time),
        )
    state = {k: (v.dtype.str, v.tobytes()) for k, v in arrays.items()}
    return outcome, state


@given(kernels())
@settings(max_examples=100, deadline=None)
def test_engines_agree_on_generated_kernels(kernel):
    source, n, seed, gather_slack = kernel
    reference = _observe(source, n, seed, gather_slack, "tree")
    for engine in ENGINES[1:]:
        assert _observe(source, n, seed, gather_slack, engine) == reference, (
            f"{engine} disagrees with tree on:\n{source}"
        )
