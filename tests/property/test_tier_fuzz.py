"""Cross-tier fuzzing: generated parallel kernels agree on every engine.

The scalar tier is the reference semantics; the codegen tier is an
independent implementation of the same loops.  Hypothesis emits small
MiniC ``parallel for`` kernels — affine arithmetic, masked if/else,
gathers ``A[C[i]]``, strided ``A[2*i]``, offsets ``A[i + c]`` and
``B[i - 1]``, streamed-block indexes ``X[i - s]``, inner ``for`` loops,
calls of a user function with early returns, int division and modulo —
at cache-resident and at paper scale (where bytes and irregular accesses
are charged).  Both engines must produce the same output bytes, op
counters and simulated time, or fail with the same error class and
leave the same partial state.  Kernels with a colliding scatter, a read
of another lane's written slot, or a lane-varying inner bound must fall
back to the scalar tier.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minic.parser import parse
from repro.runtime.executor import Executor, Machine

ENGINES = ("tree", "codegen")

#: Inlined by every kernel that calls it: two early returns, one of them
#: under a lane-varying condition.
FUNCTION = """
float shape(float x, int k) {
    if (x > 0.5) {
        return x * 2.0;
    }
    if (k % 3 == 0) {
        return 0.0 - x;
    }
    return x + 1.0;
}
"""

_float_leaf = st.sampled_from(
    ["A[i]", "B[i]", "A[2 * i]", "A[C[i]]", "A[i + 1]", "A[i + 3]",
     "(i > 0 ? B[i - 1] : 0.5)", "(float)i", "1.5", "0.25", "i"]
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
    """``(text, must fall back)`` for one body statement, each form
    drawn equally often."""
    fe, ie = _float_expr(), _int_expr()
    forms = [
        fe.map(lambda e: (f"OUT[i] = {e};", False)),
        ie.map(lambda e: (f"IOUT[i] = {e};", False)),
        st.tuples(_cond, fe, fe).map(
            lambda t: (f"if ({t[0]}) {{ OUT[i] = {t[1]}; }} "
                       f"else {{ OUT[i] = {t[2]}; }}", False)
        ),
        st.tuples(st.integers(0, 4), _float_expr(1)).map(
            lambda t: ("{ float acc = 0.0; "
                       f"for (int j = 0; j < {t[0]}; j++) "
                       f"{{ acc = acc + {t[1]} * j; }} OUT[i] = acc; }}", False)
        ),
        fe.map(lambda e: (f"{{ float t = {e}; OUT[i] = t * 2.0; }}", False)),
        st.tuples(_float_expr(1), _int_expr(0)).map(
            lambda t: (f"OUT[i] = shape((float)({t[0]}), {t[1]});", False)
        ),
        # Lanes 2k and 2k+1 write the same slot.
        fe.map(lambda e: (f"OUT[(i - s) / 2] = {e};", True)),
        # Lane k reads the slot lane k+1 writes.
        fe.map(lambda e: (f"W[i - s] = W[(i - s + 1) % n] + {e};", True)),
        _float_expr(1).map(
            lambda e: ("{ float acc = 0.0; "
                       "for (int j = 0; j < X[i] + 3; j++) "
                       f"{{ acc = acc + {e}; }} OUT[i] = acc; }}", True)
        ),
    ]
    return st.integers(0, len(forms) - 1).flatmap(lambda k: forms[k])


@st.composite
def kernels(draw):
    statements = draw(st.lists(_statement(), min_size=1, max_size=3))
    body = " ".join(text for text, _ in statements)
    n = draw(st.integers(1, 12))
    # A streamed block runs lanes s..s+n-1 and indexes X[i - s].
    start = draw(st.sampled_from([0, 0, 3]))
    if start:
        body = body.replace("[i]", "[i - s]")
    seed = draw(st.integers(0, 2**16))
    # Most kernels keep gathers in range; some may index past the end.
    gather_slack = draw(st.sampled_from([0, 0, 0, 3]))
    scale = draw(st.sampled_from([1.0, 1e5]))
    source = (
        FUNCTION + "void main() {\n#pragma omp parallel for\n"
        f"for (int i = s; i < s + n; i++) {{ {body} }}\n}}\n"
    )
    falls_back = n >= 2 and any(flag for _, flag in statements)
    return source, n, start, seed, gather_slack, scale, falls_back


def _arrays(n, start, seed, gather_slack):
    rng = np.random.default_rng(seed)
    size = 2 * (n + start) + 4
    return {
        "A": rng.integers(-4, 5, size).astype(np.float64) * 0.5,
        "B": rng.integers(-4, 5, n + start).astype(np.float64) * 0.25,
        "C": rng.integers(0, size + gather_slack, n + start).astype(np.int32),
        "X": rng.integers(-2, 3, n + start).astype(np.int32),
        "W": rng.integers(-4, 5, n + start).astype(np.float64),
        "OUT": np.zeros(n + start, dtype=np.float64),
        "IOUT": np.zeros(n + start, dtype=np.int32),
    }


def _observe(kernel, engine):
    source, n, start, seed, gather_slack, scale, _ = kernel
    arrays = _arrays(n, start, seed, gather_slack)
    executor = Executor(parse(source), Machine(scale=scale), engine=engine)
    try:
        result = executor.run(arrays=arrays, scalars={"n": n, "s": start})
    except Exception as exc:  # the error class is what must agree
        outcome = ("error", type(exc).__name__)
    else:
        outcome = (
            "ok",
            result.stats.ops.as_dict(),
            repr(result.stats.total_time),
        )
    state = {k: (v.dtype.str, v.tobytes()) for k, v in arrays.items()}
    return (outcome, state), executor._codegen_stats["ran"]


@given(kernels())
@settings(max_examples=100, deadline=None)
def test_engines_agree_on_generated_kernels(kernel):
    reference, _ = _observe(kernel, "tree")
    for engine in ENGINES[1:]:
        observed, ran = _observe(kernel, engine)
        assert observed == reference, (
            f"{engine} disagrees with tree on:\n{kernel[0]}"
        )
        if kernel[-1]:
            assert ran == 0, f"{engine} should have fallen back on:\n{kernel[0]}"
