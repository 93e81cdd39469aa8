"""Shared numpy-backed math builtins for both execution engines.

The scalar tier and the codegen tier must produce bit-identical
outputs.  numpy's float64 ufuncs (``np.exp`` …) are not
bitwise equal to libm's (:mod:`math`) for every input, so the engines
cannot mix the two families.  This module makes *numpy* the single
reference implementation:

* the scalar tier calls the scalar wrappers below (one element at a
  time, through ``_BUILTIN_IMPL``);
* the codegen tier calls the vector implementations over whole lane
  vectors.

numpy evaluates a 0-d/scalar ufunc call through the same kernel as the
corresponding lane of a vectorized call, so scalar and vector results
are bitwise equal by construction (the engine-differential suite pins
this).  What numpy does **not** share with :mod:`math` is error
behaviour — ufuncs return ``nan``/``inf`` where ``math.log`` raises —
so each wrapper restores the :mod:`math` error contract exactly:
``ValueError("math domain error")`` and ``OverflowError("math range
error")`` under the same conditions ``math.exp``/``log``/``sin``/
``cos``/``pow`` raise them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "scalar_exp",
    "scalar_log",
    "scalar_sin",
    "scalar_cos",
    "scalar_pow",
    "vector_exp",
    "vector_log",
    "vector_sin",
    "vector_cos",
    "vector_pow",
]


# --------------------------------------------------------------------------
# Scalar wrappers (tree walker)
# --------------------------------------------------------------------------


def scalar_exp(x):
    """``math.exp`` semantics computed through ``np.exp``."""
    x = float(x)
    r = float(np.exp(x))
    if math.isinf(r) and not math.isinf(x):
        raise OverflowError("math range error")
    return r


def scalar_log(x):
    """``math.log`` semantics computed through ``np.log``."""
    x = float(x)
    if x <= 0.0:
        raise ValueError("math domain error")
    return float(np.log(x))


def scalar_sin(x):
    """``math.sin`` semantics computed through ``np.sin``."""
    x = float(x)
    if math.isinf(x):
        raise ValueError("math domain error")
    return float(np.sin(x))


def scalar_cos(x):
    """``math.cos`` semantics computed through ``np.cos``."""
    x = float(x)
    if math.isinf(x):
        raise ValueError("math domain error")
    return float(np.cos(x))


def scalar_pow(x, y):
    """``math.pow`` semantics computed through ``np.power``.

    Both arguments are forced to float64 first — ``np.power(2, 3)``
    would otherwise stay integer where ``math.pow`` returns a float.
    """
    x = float(x)
    y = float(y)
    with np.errstate(all="ignore"):
        r = float(np.power(np.float64(x), np.float64(y)))
    if math.isnan(r) and not (math.isnan(x) or math.isnan(y)):
        raise ValueError("math domain error")
    if math.isinf(r) and not (math.isinf(x) or math.isinf(y)):
        if x == 0.0:
            raise ValueError("math domain error")
        raise OverflowError("math range error")
    return r


# --------------------------------------------------------------------------
# Vector implementations (codegen tier)
# --------------------------------------------------------------------------


def vector_exp(a):
    """Vector ``exp`` with ``math.exp``'s overflow contract.

    The second ``isinf`` pass (was the *input* already infinite, which
    ``math.exp`` forgives?) only runs when the result overflowed
    somewhere — the common all-finite case costs exp + isinf + any."""
    with np.errstate(all="ignore"):
        r = np.exp(a)
    bad = np.isinf(r)
    if bad.any():
        if bool((bad & ~np.isinf(a)).any()):
            raise OverflowError("math range error")
    return r


def vector_log(a):
    """Vector ``log`` with ``math.log``'s domain contract."""
    if (a <= 0.0).any():
        raise ValueError("math domain error")
    with np.errstate(all="ignore"):
        return np.log(a)


def vector_sin(a):
    """Vector ``sin`` with ``math.sin``'s domain contract."""
    if np.isinf(a).any():
        raise ValueError("math domain error")
    return np.sin(a)


def vector_cos(a):
    """Vector ``cos`` with ``math.cos``'s domain contract."""
    if np.isinf(a).any():
        raise ValueError("math domain error")
    return np.cos(a)


def vector_pow(a, b):
    """Vector ``pow`` with ``math.pow``'s domain/range contract.

    Either argument may be a scalar; the error raised matches what the
    tree walker would raise on the first offending lane.
    """
    with np.errstate(all="ignore"):
        r = np.power(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    if not (np.isnan(r) | np.isinf(r)).any():
        return r  # all results finite: no contract to enforce
    ab = np.broadcast_to(np.asarray(a, dtype=np.float64), r.shape)
    bb = np.broadcast_to(np.asarray(b, dtype=np.float64), r.shape)
    bad = (np.isnan(r) & ~(np.isnan(ab) | np.isnan(bb))) | (
        np.isinf(r) & ~(np.isinf(ab) | np.isinf(bb))
    )
    if bool(np.any(bad)):
        i = int(np.argmax(bad))
        if np.isnan(r.flat[i]) or ab.flat[i] == 0.0:
            raise ValueError("math domain error")
        raise OverflowError("math range error")
    return r


#: Scalar implementations keyed by builtin name (what the tree walker's
#: ``_BUILTIN_IMPL`` splices in for the libm-divergent builtins).
SCALAR_IMPL = {
    "exp": scalar_exp,
    "log": scalar_log,
    "sin": scalar_sin,
    "cos": scalar_cos,
    "pow": scalar_pow,
}

#: Single-argument vector implementations keyed by builtin name.
VECTOR_IMPL = {
    "exp": vector_exp,
    "log": vector_log,
    "sin": vector_sin,
    "cos": vector_cos,
}
