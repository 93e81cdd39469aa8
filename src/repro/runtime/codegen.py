"""Codegen execution of parallel loops: MiniC → generated numpy source.

The scalar tier in :mod:`repro.runtime.executor` runs a parallel loop
trip by trip.  This tier lowers a ``#pragma omp parallel for`` body to a
*self-contained Python function* over numpy arrays, one "lane" per
iteration — vectorized expressions, guards lowered to masks, inner
sequential loops lowered to Python loops over the vectorized body, user
functions inlined, every analytic op-counter charge coalesced per masked
region — compiles it once with :func:`compile`/``exec``, and caches it
keyed on the kernel's canonical printed form (plus the inlined
functions'), the transform-pipeline provenance and the concrete
dtype/scalar-kind signature.  The executor's ladder is codegen, then the
scalar tier for every loop this tier rejects.

Semantics are bit-identical to the scalar tier by construction:

* Loads widen to float64/int64 lanes holding exactly the Python
  ``float``/``int`` values the scalar tier computes per iteration;
  stores cast back with the same numpy casting rules.
* Math builtins route through :mod:`repro.runtime.mathops`, the same
  numpy-backed reference implementations the scalar tier calls.
* Control flow is predicated: guards become mask refinements with
  popcount-gated regions (a region whose mask is empty never executes,
  exactly like an untaken branch), lane-invariant conditions keep the
  enclosing mask, ``&&``/``||`` evaluate their right side only under the
  lanes short-circuiting reaches, and a ``return`` inside an inlined
  function narrows the function's live mask.
* Op counters accrue analytically: per-site charges are accumulated
  statically and emitted as ``counters.field += k * n_active`` per masked
  region — every increment is an integer-valued float far below 2**53,
  so the coalesced totals equal the scalar tier's per-lane ``+= 1`` sums
  exactly.  Irregular-access accounting classifies each site once, with
  the integer bindings of the first lane that reaches it (the lane whose
  evaluation fills the scalar tier's per-site cache).
* Writes land in shadow copies committed only after the generated
  function finishes.  Arrays reached through any index other than the
  induction variable itself log every slot each lane touches, and the
  commit is refused when one lane's read or write slot is written by a
  different lane.  A kernel that faults or bails leaves no side effect,
  so the scalar tier replays the loop and reproduces the exact error and
  partial state sequential execution mandates.

Rejected outright: ``while``/``do``/``break``/``continue``, writes to
enclosing scalars, recursion, allocation intrinsics, unknown calls,
uninitialized or non-scalar locals and struct member accesses.  Inner
loops must keep lane-invariant bounds, and kinds must stay fixed across
their iterations; a loop that breaks either rule is rejected the first
time it does.
"""

from __future__ import annotations

import keyword
import re
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ExecutionError, ReproError
from repro.hardware.device import OpCounters
from repro.minic import ast_nodes as ast
from repro.minic.printer import to_source
from repro.runtime import mathops


class CodegenIneligible(Exception):
    """The emitter cannot prove this construct vectorizable."""


class _TransientBail(Exception):
    """A per-call check failed (bounds/aliasing); retry next entry."""


#: Builtins the emitter lowers, with their fixed arity (None = variadic,
#: at least two arguments).
_BUILTIN_ARITY = {
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "fabs": 1,
    "abs": 1,
    "floor": 1,
    "ceil": 1,
    "pow": 2,
    "min": None,
    "max": None,
}

#: Names the generated module namespace reserves.
_RESERVED = {"np", "rt"}

#: Parameter prefix of names an inlined function resolves through the
#: context's root scope rather than the loop's environment.
_ROOT = "__cg_g_"

_ASSIGN_OPS = ("+", "-", "*", "/", "%")


def _bad_name(name: str) -> bool:
    return (
        keyword.iskeyword(name) or name.startswith("__cg") or name in _RESERVED
    )


# ==========================================================================
# Loop-shape recognition
# ==========================================================================


def _loop_var_name(loop: ast.For) -> Optional[str]:
    """The induction variable a ``for`` init declares or assigns."""
    if isinstance(loop.init, ast.VarDecl):
        return loop.init.name
    if isinstance(loop.init, ast.Assign) and isinstance(loop.init.target, ast.Ident):
        return loop.init.target.name
    return None


def _walk_expr(expr: ast.Expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in node.children() if isinstance(c, ast.Expr))


def _is_pure(expr: ast.Expr) -> bool:
    """No calls or memory reads: safe to evaluate once, and to re-evaluate
    on fallback."""
    return not any(
        isinstance(n, (ast.Call, ast.Subscript, ast.Member)) for n in _walk_expr(expr)
    )


def _step_increment(step: ast.Stmt, var: str) -> Optional[ast.Expr]:
    """The per-trip increment expression, or None when unrecognized.

    Handles ``i += c`` / ``i -= c`` / ``i = i + c`` / ``i = c + i`` /
    ``i = i - c`` (subtractions return a negating UnOp)."""
    if not (
        isinstance(step, ast.Assign)
        and isinstance(step.target, ast.Ident)
        and step.target.name == var
    ):
        return None
    if step.op == "+=":
        return step.value
    if step.op == "-=":
        return ast.UnOp("-", step.value)
    if step.op == "=" and isinstance(step.value, ast.BinOp):
        b = step.value
        if b.op == "+" and isinstance(b.left, ast.Ident) and b.left.name == var:
            return b.right
        if b.op == "+" and isinstance(b.right, ast.Ident) and b.right.name == var:
            return b.left
        if b.op == "-" and isinstance(b.left, ast.Ident) and b.left.name == var:
            return ast.UnOp("-", b.right)
    return None


def _trip_count(start: int, bound: int, op: str, stride: int) -> Optional[int]:
    """Exact trip count of ``for (i = start; i OP bound; i += stride)``."""
    if op in ("<", "<="):
        limit = bound + (1 if op == "<=" else 0)
        if start >= limit:
            return 0
        if stride <= 0:
            return None  # the scalar tier would not terminate either
        return -((start - limit) // stride)
    if op in (">", ">="):
        limit = bound - (1 if op == ">=" else 0)
        if start <= limit:
            return 0
        if stride >= 0:
            return None
        return -((limit - start) // (-stride))
    return None


class LoopBounds:
    """A recognized counted loop: induction variable, lanes, trip count."""

    __slots__ = ("var", "scope", "start", "stride", "trips")

    def __init__(self, var, scope, start, stride, trips):
        self.var = var
        self.scope = scope
        self.start = start
        self.stride = stride
        self.trips = trips

    def finalize_induction(self):
        """Leave the induction variable where the scalar tier would: the
        first value failing the condition.  VarDecl inits die with the
        loop scope; assignment inits write through to the enclosing
        binding."""
        self.scope.set(self.var, self.start + self.stride * self.trips)


def _loop_shape(loop: ast.For):
    """``(var, bound expression, comparison, step expression)`` of a
    counted ``for (init; var OP bound; var += step)``.

    Purity of all three clauses is required so a later fallback's
    re-execution is idempotent.  Raises :class:`CodegenIneligible` when
    the shape is not recognized.
    """
    if loop.init is None or loop.cond is None or loop.step is None:
        raise CodegenIneligible("loop without init/cond/step")
    var = _loop_var_name(loop)
    if var is None:
        raise CodegenIneligible("unrecognized induction variable")

    cond = loop.cond
    if not isinstance(cond, ast.BinOp) or cond.op not in ("<", "<=", ">", ">="):
        raise CodegenIneligible("unrecognized loop condition")
    if isinstance(cond.left, ast.Ident) and cond.left.name == var:
        bound_expr, op = cond.right, cond.op
    elif isinstance(cond.right, ast.Ident) and cond.right.name == var:
        mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        bound_expr, op = cond.left, mirror[cond.op]
    else:
        raise CodegenIneligible("condition does not test the induction variable")
    step_expr = _step_increment(loop.step, var)
    init_expr = loop.init.init if isinstance(loop.init, ast.VarDecl) else loop.init.value
    if step_expr is None or init_expr is None:
        raise CodegenIneligible("unrecognized loop step or init")
    if not (_is_pure(init_expr) and _is_pure(bound_expr) and _is_pure(step_expr)):
        raise CodegenIneligible("impure loop bounds")
    return var, bound_expr, op, step_expr


def recognize_bounds(executor, loop: ast.For, env, shape) -> LoopBounds:
    """The lanes of *loop*, whose :func:`_loop_shape` is *shape*.

    Executes the init clause exactly as the scalar tier would — charged
    to the loop's counters, root-declaring assignment-style inits — and
    evaluates the bound/stride uncharged.  Raises
    :class:`CodegenIneligible` when the values do not make a counted loop.
    """
    from repro.runtime.executor import Env

    var, bound_expr, op, step_expr = shape

    scope = Env(parent=env)
    executor._exec_stmt(loop.init, scope)
    start = scope.get(var)
    bound = executor._eval_clause(bound_expr, scope)
    stride = executor._eval_clause(step_expr, scope)
    for v in (start, bound, stride):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise CodegenIneligible("non-integer loop bounds")
    start, bound, stride = int(start), int(bound), int(stride)
    if stride == 0:
        raise CodegenIneligible("zero loop stride")
    trips = _trip_count(start, bound, op, stride)
    if trips is None:
        raise CodegenIneligible("non-terminating loop bounds")
    return LoopBounds(var, scope, start, stride, trips)


# ==========================================================================
# Static screen
# ==========================================================================


class _StaticInfo:
    """Cacheable per-loop-node verdict plus the loop's free names.

    Free names are generated-code parameter names: a loop-body name as
    written, a name an inlined function resolves through the root scope
    with the :data:`_ROOT` prefix.  *general* holds the arrays reached
    through any index other than the induction variable, *direct* those
    reached through the induction variable itself.  *sites* lists each
    non-direct access site as ``(subscript node, innermost loop
    variable, inside a function)``; *site_ids* maps ``(id(node), var)``
    to its position, which generated code uses to name the site.
    """

    __slots__ = (
        "eligible",
        "reason",
        "var",
        "shape",
        "array_names",
        "scalar_names",
        "written",
        "general",
        "direct",
        "sites",
        "site_ids",
        "functions",
        "src",
    )

    def __init__(self):
        self.eligible = True
        self.reason: Optional[str] = None
        self.var: Optional[str] = None
        self.shape: Optional[tuple] = None
        self.array_names: List[str] = []
        self.scalar_names: List[str] = []
        self.written: set = set()
        self.general: set = set()
        self.direct: set = set()
        self.sites: list = []
        self.site_ids: Dict[tuple, int] = {}
        self.functions: List[str] = []
        self.src: Optional[str] = None

    def reject(self, reason: str) -> None:
        self.eligible = False
        self.reason = reason


def _has_return(stmt: ast.Stmt) -> bool:
    stack = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            return True
        stack.extend(c for c in node.children() if isinstance(c, ast.Stmt))
    return False


class _Screen:
    """Scope-aware syntactic walk: statement/expression shape only.

    Collects the loop's free names (subscript bases become the array
    signature, bare free identifiers the scalar signature) in order of
    first appearance, so the generated function's parameter list is
    deterministic.  User functions are walked at each call, in the
    caller's loop-variable context, with their own scopes; their free
    names resolve through the root scope.
    """

    def __init__(self, var: str, functions, global_induction: bool):
        self.var = var
        self.functions = functions
        self.global_induction = global_induction
        self.info = _StaticInfo()
        self.scopes: List[set] = [set()]
        self.func: Optional[str] = None
        self.calls: tuple = ()
        self.loop_vars: List[str] = [var]
        self.inner_depth = 0

    def _is_local(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def _free(self, name: str) -> str:
        if _bad_name(name):
            raise CodegenIneligible(f"unsupported name {name!r}")
        return name if self.func is None else _ROOT + name

    def _free_scalar(self, name: str) -> None:
        if self.func is not None and name == self.var and self.global_induction:
            # The root binding still holds the pre-loop value; the scalar
            # tier would show the function the current lane's value.
            raise CodegenIneligible("function reads the induction variable")
        py = self._free(name)
        info = self.info
        if py in info.array_names:
            raise CodegenIneligible(f"{name!r} used both bare and subscripted")
        if py not in info.scalar_names:
            info.scalar_names.append(py)

    def _free_array(self, name: str) -> str:
        py = self._free(name)
        if self._is_local(name) or (self.func is None and name == self.var):
            raise CodegenIneligible("subscript of a local value")
        info = self.info
        if py in info.scalar_names:
            raise CodegenIneligible(f"{name!r} used both bare and subscripted")
        if py not in info.array_names:
            info.array_names.append(py)
        return py

    # -- statements --------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> None:
        t = type(node)
        if t is ast.Block:
            self.scopes.append(set())
            try:
                for s in node.stmts:
                    self.stmt(s)
            finally:
                self.scopes.pop()
        elif t is ast.VarDecl:
            self.decl(node)
        elif t is ast.Assign:
            self.assign(node)
        elif t is ast.ExprStmt:
            self.expr(node.expr)
        elif t is ast.If:
            self.expr(node.cond)
            for arm in (node.then, node.other):
                if arm is None:
                    continue
                if type(arm) is ast.VarDecl:
                    # A bare declaration as an arm would leak a partially
                    # defined name into the enclosing scope.
                    raise CodegenIneligible("declaration as a bare if-arm")
                self.stmt(arm)
        elif t is ast.For:
            self.inner_for(node)
        elif t is ast.Return:
            if self.func is None:
                raise CodegenIneligible("return inside parallel loop body")
            if self.inner_depth:
                raise CodegenIneligible("return inside an inner loop")
            if node.value is not None:
                self.expr(node.value)
        else:
            raise CodegenIneligible(f"statement {t.__name__}")

    def decl(self, node: ast.VarDecl) -> None:
        if not isinstance(node.type, ast.BaseType):
            raise CodegenIneligible("non-scalar local declaration")
        if node.init is None:
            raise CodegenIneligible("uninitialized local")
        if self.func is None and node.name == self.var:
            raise CodegenIneligible("local shadows the induction variable")
        if _bad_name(node.name):
            raise CodegenIneligible(f"unsupported name {node.name!r}")
        self.expr(node.init)
        self.scopes[-1].add(node.name)

    def assign(self, node: ast.Assign) -> None:
        op = node.op
        if op != "=" and not (
            len(op) == 2 and op[0] in _ASSIGN_OPS and op[1] == "="
        ):
            raise CodegenIneligible(f"assignment operator {op!r}")
        self.expr(node.value)
        target = node.target
        if type(target) is ast.Ident:
            if self.func is None and target.name == self.var:
                raise CodegenIneligible("write to the induction variable")
            if not self._is_local(target.name):
                raise CodegenIneligible(
                    f"assignment to non-local {target.name!r}"
                )
        elif type(target) is ast.Subscript:
            self.info.written.add(self.subscript(target))
        else:
            raise CodegenIneligible(
                f"assignment to {type(target).__name__}"
            )

    def inner_for(self, node: ast.For) -> None:
        """An inner sequential loop; its bounds are checked lane-invariant
        when the kernel runs."""
        if node.pragmas:
            raise CodegenIneligible("pragma on an inner loop")
        if node.init is None or node.cond is None or node.step is None:
            raise CodegenIneligible("inner loop without init/cond/step")
        if type(node.init) not in (ast.VarDecl, ast.Assign):
            raise CodegenIneligible("inner loop init is not a declaration")
        if type(node.step) is not ast.Assign:
            raise CodegenIneligible("inner loop step is not an assignment")
        var = _loop_var_name(node)
        self.scopes.append(set())
        self.inner_depth += 1
        try:
            self.stmt(node.init)
            if var is not None:
                self.loop_vars.append(var)
            self.expr(node.cond)
            self.stmt(node.body)
            self.stmt(node.step)
            if var is not None:
                self.loop_vars.pop()
        finally:
            self.inner_depth -= 1
            self.scopes.pop()

    # -- expressions -------------------------------------------------------

    def subscript(self, node: ast.Subscript) -> str:
        if type(node.base) is not ast.Ident:
            raise CodegenIneligible("subscript base is not a name")
        py = self._free_array(node.base.name)
        index = node.index
        info = self.info
        if (
            self.func is None
            and type(index) is ast.Ident
            and index.name == self.var
        ):
            # slot == lane: never a cross-lane hazard, never irregular.
            info.direct.add(py)
            return py
        self.expr(index)
        info.general.add(py)
        key = (id(node), self.loop_vars[-1])
        if key not in info.site_ids:
            info.site_ids[key] = len(info.sites)
            info.sites.append((node, key[1], self.func is not None))
        return py

    def expr(self, node: ast.Expr) -> None:
        t = type(node)
        if t in (ast.IntLit, ast.FloatLit):
            return
        if t is ast.Ident:
            local = self._is_local(node.name)
            if not local and (self.func is not None or node.name != self.var):
                self._free_scalar(node.name)
            return
        if t is ast.BinOp:
            self.expr(node.left)
            self.expr(node.right)
            return
        if t is ast.UnOp:
            if node.op not in ("-", "!"):
                raise CodegenIneligible(f"unary operator {node.op!r}")
            self.expr(node.operand)
            return
        if t is ast.Cond:
            self.expr(node.cond)
            self.expr(node.then)
            self.expr(node.other)
            return
        if t is ast.Cast:
            if not isinstance(node.type, ast.BaseType):
                raise CodegenIneligible("non-scalar cast")
            self.expr(node.operand)
            return
        if t is ast.Subscript:
            self.subscript(node)
            return
        if t is ast.Call:
            for arg in node.args:
                self.expr(arg)
            func = self.functions.get(node.func)
            if func is not None:
                self.call(func, len(node.args))
                return
            arity = _BUILTIN_ARITY.get(node.func)
            if node.func not in _BUILTIN_ARITY:
                raise CodegenIneligible(f"call to {node.func!r}")
            if arity is None:
                if len(node.args) < 2:
                    raise CodegenIneligible(f"{node.func}() arity")
            elif len(node.args) != arity:
                raise CodegenIneligible(f"{node.func}() arity")
            return
        raise CodegenIneligible(f"expression {t.__name__}")

    def call(self, func: ast.FuncDef, nargs: int) -> None:
        """Walk *func*'s body as an inlined frame."""
        if func.name in self.calls:
            raise CodegenIneligible(f"recursive call to {func.name}()")
        if nargs != len(func.params):
            raise CodegenIneligible(f"{func.name}() arity")
        params = {p.name for p in func.params}
        if any(_bad_name(name) for name in params):
            raise CodegenIneligible(f"unsupported parameter of {func.name}()")
        if func.name not in self.info.functions:
            self.info.functions.append(func.name)
        saved = (self.scopes, self.func, self.inner_depth, self.calls)
        self.scopes, self.func, self.inner_depth = [params], func.name, 0
        self.calls += (func.name,)
        try:
            self.stmt(func.body)
        finally:
            self.scopes, self.func, self.inner_depth, self.calls = saved


def analyze_loop(loop: ast.For, functions=None) -> _StaticInfo:
    """The per-loop-node static verdict (cached by the driver).

    *functions* maps the program's function names to their definitions;
    calls to them are inlined."""
    try:
        shape = _loop_shape(loop)
        var = shape[0]
        if _bad_name(var):
            raise CodegenIneligible(f"unsupported name {var!r}")
        screen = _Screen(
            var, functions or {}, not isinstance(loop.init, ast.VarDecl)
        )
        screen.info.var, screen.info.shape = var, shape
        screen.stmt(loop.body)
    except CodegenIneligible as exc:
        info = _StaticInfo()
        info.reject(str(exc))
        return info
    return screen.info


# ==========================================================================
# Emitter
# ==========================================================================


class _Val:
    """A generated expression: its Python text and its static kind."""

    __slots__ = ("py", "kind")

    def __init__(self, py: str, kind: str):
        self.py = py
        self.kind = kind


class _Local:
    """A MiniC local: its Python name, current kind, and the mask of the
    region it was declared under (assignments under that same mask
    overwrite; any narrower mask blends)."""

    __slots__ = ("py", "kind", "mask")

    def __init__(self, py: str, kind: str, mask: str):
        self.py = py
        self.kind = kind
        self.mask = mask


class _Region:
    """One masked region: charges coalesce here and flush at its end.

    An uncharged region (inner-loop condition and step) flushes nothing,
    and every region opened inside it is uncharged too."""

    __slots__ = ("mask", "count", "charged", "charges", "abytes", "irregular")

    def __init__(self, mask: str, count: str, charged: bool = True):
        self.mask = mask
        self.count = count
        self.charged = charged
        self.charges: Dict[str, float] = {}
        self.abytes: Dict[str, List[int]] = {}
        self.irregular: Dict[str, List[str]] = {}

    def charge(self, field: str, amount) -> None:
        self.charges[field] = self.charges.get(field, 0) + amount

    def charge_bytes(self, array: str, nbytes: int, is_write: bool) -> None:
        slot = self.abytes.setdefault(array, [0, 0])
        slot[1 if is_write else 0] += nbytes


class _Frame:
    """One inlining level: the loop body, or an inlined function call
    whose returns update ``(value, returned-lanes)`` temps."""

    __slots__ = ("scopes", "func", "ret", "ret_kind")

    def __init__(self, func: Optional[ast.FuncDef] = None, ret=None):
        self.scopes: List[Dict[str, _Local]] = [{}]
        self.func = func
        self.ret = ret
        self.ret_kind: Optional[str] = None


class _ArrInfo:
    __slots__ = ("py", "kind", "itemsize", "written", "general", "direct")

    def __init__(self, py, kind, itemsize, written, general, direct):
        self.py = py
        self.kind = kind  # 'f' or 'i' (the *lane* kind after gathering)
        self.itemsize = itemsize
        self.written = written
        #: Written through any index but the induction variable: a full
        #: shadow copy plus a slot log for the cross-lane hazard check.
        self.general = general
        self.direct = direct

    @property
    def view(self) -> str:
        return f"__cg_v_{self.py}"

    @property
    def shadow(self) -> str:
        return f"__cg_sh_{self.py}"

    @property
    def log(self) -> str:
        return f"__cg_hz_{self.py}"


class _Emitter:
    """Lowers one screened loop body to Python source.

    Three-address style: every subexpression lands in a ``__cg_t<k>``
    temp, masks in ``__cg_m<k>``, active-lane counts in ``__cg_n<k>``.
    Kinds ('i'/'f') are tracked flow-sensitively per local, mirroring the
    scalar tier's runtime coercions; any construct whose kind cannot be
    proven statically raises :class:`CodegenIneligible`.
    """

    def __init__(self, info: _StaticInfo, arrays: Dict[str, _ArrInfo],
                 scalars: Dict[str, str], functions):
        self.info = info
        self.var = info.var
        self.arrays = arrays
        self.scalars = scalars
        self.functions = functions
        self.lines: List[str] = []
        self.indent = 1
        self.counter = 0
        self.used = set(_RESERVED) | {self.var} | set(arrays) | set(scalars)
        self.regions = [_Region("None", "__cg_n0")]
        self.frame = _Frame()
        self.loop_vars: List[str] = [self.var]
        # Common-subexpression tables, one per region (a temp emitted
        # under a mask guard is only defined inside that guard).  Keys
        # never mention reassignable local names, so no invalidation is
        # needed; charges accrue per *site*, so a CSE hit still counts
        # every operation the scalar tier would perform.
        self.cse: List[Dict[tuple, _Val]] = [{}]
        self.local_pys: set = set()
        # Every name the liveness post-pass may ``del`` after its last
        # textual use.  A kernel body holds ~25 live full-width temps —
        # several MB that overflow L2 and make every numpy pass stream
        # from L3; freeing each temp as it dies keeps the working set to
        # a handful of hot buffers (measured ~2.3x on the bench kernel).
        self.deletable: set = set()

    # -- plumbing ----------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        name = f"__cg_{prefix}{self.counter}"
        self.deletable.add(name)
        return name

    def fresh_local(self, name: str) -> str:
        if name not in self.used and not _bad_name(name):
            self.used.add(name)
            py = name
        else:
            k = 2
            while f"{name}__{k}" in self.used:
                k += 1
            py = f"{name}__{k}"
            self.used.add(py)
        self.local_pys.add(py)
        return py

    def find_local(self, name: str) -> Optional[_Local]:
        for scope in reversed(self.frame.scopes):
            if name in scope:
                return scope[name]
        return None

    @property
    def region(self) -> _Region:
        return self.regions[-1]

    def sub_region(self, mask: str, count: str) -> _Region:
        return _Region(mask, count, self.region.charged)

    def flush(self, region: _Region) -> None:
        if not region.charged:
            return
        for field in ("flops", "int_ops", "loads", "stores", "calls", "branches"):
            amount = region.charges.get(field)
            if amount:
                self.line(f"__cg_c.{field} += {amount!r} * {region.count}")
        for name, (rbytes, wbytes) in region.abytes.items():
            irregular = region.irregular.get(name)
            self.line(f"if not __cg_cached_{name}:")
            self.indent += 1
            if rbytes:
                self.line(f"__cg_c.bytes_read += {rbytes} * {region.count}")
            if wbytes:
                self.line(f"__cg_c.bytes_written += {wbytes} * {region.count}")
            if irregular:
                self.line(
                    f"__cg_c.irregular_accesses += "
                    f"({' + '.join(irregular)}) * {region.count}"
                )
            self.indent -= 1

    def masked_block(self, guard_count: str, region: _Region, body) -> None:
        """Emit ``if <count>:`` around *body* emitted inside *region*."""
        self.line(f"if {guard_count}:")
        self.indent += 1
        mark = len(self.lines)
        self.regions.append(region)
        self.cse.append({})
        try:
            body()
            self.flush(region)
        finally:
            self.regions.pop()
            self.cse.pop()
        if len(self.lines) == mark:
            self.line("pass")
        self.indent -= 1

    # -- common subexpressions ---------------------------------------------

    def cse_key(self, *parts) -> Optional[tuple]:
        """A value number for a pure operation, or None when any operand
        is a reassignable local (whose name does not pin its value)."""
        for part in parts:
            if part in self.local_pys:
                return None
        return parts

    def cse_get(self, key) -> Optional[_Val]:
        for table in reversed(self.cse):
            hit = table.get(key)
            if hit is not None:
                return hit
        return None

    def cse_put(self, key, val: _Val) -> None:
        self.cse[-1][key] = val

    def temp(self, key, text: str, kind: str) -> _Val:
        """``t = text`` as a fresh temp, value-numbered under *key*."""
        key = None if key is None else self.cse_key(*key)
        if key is not None:
            hit = self.cse_get(key)
            if hit is not None:
                return hit
        t = self.fresh("t")
        self.line(f"{t} = {text}")
        out = _Val(t, kind)
        if key is not None:
            self.cse_put(key, out)
        return out

    # -- coercions ---------------------------------------------------------

    def to_int(self, val: _Val) -> _Val:
        if val.kind == "i":
            return val
        return self.temp(("rt.toi", val.py), f"rt.toi({val.py})", "i")

    def to_float(self, val: _Val) -> _Val:
        if val.kind == "f":
            return val
        return self.temp(("rt.tof", val.py), f"rt.tof({val.py})", "f")

    def coerce_decl(self, type_name: str, val: _Val) -> _Val:
        if type_name == "int":
            return self.to_int(val)
        if type_name in ("float", "double"):
            return self.to_float(val)
        return val  # char and friends pass through, like the scalar tier

    # -- statements --------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> None:
        t = type(node)
        if t is ast.Block:
            self.frame.scopes.append({})
            try:
                self.block(node.stmts)
            finally:
                self.frame.scopes.pop()
        elif t is ast.VarDecl:
            self.emit_decl(node)
        elif t is ast.Assign:
            self.emit_assign(node)
        elif t is ast.ExprStmt:
            self.expr(node.expr, used=False)
        elif t is ast.If:
            self.emit_if(node)
        elif t is ast.For:
            self.emit_for(node)
        elif t is ast.Return:
            self.emit_return(node)
        else:  # pragma: no cover - screened earlier
            raise CodegenIneligible(f"statement {t.__name__}")

    def block(self, stmts: List[ast.Stmt]) -> None:
        """Statements in order; after one that may return from the
        inlined function, the rest runs only on the lanes still live."""
        for k, s in enumerate(stmts):
            self.stmt(s)
            rest = stmts[k + 1:]
            if self.frame.func is None or not rest or not _has_return(s):
                continue
            if type(s) is ast.Return:
                return  # unreachable on every lane this region runs
            region = self.region
            mask, count = self.fresh("m"), self.fresh("n")
            self.line(
                f"{mask}, {count} = "
                f"rt.live({region.mask}, {self.frame.ret[1]}, {region.count})"
            )
            self.masked_block(
                count, self.sub_region(mask, count), lambda: self.block(rest)
            )
            return

    def emit_decl(self, node: ast.VarDecl) -> None:
        val = self.coerce_decl(node.type.name, self.expr(node.init))
        py = self.fresh_local(node.name)
        self.line(f"{py} = {val.py}")
        self.frame.scopes[-1][node.name] = _Local(py, val.kind, self.region.mask)

    def emit_assign(self, node: ast.Assign) -> None:
        val = self.expr(node.value)
        target = node.target
        if node.op != "=":
            current = (
                self.ident(target.name)
                if type(target) is ast.Ident
                else self.subscript_read(target)
            )
            val = self.binop_value(node.op[0], current, val)
        if type(target) is ast.Ident:
            self.assign_ident(target.name, val)
        else:
            self.subscript_write(target, val)

    def assign_ident(self, name: str, val: _Val) -> None:
        loc = self.find_local(name)
        if loc is None:  # pragma: no cover - screened earlier
            raise CodegenIneligible(f"assignment to non-local {name!r}")
        if loc.kind == "i":
            # The scalar tier coerces to int whenever the old value is an int.
            val = self.to_int(val)
        mask = self.region.mask
        if loc.mask == mask:
            self.line(f"{loc.py} = {val.py}")
            loc.kind = val.kind
        else:
            if loc.kind != val.kind:
                raise CodegenIneligible("blend of int and float lanes")
            self.line(f"{loc.py} = rt.blend({mask}, {val.py}, {loc.py})")

    def emit_if(self, node: ast.If) -> None:
        region = self.region
        region.charge("branches", 1)
        cond = self.expr(node.cond)
        truth = self.fresh("t")
        self.line(f"{truth} = rt.truth({cond.py})")
        mask, count = self.fresh("m"), self.fresh("n")
        self.line(
            f"{mask}, {count} = rt.refine({region.mask}, {truth}, {region.count})"
        )
        self.masked_block(
            count, self.sub_region(mask, count), lambda: self.stmt(node.then)
        )
        if node.other is not None:
            emask, ecount = self.fresh("m"), self.fresh("n")
            self.line(
                f"{emask}, {ecount} = "
                f"rt.refine_not({region.mask}, {truth}, {region.count})"
            )
            self.masked_block(
                ecount, self.sub_region(emask, ecount),
                lambda: self.stmt(node.other),
            )

    def uncharged(self, body):
        """Emit *body* under the current mask with its charges dropped
        (the scalar tier's uncharged loop condition and step)."""
        region = self.region
        self.regions.append(_Region(region.mask, region.count, False))
        try:
            return body()
        finally:
            self.regions.pop()

    def emit_for(self, node: ast.For) -> None:
        """An inner sequential loop: one Python ``while`` over the
        vectorized body, its condition required lane-invariant."""
        region = self.region
        self.frame.scopes.append({})
        try:
            self.stmt(node.init)  # charged once per entering lane
            var = _loop_var_name(node)
            if var is not None:
                self.loop_vars.append(var)
            kinds = [
                (loc, loc.kind)
                for scope in self.frame.scopes for loc in scope.values()
            ]
            self.line("while True:")
            self.indent += 1
            self.cse.append({})
            cond = self.uncharged(lambda: self.expr(node.cond))
            self.line(f"if not rt.bound({cond.py}):")
            self.line("    break")
            body = _Region(region.mask, region.count, region.charged)
            self.regions.append(body)
            self.cse.append({})
            try:
                self.stmt(node.body)
                self.flush(body)
            finally:
                self.regions.pop()
                self.cse.pop()
            self.uncharged(lambda: self.stmt(node.step))
            self.cse.pop()
            self.indent -= 1
            if any(loc.kind != kind for loc, kind in kinds):
                raise CodegenIneligible("local changes kind across iterations")
            if var is not None:
                self.loop_vars.pop()
        finally:
            self.frame.scopes.pop()

    def emit_return(self, node: ast.Return) -> None:
        frame = self.frame
        value, returned = frame.ret
        mask = self.region.mask
        if node.value is None:
            kind = "void"
            self.line(f"{returned} = rt.mark({returned}, {mask})")
        else:
            val = self.expr(node.value)
            kind = val.kind
            self.line(
                f"{value}, {returned} = "
                f"rt.ret({value}, {returned}, {val.py}, {mask})"
            )
        if frame.ret_kind not in (None, kind):
            raise CodegenIneligible("returns of mixed kinds")
        frame.ret_kind = kind

    # -- expressions -------------------------------------------------------

    def expr(self, node: ast.Expr, used: bool = True) -> _Val:
        t = type(node)
        if t is ast.IntLit:
            return _Val(repr(int(node.value)), "i")
        if t is ast.FloatLit:
            return _Val(repr(float(node.value)), "f")
        if t is ast.Ident:
            return self.ident(node.name)
        if t is ast.BinOp:
            if node.op in ("&&", "||"):
                return self.emit_logic(node)
            left = self.expr(node.left)
            right = self.expr(node.right)
            return self.binop_value(node.op, left, right)
        if t is ast.UnOp:
            return self.emit_unop(node)
        if t is ast.Cond:
            return self.emit_cond(node)
        if t is ast.Cast:
            return self.coerce_decl(node.type.name, self.expr(node.operand))
        if t is ast.Subscript:
            return self.subscript_read(node)
        if t is ast.Call:
            if node.func in self.functions:
                return self.emit_user_call(node, used)
            return self.emit_call(node)
        raise CodegenIneligible(f"expression {t.__name__}")

    def ident(self, name: str) -> _Val:
        loc = self.find_local(name)
        if loc is not None:
            return _Val(loc.py, loc.kind)
        if self.frame.func is None:
            if name == self.var:
                return _Val(name, "i")
            py = name
        else:
            py = _ROOT + name
        kind = self.scalars.get(py)
        if kind is None:  # pragma: no cover - screened earlier
            raise CodegenIneligible(f"unresolved name {name!r}")
        return _Val(py, kind)

    # -- array accesses ------------------------------------------------------

    def access(self, node: ast.Subscript, is_write: bool):
        """Charge one access; returns ``(array, index)`` where *index* is
        None for a direct (slot == lane) access."""
        arr = self.arrays[
            node.base.name if self.frame.func is None
            else _ROOT + node.base.name
        ]
        region = self.region
        region.charge("stores" if is_write else "loads", 1)
        region.charge_bytes(arr.py, arr.itemsize, is_write)
        index = node.index
        if (
            self.frame.func is None
            and type(index) is ast.Ident
            and index.name == self.var
        ):
            if not arr.general:
                return arr, None
            return arr, _Val(self.var, "i")
        idx = self.expr(index)
        if idx.kind != "i":
            raise CodegenIneligible("non-integer subscript")
        self.classify(node, arr)
        return arr, idx

    def classify(self, node: ast.Subscript, arr: _ArrInfo) -> None:
        """Fetch the site's irregular-access verdict when the array is not
        cache-resident, exactly when the scalar tier would consult it."""
        k = self.info.site_ids[(id(node), self.loop_vars[-1])]
        bindings = {}
        for scope in reversed(self.frame.scopes):
            for name, loc in scope.items():
                if loc.kind == "i":
                    bindings.setdefault(name, loc.py)
        if self.frame.func is None:
            bindings.setdefault(self.var, self.var)
        text = ", ".join(f"{name!r}: {py}" for name, py in bindings.items())
        verdict = self.fresh("t")
        self.line(f"if not __cg_cached_{arr.py}:")
        self.line(
            f"    {verdict} = __cg.irregular({k}, {self.region.mask}, {{{text}}})"
        )
        if self.region.charged:
            self.region.irregular.setdefault(arr.py, []).append(verdict)

    def subscript_read(self, node: ast.Subscript) -> _Val:
        arr, idx = self.access(node, is_write=False)
        if idx is None and not arr.written:
            return _Val(arr.view, arr.kind)
        t = self.fresh("t")
        if idx is None:
            # Reads of a written array must snapshot the shadow: a later
            # store may not alias a value loaded earlier.
            read = "rt.read_f64" if arr.kind == "f" else "rt.read_i64"
            self.line(f"{t} = {read}({arr.shadow})")
        elif arr.general:
            self.line(
                f"{t} = rt.gather({arr.shadow}, {idx.py}, {self.region.mask}, "
                f"{arr.kind!r}, {arr.log}, {self.var})"
            )
        else:
            self.line(
                f"{t} = rt.gather({arr.py}, {idx.py}, {self.region.mask}, "
                f"{arr.kind!r})"
            )
        return _Val(t, arr.kind)

    def subscript_write(self, node: ast.Subscript, val: _Val) -> None:
        arr, idx = self.access(node, is_write=True)
        mask = self.region.mask
        if idx is None:
            self.line(f"rt.store({arr.shadow}, {mask}, {val.py})")
        else:
            self.line(
                f"rt.scatter({arr.shadow}, {idx.py}, {mask}, {val.py}, "
                f"{arr.log}, {self.var})"
            )

    # -- operators -----------------------------------------------------------

    def binop_value(self, op: str, left: _Val, right: _Val) -> _Val:
        region = self.region
        is_float = "f" in (left.kind, right.kind)
        if op in ("+", "-", "*", "/") and is_float:
            region.charge("flops", 1)
        else:
            region.charge("int_ops", 1)
        # Division and modulo take the mask (zero checks are masked), so
        # their value numbers are mask-specific; the rest are pure over
        # full-width lanes and reusable across nested regions.
        mask = region.mask if op in ("/", "%") else ""
        key = ("b", op, left.py, right.py, mask)
        kind = "f" if is_float else "i"
        if op in ("+", "-", "*"):
            text = f"({left.py} {op} {right.py})"
        elif op == "/":
            fn = "rt.fdiv" if is_float else "rt.idiv"
            text = f"{fn}({left.py}, {right.py}, {region.mask})"
        elif op == "%":
            text, kind = f"rt.imod({left.py}, {right.py}, {region.mask})", "i"
        elif op in ("<", ">", "<=", ">=", "==", "!="):
            text, kind = f"rt.asint({left.py} {op} {right.py})", "i"
        elif op in ("<<", ">>", "&", "|", "^"):
            text = f"(rt.toi({left.py}) {op} rt.toi({right.py}))"
            kind = "i"
        else:
            raise CodegenIneligible(f"operator {op!r}")
        return self.temp(key, text, kind)

    def emit_unop(self, node: ast.UnOp) -> _Val:
        val = self.expr(node.operand)
        if node.op == "-":
            self.region.charge("flops" if val.kind == "f" else "int_ops", 1)
            text, kind = f"(-{val.py})", val.kind
        else:
            self.region.charge("int_ops", 1)
            text, kind = f"rt.lnot({val.py})", "i"
        return self.temp(("u", node.op, val.py), text, kind)

    def emit_logic(self, node: ast.BinOp) -> _Val:
        region = self.region
        region.charge("int_ops", 1)
        left = self.expr(node.left)
        truth = self.fresh("t")
        self.line(f"{truth} = rt.truth({left.py})")
        refine = "rt.refine" if node.op == "&&" else "rt.refine_not"
        mask, count = self.fresh("m"), self.fresh("n")
        self.line(f"{mask}, {count} = {refine}({region.mask}, {truth}, {region.count})")
        result = self.fresh("t")

        def rhs():
            right = self.expr(node.right)
            rtruth = self.fresh("t")
            self.line(f"{rtruth} = rt.truth({right.py})")
            if node.op == "&&":
                self.line(f"{result} = rt.land({truth}, {rtruth})")
            else:
                self.line(f"{result} = rt.lor({truth}, {rtruth}, {mask})")

        self.masked_block(count, self.sub_region(mask, count), rhs)
        self.line("else:")
        self.indent += 1
        self.line(f"{result} = rt.asint({truth})")
        self.indent -= 1
        return _Val(result, "i")

    def emit_cond(self, node: ast.Cond) -> _Val:
        region = self.region
        region.charge("branches", 1)
        cond = self.expr(node.cond)
        truth = self.fresh("t")
        self.line(f"{truth} = rt.truth({cond.py})")
        then_res, else_res = self.fresh("t"), self.fresh("t")
        self.line(f"{then_res} = None")
        self.line(f"{else_res} = None")
        kinds = []

        def arm(expr_node, result):
            def body():
                val = self.expr(expr_node)
                kinds.append(val.kind)
                self.line(f"{result} = {val.py}")

            return body

        mask, count = self.fresh("m"), self.fresh("n")
        self.line(f"{mask}, {count} = rt.refine({region.mask}, {truth}, {region.count})")
        self.masked_block(count, self.sub_region(mask, count), arm(node.then, then_res))
        emask, ecount = self.fresh("m"), self.fresh("n")
        self.line(
            f"{emask}, {ecount} = rt.refine_not({region.mask}, {truth}, {region.count})"
        )
        self.masked_block(
            ecount, self.sub_region(emask, ecount), arm(node.other, else_res)
        )
        if len(set(kinds)) != 1:
            raise CodegenIneligible("conditional arms of mixed kinds")
        t = self.fresh("t")
        self.line(f"{t} = rt.sel({truth}, {then_res}, {else_res})")
        return _Val(t, kinds[0])

    # -- calls -------------------------------------------------------------

    def emit_call(self, node: ast.Call) -> _Val:
        region = self.region
        args = [self.expr(a) for a in node.args]
        region.charge("calls", 1)
        from repro.runtime.executor import BUILTIN_COSTS

        region.charge("flops", BUILTIN_COSTS[node.func])
        name = node.func
        mask = region.mask
        if name in ("exp", "log", "sin", "cos", "sqrt"):
            text, kind = f"rt.c_{name}({args[0].py}, {mask})", "f"
        elif name == "pow":
            text, kind = f"rt.c_pow({args[0].py}, {args[1].py}, {mask})", "f"
        elif name in ("fabs", "abs"):
            text, kind = f"rt.c_abs({args[0].py})", args[0].kind
        elif name in ("floor", "ceil"):
            text, kind = f"rt.c_{name}({args[0].py}, {mask})", "i"
        elif name in ("min", "max"):
            kinds = {a.kind for a in args}
            if len(kinds) != 1:
                raise CodegenIneligible(f"{name}() with mixed argument types")
            arglist = ", ".join(a.py for a in args)
            text, kind = f"rt.c_{name}({arglist})", kinds.pop()
        else:  # pragma: no cover - screened earlier
            raise CodegenIneligible(f"call to {name!r}")
        return self.temp(("call", name, mask, *[a.py for a in args]), text, kind)

    def emit_user_call(self, node: ast.Call, used: bool) -> Optional[_Val]:
        """Inline a user function: parameters become locals of a fresh
        frame whose free names resolve through the root scope."""
        func = self.functions[node.func]
        args = [self.expr(a) for a in node.args]
        region = self.region
        region.charge("calls", 1)
        value, returned = self.fresh("t"), self.fresh("t")
        frame = _Frame(func, (value, returned))
        for param, arg in zip(func.params, args):
            py = self.fresh_local(param.name)
            self.line(f"{py} = {arg.py}")
            frame.scopes[0][param.name] = _Local(py, arg.kind, region.mask)
        self.line(f"{value} = None")
        self.line(f"{returned} = False")
        caller = self.frame
        self.frame = frame
        self.cse.append({})
        try:
            self.stmt(func.body)
        finally:
            self.frame = caller
            self.cse.pop()
        if not used:
            return None
        if frame.ret_kind in (None, "void"):
            raise CodegenIneligible(f"value of void {func.name}() used")
        t = self.fresh("t")
        self.line(f"{t} = rt.retval({value}, {returned}, {region.mask})")
        return _Val(t, frame.ret_kind)


def generate_source(
    loop: ast.For, info: _StaticInfo, array_sig, scalar_sig, functions=None
) -> str:
    """Emit the kernel function's full Python source for one signature.

    *array_sig* is ``((name, dtype_str, itemsize, written), ...)`` and
    *scalar_sig* is ``((name, kind), ...)`` in parameter order.
    """
    arrays = {}
    for name, dtype_str, itemsize, written in array_sig:
        kind = "f" if np.dtype(dtype_str).kind == "f" else "i"
        arrays[name] = _ArrInfo(
            name, kind, itemsize, written,
            written and name in info.general, name in info.direct,
        )
    em = _Emitter(info, arrays, dict(scalar_sig), functions or {})

    params = ["__cg", "__cg_idx", info.var]
    params += [a[0] for a in array_sig]
    params += [s[0] for s in scalar_sig]
    head = [
        f"def __cg_kernel({', '.join(params)}):",
        "    __cg_c = __cg.counters",
        f"    __cg_n0 = {info.var}.shape[0]",
    ]
    for arr in arrays.values():
        head.append(
            f"    __cg_cached_{arr.py} = "
            f"{arr.py}.nbytes * __cg.scale <= __cg.cached_bytes"
        )
    for arr in arrays.values():
        if arr.general:
            head.append(f"    {arr.shadow} = {arr.py}.copy()")
            head.append(f"    {arr.log} = []")
        elif arr.written:
            head.append(f"    {arr.shadow} = {arr.py}[__cg_idx].copy()")
        elif arr.direct:
            gather = "rt.as_f64" if arr.kind == "f" else "rt.as_i64"
            head.append(f"    {arr.view} = {gather}({arr.py}[__cg_idx])")

    em.stmt(loop.body)
    em.flush(em.regions[0])

    # Every hazard check precedes every commit: a refused kernel leaves
    # no write behind.
    tail = [
        f"    rt.hazards({arr.py!r}, {arr.py}, {arr.log})"
        for arr in arrays.values() if arr.general
    ]
    for arr in arrays.values():
        if arr.general:
            tail.append(f"    {arr.py}[...] = {arr.shadow}")
        elif arr.written:
            tail.append(f"    {arr.py}[__cg_idx] = {arr.shadow}")
    lines = _insert_dels(head + em.lines + tail, em.deletable | em.local_pys)
    return "\n".join(lines) + "\n"


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Quoted text in emitted lines (site bindings' MiniC names, array names,
#: lane kinds) names no Python variable.
_STRING_RE = re.compile(r"'[^']*'")


def _pad(text: str) -> str:
    return text[: len(text) - len(text.lstrip())]


def _insert_dels(lines: List[str], candidates: set) -> List[str]:
    """Free each temp right after its last textual use.

    Full-width f64 temps are ~8 bytes/lane; a straight-line kernel body
    keeps dozens alive at once, overflowing L2 so every subsequent numpy
    pass streams from L3/DRAM.  Dropping each name at its last mention
    returns the buffer to the allocator, which hands the same hot pages
    to the next temp.  Definitions dominate uses (CSE tables are
    region-scoped), so a ``del`` placed at the indent of the last use
    only runs when the name is bound.  A name mentioned before an inner
    loop and last used inside it lives across iterations: its ``del``
    moves to just after the (outermost such) loop.  Names whose last
    mention is a block header (``if ...:``) are left for frame exit — a
    ``del`` there would detach the header from its suite.
    """
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for i, text in enumerate(lines):
        for tok in _IDENT_RE.findall(_STRING_RE.sub("", text)):
            if tok in candidates:
                first.setdefault(tok, i)
                last[tok] = i
    loops = []
    for head, text in enumerate(lines):
        if text.strip() == "while True:":
            pad = len(_pad(text))
            end = head
            while end + 1 < len(lines) and len(_pad(lines[end + 1])) > pad:
                end += 1
            loops.append((head, end, _pad(text)))
    dels: Dict[int, Dict[str, List[str]]] = {}
    for name, j in last.items():
        pad = None
        for head, end, loop_pad in loops:
            if first[name] < head < j <= end:
                j, pad = end, loop_pad
                break
        if pad is None:
            pad = _pad(lines[j])
        dels.setdefault(j, {}).setdefault(pad, []).append(name)
    out: List[str] = []
    for i, text in enumerate(lines):
        out.append(text)
        if i not in dels or text.rstrip().endswith(":"):
            continue
        for pad, names in sorted(dels[i].items(), key=lambda p: -len(p[0])):
            out.append(f"{pad}del {', '.join(sorted(names))}")
    return out


# ==========================================================================
# Runtime helpers (the ``rt`` namespace inside generated kernels)
# ==========================================================================


class _RT:
    """Masked-vector primitives generated kernels call at runtime.

    Every helper is polymorphic over "scalar" (lane-invariant Python
    value) and "vector" (full-width ndarray) operands; masks are
    full-width bool vectors or ``None`` (= all active lanes).  Each helper
    reproduces, lane by lane, what the scalar tier computes per iteration.
    """

    # -- truth, masks, blending -------------------------------------------

    @staticmethod
    def truth(v):
        if isinstance(v, np.ndarray):
            return v != 0
        return bool(v)

    @staticmethod
    def asint(t):
        if isinstance(t, np.ndarray):
            return t.astype(np.int64)
        return int(t)

    @staticmethod
    def refine(m, t, n):
        """Narrow mask *m* by truth *t*; a scalar truth keeps *m* (the arm
        runs under an unchanged mask, or not at all)."""
        if isinstance(t, np.ndarray):
            nm = t if m is None else (m & t)
            return nm, int(np.count_nonzero(nm))
        return (m, n) if t else (m, 0)

    @staticmethod
    def refine_not(m, t, n):
        if isinstance(t, np.ndarray):
            nm = ~t if m is None else (m & ~t)
            return nm, int(np.count_nonzero(nm))
        return (m, 0) if t else (m, n)

    @staticmethod
    def blend(m, new, old):
        """Per-lane merge (kinds are checked at generation time)."""
        if m is None:
            return new
        return np.where(m, new, old)

    @staticmethod
    def sel(t, a, b):
        """``?:`` merge; an arm no lane took is ``None``."""
        if a is None:
            return b
        if b is None:
            return a
        if isinstance(t, np.ndarray):
            return np.where(t, a, b)
        return a if t else b

    @staticmethod
    def land(lt, rt_t):
        """``&&`` merge: *lt* scalar means the left side was
        lane-invariantly true (false short-circuited)."""
        if not isinstance(lt, np.ndarray):
            return _RT.asint(rt_t)
        rvec = (
            rt_t
            if isinstance(rt_t, np.ndarray)
            else np.full(lt.shape[0], bool(rt_t))
        )
        return (lt & rvec).astype(np.int64)

    @staticmethod
    def lor(lt, rt_t, m):
        """``||`` merge: *m* is the refined rhs mask (``eff & ~lt``) —
        exactly the lanes whose right side counts."""
        if not isinstance(lt, np.ndarray):
            return _RT.asint(rt_t)
        rvec = (
            rt_t
            if isinstance(rt_t, np.ndarray)
            else np.full(lt.shape[0], bool(rt_t))
        )
        return (lt | (rvec & m)).astype(np.int64)

    @staticmethod
    def lnot(v):
        if isinstance(v, np.ndarray):
            return (~(v != 0)).astype(np.int64)
        return int(not v)

    @staticmethod
    def bound(v):
        """An inner loop's condition: a vector would give each lane its
        own trip count, which the lowered loop cannot express."""
        if isinstance(v, np.ndarray):
            raise CodegenIneligible("lane-varying inner loop bound")
        return v

    # -- inlined returns --------------------------------------------------

    @staticmethod
    def ret(value, returned, v, m):
        """Lanes *m* return *v*: ``(value, returned lanes)`` after it.
        *returned* is False (no lane yet), True (every lane) or a mask;
        once a lane has returned, later returns run under a mask that
        excludes it."""
        if returned is False:
            return v, True if m is None else m
        return np.where(m, v, value), m | returned

    @staticmethod
    def mark(returned, m):
        """Lanes *m* return without a value."""
        if returned is False:
            return True if m is None else m
        return m | returned

    @staticmethod
    def live(m, returned, n):
        """The lanes of *m* that have not returned, and their count."""
        if returned is False:
            return m, n
        if returned is True:
            return m, 0
        nm = ~returned if m is None else (m & ~returned)
        return nm, int(np.count_nonzero(nm))

    @staticmethod
    def retval(value, returned, m):
        """The call's value; every calling lane must have returned one
        (a lane that fell off the end would hold no value)."""
        if returned is True:
            return value
        if returned is False or not (
            returned.all() if m is None else (returned | ~m).all()
        ):
            raise _TransientBail("a lane fell off the end of a function")
        return value

    # -- coercions ---------------------------------------------------------

    @staticmethod
    def toi(v):
        """C's float-to-int truncation."""
        if isinstance(v, np.ndarray):
            if v.dtype.kind == "f":
                return np.trunc(v).astype(np.int64)
            return v
        return int(v)

    @staticmethod
    def tof(v):
        if isinstance(v, np.ndarray):
            if v.dtype.kind != "f":
                return v.astype(np.float64)
            return v
        return float(v)

    # -- gathers, shadow reads, stores ------------------------------------

    @staticmethod
    def as_f64(a):
        """Widen a read-only gather to float64 lanes (the scalar tier's
        ``.item()`` on every load is exactly this widening)."""
        if a.dtype == np.float64:
            return a
        return a.astype(np.float64)

    @staticmethod
    def as_i64(a):
        if a.dtype == np.int64:
            return a
        return a.astype(np.int64)

    @staticmethod
    def read_f64(sh):
        """Snapshot-read of a written array's shadow.  ``astype`` always
        copies, so a value loaded here never aliases a later store."""
        return sh.astype(np.float64)

    @staticmethod
    def read_i64(sh):
        return sh.astype(np.int64)

    @staticmethod
    def store(sh, m, v):
        """Masked store into the shadow (slot == lane), downcasting to
        the array dtype exactly as the scalar tier's ``arr[i] = value``."""
        if m is None:
            sh[...] = v
        elif isinstance(v, np.ndarray):
            sh[m] = v[m]
        else:
            sh[m] = v

    @staticmethod
    def _slots(a, idx, m):
        """The active lanes' slots, checked in range; returns
        ``(full-width safe index, active mask or None)``.  An active lane
        out of range bails: the scalar tier raises the exact error."""
        size = a.shape[0]
        bad = (idx < 0) | (idx >= size)
        if bad.any():
            if m is None or (bad & m).any():
                raise _TransientBail("index out of range")
            idx = np.where(bad, 0, idx)
        return idx

    @staticmethod
    def gather(a, idx, m, kind, log=None, lanes=None):
        """``a[idx]`` per lane as float64/int64 lanes; with *log*, the
        active lanes' slots are recorded for the hazard check."""
        if not isinstance(idx, np.ndarray):
            if idx < 0 or idx >= a.shape[0]:
                raise _TransientBail("index out of range")
            if log is not None:
                who = lanes if m is None else lanes[m]
                log.append((False, np.full(who.shape[0], idx), who))
            value = a[idx]
            return float(value) if kind == "f" else int(value)
        idx = _RT._slots(a, idx, m)
        if log is not None:
            if m is None:
                log.append((False, idx, lanes))
            else:
                log.append((False, idx[m], lanes[m]))
        values = a[idx]
        if kind == "f":
            return values if values.dtype == np.float64 else values.astype(np.float64)
        return values if values.dtype == np.int64 else values.astype(np.int64)

    @staticmethod
    def scatter(sh, idx, m, v, log, lanes):
        """Masked ``sh[idx] = v`` per lane, logging the written slots."""
        if not isinstance(idx, np.ndarray):
            idx = np.full(lanes.shape[0], idx, dtype=np.int64)
        idx = _RT._slots(sh, idx, m)
        if m is not None:
            idx, lanes = idx[m], lanes[m]
            if isinstance(v, np.ndarray):
                v = v[m]
        log.append((True, idx, lanes))
        sh[idx] = v

    @staticmethod
    def hazards(name, a, log):
        """Refuse the commit when a slot one lane writes is read or
        written by another lane: run in lane order, that lane would have
        seen (or overwritten) a different value."""
        if not any(is_write for is_write, _, _ in log):
            return
        owner = np.full(a.shape[0], np.iinfo(np.int64).min, dtype=np.int64)
        for is_write, slots, lanes in log:
            if is_write:
                owner[slots] = lanes
        for is_write, slots, lanes in log:
            held = owner[slots]
            clash = held != lanes
            if not is_write:
                clash &= held != np.iinfo(np.int64).min
            if clash.any():
                raise CodegenIneligible(f"cross-lane dependence through {name!r}")

    # -- division ----------------------------------------------------------

    @staticmethod
    def _safe_divisor(rv, m, message):
        """The divisor with zero lanes checked (raise if any is active)
        and sanitized to 1.  The common all-nonzero case costs one
        comparison + one reduction and returns the divisor unchanged."""
        if not isinstance(rv, np.ndarray):
            if rv == 0:
                raise ZeroDivisionError(message)
            return rv
        zero = rv == 0
        if zero.any():
            active = zero if m is None else (zero & m)
            if bool(active.any()):
                raise ZeroDivisionError(message)
            return np.where(zero, 1, rv)
        return rv

    @staticmethod
    def fdiv(lv, rv, m):
        if not (isinstance(lv, np.ndarray) or isinstance(rv, np.ndarray)):
            return lv / rv
        safe = _RT._safe_divisor(rv, m, "float division by zero")
        return np.asarray(lv, dtype=np.float64) / safe

    @staticmethod
    def idiv(lv, rv, m):
        """C division (truncating toward zero).

        The sign merge may use the sanitized divisor: it only differs
        from the original on zero lanes, where both 0 and the substitute
        1 count as non-negative."""
        if not (isinstance(lv, np.ndarray) or isinstance(rv, np.ndarray)):
            q = abs(int(lv)) // abs(int(rv))
            return q if (lv >= 0) == (rv >= 0) else -q
        safe = _RT._safe_divisor(rv, m, "integer division or modulo by zero")
        la = np.asarray(lv)
        q = np.abs(la) // np.abs(safe)
        return np.where((la >= 0) == (safe >= 0), q, -q).astype(np.int64)

    @staticmethod
    def imod(lv, rv, m):
        """C remainder (the dividend's sign)."""
        if not (isinstance(lv, np.ndarray) or isinstance(rv, np.ndarray)):
            r = abs(int(lv)) % abs(int(rv))
            return r if lv >= 0 else -r
        safe = _RT.toi(
            _RT._safe_divisor(rv, m, "integer division or modulo by zero")
        )
        la = _RT.toi(np.asarray(lv))
        r = np.abs(la) % np.abs(safe)
        return np.where(la >= 0, r, -r).astype(np.int64)

    # -- builtins ----------------------------------------------------------

    @staticmethod
    def _sanitize(v, m):
        """float64 lanes with inactive lanes forced to 1.0 so they cannot
        trip a domain check the scalar tier would never perform."""
        vec = v if v.dtype.kind == "f" else v.astype(np.float64)
        if m is not None:
            vec = np.where(m, vec, 1.0)
        return vec

    @staticmethod
    def _scalar_call(name, args):
        from repro.runtime.executor import _BUILTIN_IMPL

        try:
            return _BUILTIN_IMPL[name](*args)
        except ValueError as exc:
            raise ExecutionError(f"math domain error in {name}: {exc}")

    @staticmethod
    def _ufunc(name, v, m):
        if not isinstance(v, np.ndarray):
            return _RT._scalar_call(name, [v])
        vec = _RT._sanitize(v, m)
        try:
            out = mathops.VECTOR_IMPL[name](vec)
        except ValueError as exc:
            raise ExecutionError(f"math domain error in {name}: {exc}")
        return np.asarray(out, dtype=np.float64)

    @staticmethod
    def c_exp(v, m):
        return _RT._ufunc("exp", v, m)

    @staticmethod
    def c_log(v, m):
        return _RT._ufunc("log", v, m)

    @staticmethod
    def c_sin(v, m):
        return _RT._ufunc("sin", v, m)

    @staticmethod
    def c_cos(v, m):
        return _RT._ufunc("cos", v, m)

    @staticmethod
    def c_sqrt(v, m):
        if not isinstance(v, np.ndarray):
            return _RT._scalar_call("sqrt", [v])
        vec = _RT._sanitize(v, m)
        if (vec < 0).any():
            raise ExecutionError("math domain error in sqrt: math domain error")
        return np.sqrt(vec)

    @staticmethod
    def c_pow(a, b, m):
        av = _RT._sanitize(a, m) if isinstance(a, np.ndarray) else a
        bv = _RT._sanitize(b, m) if isinstance(b, np.ndarray) else b
        if not (isinstance(av, np.ndarray) or isinstance(bv, np.ndarray)):
            return _RT._scalar_call("pow", [av, bv])
        try:
            out = mathops.vector_pow(av, bv)
        except ValueError as exc:
            raise ExecutionError(f"math domain error in pow: {exc}")
        return np.asarray(out, dtype=np.float64)

    @staticmethod
    def c_abs(v):
        """The scalar tier's fabs is plain ``abs()``: the kind is kept."""
        if isinstance(v, np.ndarray):
            return np.abs(v)
        return _RT._scalar_call("fabs", [v])

    @staticmethod
    def _floorceil(name, v, m):
        """``math.floor``/``ceil`` return Python int: int64 lanes."""
        if not isinstance(v, np.ndarray):
            return _RT._scalar_call(name, [v])
        vec = _RT._sanitize(v, m)
        fn = np.floor if name == "floor" else np.ceil
        return fn(vec).astype(np.int64)

    @staticmethod
    def c_floor(v, m):
        return _RT._floorceil("floor", v, m)

    @staticmethod
    def c_ceil(v, m):
        return _RT._floorceil("ceil", v, m)

    @staticmethod
    def _minmax(name, args):
        """Uniform argument kinds are checked at generation time (Python
        min/max return whichever argument wins, so mixed kinds would give
        per-lane result types)."""
        if not any(isinstance(a, np.ndarray) for a in args):
            return _RT._scalar_call(name, args)
        fn = np.minimum if name == "min" else np.maximum
        result = args[0]
        for arg in args[1:]:
            result = fn(result, arg)
        return np.asarray(result)

    @staticmethod
    def c_min(*args):
        return _RT._minmax("min", list(args))

    @staticmethod
    def c_max(*args):
        return _RT._minmax("max", list(args))


# ==========================================================================
# Kernel cache
# ==========================================================================


class _CgCtx:
    """Per-invocation context handed to a generated kernel."""

    __slots__ = ("counters", "scale", "cached_bytes", "executor", "sites", "envs")

    def __init__(self, executor, sites, env, root):
        self.counters = OpCounters()
        self.scale = executor.machine.scale
        self.cached_bytes = executor.CACHED_ARRAY_BYTES
        self.executor = executor
        self.sites = sites
        self.envs = (env, root)

    def irregular(self, k, m, local) -> int:
        """Site *k*'s irregular-access verdict, classified on first use
        against the integer bindings of the first active lane."""
        node, var, in_func = self.sites[k]

        def bindings():
            lane = 0 if m is None else int(np.argmax(m))
            out = {
                name: int(v[lane]) if isinstance(v, np.ndarray) else int(v)
                for name, v in local.items()
            }
            for name, value in self.envs[in_func].int_bindings().items():
                out.setdefault(name, value)
            return out

        return int(self.executor._irregular_verdict(node, var, bindings))


#: Compiled kernels keyed on (canonical source, transform provenance,
#: array signature, scalar-kind signature).
_KERNELS: Dict[tuple, object] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def cache_stats() -> dict:
    """A snapshot of the module-wide generated-kernel cache counters."""
    return dict(_CACHE_STATS)


def clear_cache() -> None:
    """Drop all compiled kernels and reset the hit/miss counters."""
    _KERNELS.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def _get_kernel(loop, info: _StaticInfo, provenance, array_sig, scalar_sig,
                functions):
    """Compile (or fetch) the kernel for one concrete signature.

    Returns ``(fn, was_miss)``.  Generation failures raise
    :class:`CodegenIneligible` (the caller rejects the loop — the scalar
    tier is always correct)."""
    if info.src is None:
        info.src = "\n".join(
            [to_source(loop)] + [to_source(functions[f]) for f in info.functions]
        )
    key = (info.src, provenance, array_sig, scalar_sig)
    fn = _KERNELS.get(key)
    if fn is not None:
        _CACHE_STATS["hits"] += 1
        return fn, False
    _CACHE_STATS["misses"] += 1
    source = generate_source(loop, info, array_sig, scalar_sig, functions)
    code = compile(source, f"<codegen:{info.var}>", "exec")
    ns = {"np": np, "rt": _RT}
    exec(code, ns)
    fn = ns["__cg_kernel"]
    fn.__cg_source__ = source  # introspection for docs/tests
    _KERNELS[key] = fn
    return fn, True


def kernel_source(loop: ast.For, provenance: str = "") -> str:
    """Generated source for *loop* against a float64 signature guess.

    Documentation/debugging helper: screens the loop, fabricates a
    float64 array signature and float scalar kinds, and returns the
    emitted source without compiling or caching it."""
    info = analyze_loop(loop)
    if not info.eligible:
        raise CodegenIneligible(info.reason or "ineligible")
    array_sig = tuple(
        (name, "<f8", 8, name in info.written) for name in info.array_names
    )
    scalar_sig = tuple((name, "f") for name in info.scalar_names)
    return generate_source(loop, info, array_sig, scalar_sig)


# ==========================================================================
# Driver
# ==========================================================================


def _scalar_kind(name: str, value):
    """Classify a free scalar binding, normalized to plain Python.

    Anything whose arithmetic the emitter cannot model with 'i'/'f'
    lanes (float32's narrower rounding, strings, handles) bails."""
    if isinstance(value, (bool, int, np.integer)):
        return int(value), "i"
    if isinstance(value, float):
        return value, "f"
    if isinstance(value, np.float64):
        return float(value), "f"
    raise _TransientBail(f"free scalar {name!r} of {type(value).__name__}")


def _run(executor, loop: ast.For, env, info: _StaticInfo) -> int:
    """Generate/fetch the kernel, check dynamic safety, run it."""
    bounds = recognize_bounds(executor, loop, env, info.shape)
    trips, start, stride = bounds.trips, bounds.start, bounds.stride
    if trips == 0:
        bounds.finalize_induction()
        return 0

    root = executor._call_root_env()

    def lookup(name):
        if name.startswith(_ROOT):
            return root.get(name[len(_ROOT):])
        return env.get(name)

    arrays = []
    for name in info.array_names:
        value = lookup(name)
        if not isinstance(value, np.ndarray):
            raise CodegenIneligible(f"{name!r} is not an array")
        if value.ndim != 1 or value.dtype.kind not in "fiub":
            raise CodegenIneligible(f"{name!r} has unsupported dtype/shape")
        arrays.append(value)

    scalars = []
    scalar_sig = []
    for name in info.scalar_names:
        value, kind = _scalar_kind(name, lookup(name))
        scalars.append(value)
        scalar_sig.append((name, kind))

    # Direct accesses (index == induction variable) share one range
    # check; a violating lane means the scalar tier must produce the
    # exact mid-loop fault (and its partial writes).  Every other access
    # checks its own lanes as it runs.
    lo = min(start, start + stride * (trips - 1))
    hi = max(start, start + stride * (trips - 1))
    for name, value in zip(info.array_names, arrays):
        if name in info.general and name in info.written:
            continue
        if name in info.direct and (lo < 0 or hi >= len(value)):
            raise _TransientBail(f"lane index out of range for {name!r}")

    # Lanes are independent only if no written array aliases another
    # operand: a write through one name must not be visible through
    # another within the same loop entry.
    for wname in info.written:
        warr = arrays[info.array_names.index(wname)]
        for name, value in zip(info.array_names, arrays):
            if name != wname and np.shares_memory(warr, value):
                raise _TransientBail(f"{wname!r} aliases {name!r}")

    array_sig = tuple(
        (name, value.dtype.str, value.dtype.itemsize, name in info.written)
        for name, value in zip(info.array_names, arrays)
    )
    provenance = getattr(executor.program, "comp_provenance", "")
    fn, was_miss = _get_kernel(
        loop, info, provenance, array_sig, tuple(scalar_sig),
        executor.functions,
    )
    stats = executor._codegen_stats
    if was_miss:
        stats["compiled"] += 1
    else:
        stats["cache_hits"] += 1

    if stride == 1:
        idx = slice(start, start + trips)
    else:
        idx = start + stride * np.arange(trips, dtype=np.int64)
    lanes = start + stride * np.arange(trips, dtype=np.int64)

    cg = _CgCtx(executor, info.sites, env, root)
    fn(cg, idx, lanes, *arrays, *scalars)
    executor._ctx.pending.add(cg.counters)
    bounds.finalize_induction()
    return trips


def try_run_parallel_for(executor, loop: ast.For, env) -> Optional[int]:
    """Attempt codegen execution of one parallel loop.

    On success, array writes are committed, the induction variable's
    final value lands where the scalar tier would leave it, the loop's
    counters are merged into the executor's pending set, and the trip
    count is returned.  Returns ``None`` — with no lasting side effects —
    when the loop is ineligible or a dynamic check failed, in which case
    the caller runs the loop on the scalar tier."""
    cache = executor._codegen_static_cache
    info = cache.get(id(loop))
    if info is None:
        info = analyze_loop(loop, executor.functions)
        cache[id(loop)] = info
    if not info.eligible:
        return None

    stats = executor._codegen_stats
    ctx = executor._ctx
    entry_pending = ctx.pending
    ctx.pending = OpCounters()
    try:
        trips = _run(executor, loop, env, info)
    except CodegenIneligible as exc:
        # Shape problems and cross-lane hazards repeat on every entry;
        # stop re-attempting.
        info.reject(f"dynamic: {exc}")
        ctx.pending = entry_pending
        stats["fallback"] += 1
        return None
    except _TransientBail:
        # Value-dependent (bounds, aliasing, odd scalar): the next entry
        # may be eligible again, so no permanent verdict.
        ctx.pending = entry_pending
        stats["fallback"] += 1
        return None
    except (ReproError, ZeroDivisionError, OverflowError):
        # The kernel faults; shadows were never committed, so the scalar
        # tier reproduces the exact error and the exact partial state
        # sequential execution mandates.
        ctx.pending = entry_pending
        stats["fallback"] += 1
        return None
    entry_pending.add(ctx.pending)
    ctx.pending = entry_pending
    stats["ran"] += 1
    tracer = executor.machine.tracer
    if tracer.enabled:
        tracer.metrics.counter("codegen.loops").inc()
    return trips
