"""The MiniC interpreter: executes programs against the simulated machine.

The interpreter serves two purposes at once:

1. **Correctness** — programs run concretely over numpy arrays, so a
   transformed program can be checked for bit-identical outputs against
   the original (our substitute for running the paper's benchmarks on
   real hardware).
2. **Timing** — every evaluated operation accrues dynamic counters
   (flops, loads/stores, bytes, irregularity); parallel loops convert
   counters to device time via the roofline model; LEO pragmas drive DMA
   transfers and kernel launches on the shared event timeline.  Simulated
   time is completely decoupled from wall-clock interpretation speed, and
   a *scale* factor lets a workload execute at a reduced element count
   while being timed (and memory-checked) at paper scale.

Execution contexts: code runs on the **host** until an offload pragma is
reached; the annotated loop or block is interpreted in a **device**
context whose name resolution is restricted to data actually transferred
by the clauses (a missing clause raises
:class:`~repro.errors.MissingTransferError`).  Serial statements inside a
device context are timed at MIC serial speed — which is how offload
merging's cost ("we may increase the sequential execution on MIC") shows
up naturally.

The scalar tier is a closure compiler (:class:`_Compiler`).  Each
function body, offload body, loop or clause is compiled lazily, once per
scope context, into Python closures over a frame list: names declared
inside the compiled unit resolve to frame slots at compile time, every
other name goes through the environment in ``frame[0]`` (the host or
device root, or whatever :class:`Env` the unit was handed).  Parallel
loops leave the compiled code through :meth:`Executor._exec_parallel_for`
with a :class:`_FrameView` — an :class:`Env` over the frame — so the
codegen tier sees the same scope contract either way.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import (
    DeviceLost,
    DeviceOutOfMemory,
    ExecutionError,
    MissingTransferError,
    OffloadTimeout,
    RuntimeFault,
)
from repro.analysis.array_access import (
    AccessKind,
    extract_linear_form,
)
from repro.errors import NotAffineError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.faults.stats import FaultStats
from repro.analysis.symbols import sizeof_type
from repro.analysis.vectorize import is_vectorizable
from repro.hardware.device import ComputeDevice, OpCounters
from repro.hardware.event_sim import Clock, Event, Timeline
from repro.hardware.memory import DeviceMemoryManager
from repro.hardware.spec import MachineSpec, paper_machine
from repro.minic import ast_nodes as ast
from repro.minic.parser import parse
from repro.minic.visitor import walk as walk_nodes
from repro.runtime import mathops
from repro.obs.tracer import NULL_TRACER
from repro.runtime import codegen
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.coi import DEVICE, DMA_FROM_DEVICE, DMA_TO_DEVICE, CoiRuntime
from repro.runtime.integrity import IntegrityManager
from repro.runtime.values import DeviceSpace, HostSpace

# Flop costs of builtin math calls (rough icc/SVML-like latencies).
BUILTIN_COSTS = {
    "exp": 10.0,
    "log": 10.0,
    "sqrt": 4.0,
    "fabs": 1.0,
    "abs": 1.0,
    "pow": 14.0,
    "sin": 10.0,
    "cos": 10.0,
    "floor": 1.0,
    "ceil": 1.0,
    "min": 1.0,
    "max": 1.0,
}

_BUILTIN_IMPL = {
    "exp": mathops.scalar_exp,
    "log": mathops.scalar_log,
    "sqrt": math.sqrt,
    "fabs": abs,
    "abs": abs,
    "pow": mathops.scalar_pow,
    "sin": mathops.scalar_sin,
    "cos": mathops.scalar_cos,
    "floor": math.floor,
    "ceil": math.ceil,
    "min": min,
    "max": max,
}

_NUMPY_TYPES = {
    "float": np.float32,
    "double": np.float64,
    "int": np.int32,
    "char": np.int8,
}


# ==========================================================================
# Machine: everything the executor runs against
# ==========================================================================


@dataclass
class Machine:
    """One simulated host+coprocessor machine instance."""

    spec: MachineSpec = field(default_factory=paper_machine)
    scale: float = 1.0
    #: Optional deterministic fault schedule for this run.
    fault_plan: Optional[FaultPlan] = None
    #: Recovery policy; defaults to :class:`ResiliencePolicy` when a
    #: fault plan is given.  A policy without a plan enables the
    #: resilient code paths (OOM demotion, host fallback) for *genuine*
    #: faults without injecting any.
    resilience: Optional[ResiliencePolicy] = None
    #: Observability sink (:class:`repro.obs.Tracer`).  The default null
    #: tracer makes every instrumentation hook a no-op, so untraced runs
    #: stay bit-identical to uninstrumented ones.
    tracer: Optional[object] = None
    #: Number of coprocessor cards; None defers to ``spec.devices``.
    #: With 1 (the default everywhere) no fleet is built and every
    #: single-device code path runs unchanged, bit for bit.
    devices: Optional[int] = None

    def __post_init__(self) -> None:
        self.timeline = Timeline()
        self.clock = Clock()
        self.host = HostSpace()
        self.device = DeviceSpace()
        if self.tracer is None:
            self.tracer = NULL_TRACER
        self.device_memory = DeviceMemoryManager(
            capacity=self.spec.mic.usable_memory, scale=self.scale
        )
        self.coi = CoiRuntime(
            self.spec,
            self.timeline,
            self.clock,
            self.device_memory,
            self.host,
            self.device,
            scale=self.scale,
            tracer=self.tracer,
        )
        self.cpu_model = ComputeDevice(self.spec.cpu)
        self.mic_model = ComputeDevice(self.spec.mic)
        self.fault_stats = FaultStats()
        if self.fault_plan is not None and self.resilience is None:
            self.resilience = ResiliencePolicy()
        if self.resilience is not None:
            self.coi.resilience = self.resilience
            self.coi.fault_stats = self.fault_stats
        if self.fault_plan is not None:
            injector = FaultInjector(self.fault_plan, self.fault_stats)
            injector.tracer = self.tracer
            injector.clock = self.clock
            self.coi.injector = injector
            self.device_memory.injector = injector
        # Checkpoint/restart is opt-in via the policy: without it the
        # COI note hooks are never reached and a device reset is fatal.
        self.checkpoint = None
        if self.resilience is not None and self.resilience.checkpoint_interval > 0:
            self.checkpoint = CheckpointManager(
                self.resilience, self.fault_stats, tracer=self.tracer
            )
            self.coi.checkpoint = self.checkpoint
        # The integrity layer rides along whenever silent faults could
        # be injected (a fault plan is present) or verification was
        # asked for; in "off" mode with no plan it is never attached and
        # every hook site stays on the original code path.
        self.integrity = None
        mode = "off" if self.resilience is None else self.resilience.integrity_mode
        if self.fault_plan is not None or mode != "off":
            self.integrity = IntegrityManager(
                self.resilience if self.resilience is not None
                else ResiliencePolicy(),
                self.fault_stats,
                tracer=self.tracer,
            )
            self.coi.integrity = self.integrity
        # Multi-device fleet: only built above 1 card, so single-device
        # runs keep the legacy runtime objects untouched.
        if self.devices is None:
            self.devices = self.spec.devices
        if self.devices < 1:
            raise ValueError(f"device count must be >= 1, got {self.devices}")
        self.fleet = None
        if self.devices > 1:
            from repro.runtime.fleet import DeviceFleet

            self.fleet = DeviceFleet(
                self.spec,
                self.scale,
                self.devices,
                seed=None if self.fault_plan is None else self.fault_plan.seed,
                policy=(
                    self.resilience if self.resilience is not None
                    else ResiliencePolicy()
                ),
                stats=self.fault_stats,
                tracer=self.tracer,
            )
            self.coi.fleet = self.fleet
            if self.coi.injector is not None:
                for dev in self.fleet.devices:
                    dev.memory.injector = self.coi.injector
        # Shared-memory runtimes for programs using the Section V
        # allocation intrinsics, created lazily.
        self._myo = None
        self._arena = None

    def finalize_integrity(self) -> None:
        """Run the integrity layer's end-of-run sweep (idempotent).

        ``full`` mode verifies every remaining reference checksum;
        every mode then counts still-unresolved corruption records as
        SDC escapes.  Workload drivers call this once outputs are final.
        """
        if self.integrity is not None:
            self.integrity.finalize(self.coi)

    @property
    def myo(self):
        """Lazily created MYO runtime for shared-malloc intrinsics."""
        if self._myo is None:
            from repro.runtime.myo import MyoRuntime

            self._myo = MyoRuntime(self.coi)
        return self._myo

    @property
    def arena(self):
        """Lazily created arena allocator for arena_alloc intrinsics."""
        if self._arena is None:
            from repro.runtime.arena import ArenaAllocator

            self._arena = ArenaAllocator()
            self._arena.tracer = self.tracer
            if self.checkpoint is not None:
                self.checkpoint.register_arena(self._arena)
        return self._arena


# ==========================================================================
# Environments
# ==========================================================================


class Env:
    """A lexical scope chain ending in a memory-space root."""

    def __init__(self, parent: Optional["Env"] = None):
        self.parent = parent
        self.vars: Dict[str, object] = {}

    def declare(self, name: str, value: object) -> None:
        """Bind *name* in this scope."""
        self.vars[name] = value

    def get(self, name: str) -> object:
        """Resolve *name* through the scope chain."""
        if name in self.vars:
            value = self.vars[name]
            if value is None:
                raise ExecutionError(f"variable {name!r} used uninitialized")
            return value
        if self.parent is not None:
            return self.parent.get(name)
        raise self._missing(name)

    def set(self, name: str, value: object) -> None:
        """Assign to an existing binding in the scope chain."""
        if name in self.vars:
            self.vars[name] = value
            return
        if self.parent is not None:
            self.parent.set(name, value)
            return
        raise self._missing(name)

    def has(self, name: str) -> bool:
        """True when *name* resolves somewhere in the chain."""
        if name in self.vars:
            return True
        return self.parent is not None and self.parent.has(name)

    def _missing(self, name: str) -> Exception:
        return ExecutionError(f"undefined variable {name!r}")

    def root(self) -> "Env":
        """The chain's root scope (file-scope storage)."""
        env = self
        while env.parent is not None:
            env = env.parent
        return env

    def _own_int_bindings(self) -> Dict[str, int]:
        return {
            k: int(v)
            for k, v in self.vars.items()
            if isinstance(v, (int, np.integer))
        }

    def int_bindings(self) -> Dict[str, int]:
        """All integer-valued scalars visible here (for access analysis)."""
        bindings: Dict[str, int] = {}
        env: Optional[Env] = self
        while env is not None:
            for key, value in env._own_int_bindings().items():
                if key not in bindings:
                    bindings[key] = value
            env = env.parent
        return bindings


class _HostRootEnv(Env):
    """Root scope over the host memory space."""

    def __init__(self, host: HostSpace):
        super().__init__()
        self.host = host

    def declare(self, name, value):
        if isinstance(value, np.ndarray):
            self.host.arrays[name] = value
        else:
            self.host.scalars[name] = value

    def get(self, name):
        if name in self.host.arrays:
            return self.host.arrays[name]
        if name in self.host.scalars:
            return self.host.scalars[name]
        raise self._missing(name)

    def set(self, name, value):
        if name in self.host.arrays and isinstance(value, np.ndarray):
            self.host.arrays[name] = value
        else:
            self.host.scalars[name] = value

    def has(self, name):
        return name in self.host.arrays or name in self.host.scalars

    def _own_int_bindings(self):
        return {
            k: int(v)
            for k, v in self.host.scalars.items()
            if isinstance(v, (int, np.integer))
        }


class _DeviceRootEnv(Env):
    """Root scope over the device memory space: strict name resolution."""

    def __init__(self, device: DeviceSpace):
        super().__init__()
        self.device = device

    def declare(self, name, value):
        if isinstance(value, np.ndarray):
            self.device.arrays[name] = value
        else:
            self.device.scalars[name] = value

    def get(self, name):
        if name in self.device.arrays:
            return self.device.arrays[name]
        if name in self.device.scalars:
            return self.device.scalars[name]
        raise self._missing(name)

    def set(self, name, value):
        if name in self.device.arrays and isinstance(value, np.ndarray):
            self.device.arrays[name] = value
        else:
            self.device.scalars[name] = value

    def has(self, name):
        return name in self.device.arrays or name in self.device.scalars

    def _missing(self, name):
        return MissingTransferError(
            f"device code touched {name!r}, which was never transferred "
            f"to the coprocessor (missing in/inout clause?)"
        )

    def _own_int_bindings(self):
        return {
            k: int(v)
            for k, v in self.device.scalars.items()
            if isinstance(v, (int, np.integer))
        }


# ==========================================================================
# Control-flow signals
# ==========================================================================


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


# ==========================================================================
# Execution contexts (timing accumulators)
# ==========================================================================


class _TimedContext:
    """Accumulates compute time for one processor."""

    def __init__(
        self,
        model: ComputeDevice,
        scale: float,
        is_device: bool,
        sink: Optional[OpCounters] = None,
        record: Optional[list] = None,
        tracer=None,
    ):
        self.model = model
        self.scale = scale
        self.is_device = is_device
        self.pending = OpCounters()
        self.seconds = 0.0
        self.in_parallel = False
        #: Run-wide counter total (shared across host and device contexts).
        self.sink = sink
        #: Optional ``(kind, counters, trip, vectorizable)`` trace of the
        #: timing charges, so the resilience layer can re-price the same
        #: work on another device (host fallback) without re-interpreting.
        self.record = record
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def flush_serial(self) -> None:
        if self.pending.work_ops or self.pending.total_bytes:
            self.seconds += self.model.compute_time(
                self.pending.scaled(self.scale), serial=True
            )
            if self.record is not None:
                self.record.append(("serial", self.pending, 0.0, False))
        if self.sink is not None:
            self.sink.add(self.pending)
        self.pending = OpCounters()

    def add_parallel(
        self, counters: OpCounters, trip: float, vectorizable: bool
    ) -> None:
        if self.sink is not None:
            self.sink.add(counters)
        if self.record is not None:
            self.record.append(("parallel", counters, trip, vectorizable))
        self.seconds += self.model.compute_time(
            counters.scaled(self.scale),
            parallel_iterations=trip * self.scale,
            vectorizable=vectorizable,
        )
        if self.tracer.enabled:
            # Annotate the enclosing span with the roofline verdict: which
            # bound the loop sat on, thread count, SIMD applicability.
            info = self.model.explain(
                counters.scaled(self.scale),
                parallel_iterations=trip * self.scale,
                vectorizable=vectorizable,
            )
            self.tracer.annotate(
                **{f"loop.{key}": value for key, value in info.items()}
            )
            self.tracer.metrics.histogram(
                "exec.parallel_loop_seconds"
            ).observe(info["seconds"])

    def take_seconds(self) -> float:
        self.flush_serial()
        seconds, self.seconds = self.seconds, 0.0
        return seconds


# ==========================================================================
# Results
# ==========================================================================


@dataclass
class ExecutionStats:
    """Timing and traffic breakdown of one program run (simulated units)."""

    total_time: float = 0.0
    host_compute_time: float = 0.0
    device_busy_time: float = 0.0
    #: Kernel compute only, without launch/signal overheads (Figure 4's
    #: "calculation time").
    device_compute_time: float = 0.0
    transfer_to_device_time: float = 0.0
    transfer_from_device_time: float = 0.0
    bytes_to_device: float = 0.0
    bytes_from_device: float = 0.0
    kernel_launches: int = 0
    kernel_signals: int = 0
    offload_count: int = 0
    device_peak_bytes: int = 0
    #: Coprocessor cards the run was configured with (fleet size).
    devices: int = 1
    #: Dynamic operation totals across the whole run (host + device),
    #: excluding uncharged clause/loop-control evaluation.
    ops: OpCounters = field(default_factory=OpCounters)

    @property
    def transfer_time(self) -> float:
        """Host-to-device plus device-to-host DMA time."""
        return self.transfer_to_device_time + self.transfer_from_device_time


@dataclass
class ExecutionResult:
    """Final host memory plus the stats of the run."""

    host: HostSpace
    stats: ExecutionStats
    return_value: object = None

    def array(self, name: str) -> np.ndarray:
        """A named host array after execution."""
        return self.host.array(name)

    def scalar(self, name: str) -> object:
        """A named host scalar after execution."""
        return self.host.scalars[name]


# ==========================================================================
# The executor
# ==========================================================================


#: Execution engines, fastest first.  ``auto`` and ``codegen`` walk the
#: ladder per loop: codegen where the emitter proves eligibility, the
#: scalar tier (``tree``) for everything else.
ENGINES = ("auto", "codegen", "tree")


class Executor:
    """Interprets one program on one machine."""

    def __init__(
        self,
        program: Union[ast.Program, str],
        machine: Optional[Machine] = None,
        engine: str = "auto",
    ):
        if isinstance(program, str):
            program = parse(program)
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}: valid engines are "
                + ", ".join(ENGINES)
            )
        self.program = program
        self.machine = machine or Machine()
        self.engine = engine
        self.functions = {f.name: f for f in program.functions() if f.body}
        self.structs = {s.name: s for s in program.structs()}
        self._access_cache: Dict[Tuple[int, str], AccessKind] = {}
        self._ops_total = OpCounters()
        self._host_ctx = _TimedContext(
            self.machine.cpu_model,
            self.machine.scale,
            is_device=False,
            sink=self._ops_total,
            tracer=self.machine.tracer,
        )
        self._ctx = self._host_ctx
        self._loop_vars: List[str] = []
        self._host_root = _HostRootEnv(self.machine.host)
        self._device_root = _DeviceRootEnv(self.machine.device)
        # Codegen execution: per-loop static verdicts plus engagement and
        # compile-cache telemetry for the generated-kernel tier.
        self._codegen_static_cache: Dict[int, object] = {}
        self._codegen_stats = {
            "ran": 0,
            "fallback": 0,
            "compiled": 0,
            "cache_hits": 0,
        }
        # Vectorizability memo: per-loop relevant symbol names plus the
        # verdict per concrete binding of those names.
        self._vec_meta: Dict[int, Tuple[List[str], List[str]]] = {}
        self._vec_cache: Dict[Tuple, bool] = {}
        # Compiled closures keyed by (id(node), scope context); see _unit.
        self._code: Dict[Tuple[int, object], tuple] = {}

    # -- public API ---------------------------------------------------------

    def run(
        self,
        entry: str = "main",
        arrays: Optional[Dict[str, np.ndarray]] = None,
        scalars: Optional[Dict[str, object]] = None,
    ) -> ExecutionResult:
        """Execute function *entry* with the given host bindings."""
        host = self.machine.host
        for name, value in (arrays or {}).items():
            host.arrays[name] = value
        for name, value in (scalars or {}).items():
            host.scalars[name] = value
        for decl in self.program.decls:
            if isinstance(decl, ast.GlobalDecl):
                self._exec_global(decl.decl)

        func = self.functions.get(entry)
        if func is None:
            raise ExecutionError(f"no function {entry!r} in program")
        args = []
        for param in func.params:
            if not self._host_root.has(param.name):
                raise ExecutionError(
                    f"entry parameter {param.name!r} was not bound"
                )
            args.append(self._host_root.get(param.name))
        try:
            value = self._call_function(func, args, env_parent=self._host_root)
        finally:
            # Compiled closures reference the executor: dropping them
            # breaks the cycle so a finished run is freed at once.
            self._code.clear()

        self._drain_host()
        self.machine.finalize_integrity()
        return ExecutionResult(
            host=host, stats=self._collect_stats(), return_value=value
        )

    # -- stats --------------------------------------------------------------------

    def _collect_stats(self) -> ExecutionStats:
        machine = self.machine
        coi = machine.coi
        timeline = machine.timeline
        fleet = machine.fleet
        if fleet is None:
            device_busy = timeline.busy_time(DEVICE)
            h2d_time = timeline.busy_time(DMA_TO_DEVICE)
            d2h_time = timeline.busy_time(DMA_FROM_DEVICE)
            device_peak = machine.device_memory.peak
        else:
            # Per-card tracks: busy times sum (each card has its own
            # compute lane and DMA engines), as does the memory peak.
            device_busy = sum(
                timeline.busy_time(d.compute_track) for d in fleet.devices
            )
            h2d_time = sum(
                timeline.busy_time(d.h2d_track) for d in fleet.devices
            )
            d2h_time = sum(
                timeline.busy_time(d.d2h_track) for d in fleet.devices
            )
            device_peak = fleet.peak_bytes()
        return ExecutionStats(
            # Asynchronous tails (pipelined regularization, unwaited
            # transfers) bound completion even when the host got ahead.
            total_time=max(machine.clock.now, timeline.finish_time()),
            host_compute_time=timeline.busy_time("cpu")
            + self._host_seconds_total,
            device_busy_time=device_busy,
            device_compute_time=coi.stats.kernel_compute_seconds,
            transfer_to_device_time=h2d_time,
            transfer_from_device_time=d2h_time,
            bytes_to_device=coi.stats.bytes_to_device,
            bytes_from_device=coi.stats.bytes_from_device,
            kernel_launches=coi.stats.kernel_launches,
            kernel_signals=coi.stats.kernel_signals,
            offload_count=self._offload_count,
            device_peak_bytes=device_peak,
            devices=machine.devices,
            ops=self._ops_total.copy(),
        )

    _host_seconds_total: float = 0.0
    _offload_count: int = 0

    def _drain_host(self) -> None:
        seconds = self._host_ctx.take_seconds()
        self._host_seconds_total += seconds
        clock = self.machine.clock
        start = clock.now
        clock.advance(seconds)
        if seconds > 0 and self.machine.tracer.enabled:
            self.machine.tracer.span("host-compute", "cpu", start, clock.now)

    # -- compiled entry points --------------------------------------------------------

    def _unit(self, node: ast.Node, kind: str):
        """``(closure, slot count)`` of *node* compiled as its own unit.

        A unit resolves every name it does not declare itself through
        ``frame[0]``, the environment it is run against, so one compile
        serves every scope context of that kind; *kind* keeps a node's
        statement, loop, charged-expression and clause compiles apart.
        """
        key = (id(node), kind)
        entry = self._code.get(key)
        if entry is None:
            # The node rides along so its id cannot be reused while cached.
            entry = _Compiler(self).unit(node, kind) + (node,)
            self._code[key] = entry
        return entry

    def _exec_stmt(self, stmt: ast.Stmt, env: Env) -> None:
        """Execute one statement against *env* (declarations land in it)."""
        fn, nslots, _ = self._unit(stmt, "stmt")
        frame = [None] * (nslots + 1)
        frame[0] = env
        fn(frame)

    def _eval(self, expr: ast.Expr, env: Env):
        """Evaluate *expr* against *env*, charging its operations."""
        return self._unit(expr, "expr")[0]([env])

    def _eval_clause(self, expr: ast.Expr, env: Env):
        """Evaluate *expr* against *env* without charging its operations
        (pragma clauses, loop bounds)."""
        return self._unit(expr, "clause")[0]([env])

    # -- globals / functions ---------------------------------------------------------

    def _exec_global(self, decl: ast.VarDecl) -> None:
        if self._host_root.has(decl.name):
            return  # bound by the caller
        if isinstance(decl.type, ast.ArrayType):
            self._host_root.declare(decl.name, self._make_local_array(decl.type))
        elif decl.init is not None:
            self._host_root.declare(decl.name, self._eval(decl.init, self._host_root))
        else:
            self._host_root.declare(decl.name, 0)

    def _call_function(self, func: ast.FuncDef, args, env_parent: Env):
        if len(args) != len(func.params):
            raise ExecutionError(
                f"{func.name}() takes {len(func.params)} args, got {len(args)}"
            )
        fn, nslots, _ = self._unit(func, "func")
        frame = [env_parent, *args]
        frame += [None] * (nslots - len(args))
        try:
            fn(frame)
        except _Return as ret:
            return ret.value
        return None

    def _make_local_array(self, typ: ast.ArrayType):
        size = (
            self._eval(typ.size, self._host_root) if typ.size is not None else 0
        )
        return _new_array(typ, size)

    # -- loops -------------------------------------------------------------------------------

    def _run_loop(self, loop: ast.For, env: Env) -> int:
        """Interpret a loop sequentially; returns the trip count.

        Loop-control overhead (condition, increment) is not charged: it is
        negligible next to real body work, and charging it would wrongly
        scale an outer loop's bookkeeping by the simulation scale factor.

        A view handed out by compiled code runs the loop compiled in the
        view's own scope, on the view's frame; any other environment runs
        the loop as a unit of its own.
        """
        if env.__class__ is _FrameView:
            entry = self._code.get((id(loop), env.scope))
            if entry is not None:
                return entry[0](env.frame)
        fn, nslots, _ = self._unit(loop, "loop")
        frame = [None] * (nslots + 1)
        frame[0] = env
        return fn(frame)

    #: Share of a pipelined regularization loop that delays the program:
    #: "the only extra overhead caused by regularization is the time taken
    #: to regularize the first data block" (Section IV).
    PIPELINED_FIRST_BLOCK = 1.0 / 20.0

    def _exec_parallel_for(self, loop: ast.For, env: Env) -> None:
        """Interpret a parallel loop and time it with the roofline model."""
        ctx = self._ctx
        ctx.flush_serial()
        outer_pending = ctx.pending
        ctx.pending = OpCounters()
        ctx.in_parallel = True
        try:
            trips = None
            if self.engine != "tree":
                trips = codegen.try_run_parallel_for(self, loop, env)
            if trips is None:
                trips = self._run_loop(loop, env)
        finally:
            ctx.in_parallel = False
            loop_counters = ctx.pending
            ctx.pending = outer_pending
        vectorizable = self._is_vectorizable(loop, env)

        omp = next(
            (p for p in loop.pragmas if isinstance(p, ast.OmpParallelFor)), None
        )
        if omp is not None and omp.pipelined and not ctx.is_device:
            # Pipelined regularization: the gather overlaps downstream
            # transfer/compute on a spare host thread; only the first
            # block's share delays issue.  The full cost still occupies
            # the regularizer resource and bounds total program time.
            duration = ctx.model.compute_time(
                loop_counters.scaled(ctx.scale),
                parallel_iterations=trips * ctx.scale,
                vectorizable=vectorizable,
            )
            if ctx.sink is not None:
                ctx.sink.add(loop_counters)
            self._drain_host()
            event = self.machine.timeline.schedule(
                "cpu:regularize",
                duration,
                not_before=self.machine.clock.now,
                label="pipelined-regularize",
            )
            tracer = self.machine.tracer
            if tracer.enabled:
                tracer.span(
                    "pipelined-regularize", "cpu:regularize",
                    event.time - duration, event.time,
                    first_block_share=self.PIPELINED_FIRST_BLOCK,
                )
                tracer.metrics.counter("exec.pipelined_regularizations").inc()
            self.machine.clock.advance(duration * self.PIPELINED_FIRST_BLOCK)
            return
        ctx.add_parallel(loop_counters, trips, vectorizable)

    # -- vectorizability ------------------------------------------------------------------------

    def _is_vectorizable(self, loop: ast.For, env: Env) -> bool:
        """Delegate to the vectorizability analysis with the concrete
        integer bindings visible at loop entry, so expressions like
        ``i * cols + j`` resolve to unit stride in ``j``.

        The analysis consults bindings only for symbols appearing in
        subscript index expressions, so the verdict is memoized per
        (loop node, values of those symbols) — repeated offloads of the
        same loop skip the re-analysis entirely.
        """
        meta = self._vec_meta.get(id(loop))
        if meta is None:
            nest_vars = []
            for f in [loop] + [
                s for s in _walk_stmts(loop.body) if isinstance(s, ast.For)
            ]:
                name = codegen._loop_var_name(f)
                if name is not None:
                    nest_vars.append(name)
            index_names = set()
            for node in walk_nodes(loop):
                if isinstance(node, ast.Subscript):
                    index_names.update(
                        n.name
                        for n in walk_nodes(node.index)
                        if isinstance(n, ast.Ident)
                    )
            meta = (nest_vars, sorted(index_names - set(nest_vars)))
            self._vec_meta[id(loop)] = meta
        nest_vars, index_names = meta
        bindings = env.int_bindings()
        # Override any stale values for the nest's own induction
        # variables: they are constants from the innermost perspective.
        for name in nest_vars:
            bindings[name] = 0
        key = (id(loop), tuple(bindings.get(n) for n in index_names))
        cached = self._vec_cache.get(key)
        if cached is None:
            cached = is_vectorizable(loop, bindings)
            self._vec_cache[key] = cached
        return cached

    # -- offload ------------------------------------------------------------------------------------

    def _exec_offload(
        self,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
    ) -> None:
        tracer = self.machine.tracer
        if not tracer.enabled:
            self._exec_offload_inner(pragma, body, env, loop)
            return
        # Drain pre-offload host work first so its span is a sibling of
        # (not a child of) the offload phase about to open.
        self._drain_host()
        tracer.metrics.counter("exec.offloads").inc()
        with tracer.phase(
            "offload",
            self.machine.clock,
            index=self._offload_count,
            persistent=bool(pragma.persistent),
        ):
            self._exec_offload_inner(pragma, body, env, loop)

    def _exec_offload_inner(
        self,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
    ) -> None:
        self._drain_host()
        self._offload_count += 1
        coi = self.machine.coi
        resilience = coi.resilience
        fleet = self.machine.fleet

        # Fleet sharding: deal this block to a healthy card (probing
        # quarantined ones first).  None ⇒ every card is gone.
        if fleet is not None and not coi.fallback_mode:
            if fleet.begin_block(coi) is None:
                self._fleet_exhausted()

        # The device site is consulted once per offload entry — the one
        # boundary where all device state is quiescent, so a full reset
        # can be recovered without tearing a transfer or kernel in half.
        # In a fleet the draw rides the *assigned* card's stream; after a
        # loss the block is re-dealt without a second draw (one consult
        # per offload entry, same as single-device).
        if coi.injector is not None:
            reset = coi.injector.draw("device", device=coi.active_device_index)
            if reset is not None:
                self._recover_device_reset(reset)
                if fleet is not None and not coi.fallback_mode:
                    if fleet.begin_block(coi) is None:
                        self._fleet_exhausted()
        integrity = coi.integrity
        if integrity is not None:
            integrity.maybe_scrub(coi)

        deps: List[Event] = []
        if pragma.wait is not None:
            tag = self._eval_clause(pragma.wait, env)
            deps.extend(coi.take_signal(tag))

        if resilience is None:
            transfer_events, freed_after = self._do_in_clauses(
                pragma.clauses, env, deps
            )
        else:
            try:
                transfer_events, freed_after = self._do_in_clauses(
                    pragma.clauses, env, deps
                )
            except DeviceOutOfMemory as oom:
                if self._recover_offload_oom(oom, pragma, body, env, loop, deps):
                    return
                # Transient injected OOM on a non-demotable offload: the
                # backoff is charged; re-issue with injection silenced.
                with coi.injector_suspended():
                    transfer_events, freed_after = self._do_in_clauses(
                        pragma.clauses, env, deps
                    )

        # Input buffers must be verified before the body is interpreted:
        # the simulator computes eagerly, so repair has to land before
        # corrupted input bytes could propagate into outputs.
        if integrity is not None:
            integrity.pre_kernel_verify(
                coi, self._clause_device_names(pragma.clauses)
            )

        # Interpret the body on the device, accumulating device time.
        record = [] if resilience is not None else None
        kernel_seconds = self._interpret_device_body(body, env, loop, record)
        if integrity is not None:
            integrity.note_kernel_writes(coi)

        persistent_key = None
        if pragma.persistent:
            persistent_key = pragma.session or f"offload@{id(pragma)}"
        if coi.fallback_mode:
            # Fleet exhausted: the body was interpreted for correctness
            # above; its cost is charged as host re-execution.
            self._charge_host_fallback(record)
            kernel_event = None
        else:
            try:
                kernel_event = coi.launch_kernel(
                    kernel_seconds,
                    deps=deps + transfer_events,
                    label="offload",
                    persistent_key=persistent_key,
                )
            except OffloadTimeout:
                if resilience is None or not resilience.host_fallback:
                    raise
                # The device already holds the (correct) results — the
                # simulator decouples correctness from timing — so fallback
                # charges the host re-execution cost and the out clauses
                # below deliver exactly what host execution would have.
                self._charge_host_fallback(record)
                kernel_event = None

        if integrity is not None and kernel_event is not None:
            integrity.kernel_completed(
                coi, self._clause_out_names(pragma.clauses), kernel_seconds
            )

        out_deps = (
            [kernel_event] if kernel_event is not None else list(transfer_events)
        )
        out_events = self._do_out_clauses(pragma.clauses, env, out_deps)
        for name in freed_after:
            coi.free_buffer(name)

        final = out_events[-1] if out_events else kernel_event
        if pragma.signal is not None:
            tag = self._eval_clause(pragma.signal, env)
            coi.post_signal(tag, [final] if final is not None else [])
        elif final is not None:
            self.machine.clock.wait_until(final)

        if coi.checkpoint is not None:
            coi.checkpoint.block_completed(
                coi, kernel_seconds, session=persistent_key
            )

    def _interpret_device_body(
        self,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
        record: Optional[list] = None,
    ) -> float:
        """Interpret an offload body in a device context; returns seconds."""
        # Only a bare statement body can declare into the body's own scope;
        # loops and blocks scope their declarations themselves.
        device_env = (
            self._device_root
            if loop is not None or isinstance(body, ast.Block)
            else Env(parent=self._device_root)
        )
        saved_ctx = self._ctx
        self._ctx = _TimedContext(
            self.machine.mic_model,
            self.machine.scale,
            is_device=True,
            sink=self._ops_total,
            record=record,
            tracer=self.machine.tracer,
        )
        try:
            if loop is not None:
                omp = next(
                    (p for p in loop.pragmas if isinstance(p, ast.OmpParallelFor)),
                    None,
                )
                if omp is not None:
                    self._exec_parallel_for(loop, device_env)
                else:
                    self._run_loop(loop, device_env)
            else:
                self._exec_stmt(body, device_env)
            return self._ctx.take_seconds()
        finally:
            self._ctx = saved_ctx

    # -- fault recovery ---------------------------------------------------------------------------

    def _recover_device_reset(self, fault) -> None:
        """Survive a full device reset drawn at offload entry.

        With checkpoint/restart enabled on the policy, the checkpoint
        manager restores the session (re-upload live blocks, rebuild
        arenas, re-charge uncommitted kernel work) and execution resumes
        as if the reset were a very expensive stall.  Without it there
        is nothing to resume from: the device state is gone and the run
        dies with :class:`~repro.errors.DeviceLost`.
        """
        coi = self.machine.coi
        fleet = self.machine.fleet
        if fleet is not None:
            # A fleet absorbs the loss: quarantine/evict the card and
            # redistribute its blocks to the survivors.  Exhaustion is
            # decided at the next begin_block, not here.
            fleet.handle_device_loss(coi, fault)
            return
        manager = coi.checkpoint
        stats = coi.fault_stats
        if manager is None:
            if stats is not None:
                stats.device_resets += 1
            raise DeviceLost(
                f"device reset at offload #{self._offload_count - 1} with "
                f"checkpointing disabled; set "
                f"ResiliencePolicy.checkpoint_interval > 0 to make "
                f"streamed offloads resumable"
            )
        manager.handle_reset(coi, fault)

    def _fleet_exhausted(self) -> None:
        """Every fleet card is evicted: host fallback or give up.

        With ``host_fallback`` enabled the run enters permanent
        fallback mode — data ops stay eager (correctness is unaffected)
        and every remaining offload is charged as host re-execution.
        Otherwise the run dies with :class:`~repro.errors.DeviceLost`,
        which by the fleet invariant can only happen when every device
        is gone.
        """
        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        if policy is None or not policy.host_fallback:
            raise DeviceLost(
                f"all {self.machine.devices} fleet devices permanently "
                f"evicted by offload #{self._offload_count - 1} and host "
                f"fallback is disabled"
            )
        coi.enter_fallback_mode()
        if stats is not None:
            stats.record_action("device", "fleet_exhausted")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.instant(
                "fleet:exhausted", self.machine.clock.now, track="cpu",
                devices=self.machine.devices,
            )
            tracer.metrics.counter("fleet.exhausted").inc()

    def _recover_offload_oom(
        self,
        oom: DeviceOutOfMemory,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
        deps: List[Event],
    ) -> bool:
        """Decide how an offload survives a device OOM.

        Returns True when the offload has been fully executed through a
        recovery path (streamed demotion or host fallback); False when
        the OOM was transient (injected) and the caller should simply
        retry the in-clauses.  A genuine OOM with no recovery path
        re-raises.
        """
        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        simple = self._demotable(pragma, env)
        if policy.demote_on_oom and simple and loop is not None:
            self._exec_offload_demoted(pragma, body, env, loop, deps)
            return True
        if oom.injected:
            pause = policy.backoff(0)
            self.machine.clock.advance(pause)
            stats.backoff_seconds += pause
            stats.retries += 1
            stats.record_action("alloc", "retry")
            return False
        if policy.host_fallback and simple:
            self._exec_offload_on_host(pragma, body, env, loop)
            return True
        raise oom

    def _demotable(self, pragma: ast.OffloadPragma, env: Env) -> bool:
        """True when every clause moves a whole host value with default
        alloc/free semantics — the shape the runtime can transparently
        replay in streamed (block-granular) form, or hand to the host."""
        for clause in pragma.clauses:
            if clause.direction == "nocopy":
                return False
            if clause.into is not None or clause.start is not None:
                return False
            if clause.alloc_if is not None or clause.free_if is not None:
                return False
            value = self._lookup_host(clause.var, env, allow_missing=True)
            if value is None:
                return False
            if isinstance(value, np.ndarray) and clause.length is not None:
                if self._eval_clause_int(clause.length, env, len(value)) != len(
                    value
                ):
                    return False
        return True

    def _charge_host_fallback(
        self, record: Optional[list], fraction: float = 1.0
    ) -> None:
        """Charge the cost of abandoning device work to the host CPU:
        the policy's migration penalty plus re-executing *fraction* of
        the recorded kernel work at host speed."""
        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        replay = (
            self.machine.cpu_model.replay_time(record or [], self.machine.scale)
            * fraction
        )
        cost = policy.fallback_penalty + replay
        self.machine.clock.advance(cost)
        stats.host_fallbacks += 1
        stats.fallback_seconds += cost
        stats.record_action("kernel", "host_fallback")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.instant(
                "recovery:host-fallback", self.machine.clock.now, track="cpu",
                cost=cost, fraction=fraction,
            )
            tracer.metrics.counter("faults.host_fallbacks").inc()

    def _exec_offload_on_host(
        self,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
    ) -> None:
        """Graceful degradation: run the offload region on the host CPU.

        The body is interpreted with the *current* environment in the
        host context, so results land directly in host memory; in-only
        clause values are snapshotted and restored, matching the device
        semantics where writes to in-only data are discarded.
        """
        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        start_clock = self.machine.clock.now
        self.machine.clock.advance(policy.fallback_penalty)

        saved_arrays = []
        saved_scalars = []
        for clause in pragma.clauses:
            if clause.direction != "in":
                continue
            value = self._lookup_host(clause.var, env, allow_missing=True)
            if isinstance(value, np.ndarray):
                saved_arrays.append((value, value.copy()))
            elif value is not None:
                saved_scalars.append((clause.var, value))
        try:
            if loop is not None:
                omp = next(
                    (p for p in loop.pragmas if isinstance(p, ast.OmpParallelFor)),
                    None,
                )
                if omp is not None:
                    self._exec_parallel_for(loop, env)
                else:
                    self._run_loop(loop, env)
            else:
                self._exec_stmt(body, env)
        finally:
            for array, snapshot in saved_arrays:
                array[:] = snapshot
            for name, value in saved_scalars:
                env.set(name, value)
        self._drain_host()

        stats.host_fallbacks += 1
        stats.fallback_seconds += self.machine.clock.now - start_clock
        stats.record_action("alloc", "host_fallback")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.instant(
                "recovery:host-fallback", self.machine.clock.now, track="cpu",
                cost=self.machine.clock.now - start_clock,
            )
            tracer.metrics.counter("faults.host_fallbacks").inc()
        if pragma.signal is not None:
            tag = self._eval_clause(pragma.signal, env)
            coi.post_signal(tag, [])

    def _exec_offload_demoted(
        self,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: ast.For,
        deps: List[Event],
    ) -> None:
        """Replay an un-streamed offload that hit device OOM in streamed
        form: block-granular transfers with only two blocks of each array
        resident, the kernel chopped into per-block chunks on a
        persistent session.

        Unlike the compiler's streaming transform, the demoted schedule
        is deliberately conservative — every kernel chunk waits for all
        in-transfers and chunks are serialized — so recovery is never
        faster than the healthy offload it replaces.
        """
        from repro.transforms.streaming import choose_demotion_blocks

        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        stats.oom_demotions += 1
        stats.record_action("alloc", "demotion")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.instant(
                "recovery:oom-demotion", self.machine.clock.now, track="cpu",
            )
            tracer.metrics.counter("faults.oom_demotions").inc()

        array_clauses = []
        for clause in pragma.clauses:
            value = self._lookup_host(clause.var, env)
            if isinstance(value, np.ndarray):
                array_clauses.append((clause, value))
            elif clause.direction in ("in", "inout"):
                self.machine.device.scalars[clause.var] = value
            else:
                self.machine.device.scalars.setdefault(
                    clause.var, value if value is not None else 0
                )
        # Drop whatever the failed full-size attempt left allocated.
        mem = coi.active_memory()
        for clause, value in array_clauses:
            if mem.holds(clause.var):
                coi.free_buffer(clause.var)
        footprint = sum(value.nbytes for _, value in array_clauses)
        nblocks = choose_demotion_blocks(
            footprint * mem.scale, mem.capacity - mem.in_use
        )

        def block_len(value: np.ndarray) -> int:
            return max(1, math.ceil(len(value) / nblocks))

        in_events: List[Event] = []
        with coi.injector_suspended():
            for clause, value in array_clauses:
                resident = 1 if clause.direction == "out" else 2
                coi.alloc_buffer(
                    clause.var,
                    len(value),
                    dtype=value.dtype,
                    account_elems=resident * block_len(value),
                )
        for clause, value in array_clauses:
            if clause.direction not in ("in", "inout"):
                continue
            step = block_len(value)
            for start in range(0, len(value), step):
                stop = min(start + step, len(value))
                in_events.append(
                    coi.write_buffer(
                        clause.var,
                        start,
                        value[start:stop],
                        deps=deps,
                        sync=False,
                        block=True,
                    )
                )

        integrity = coi.integrity
        if integrity is not None:
            integrity.pre_kernel_verify(
                coi, [clause.var for clause, _ in array_clauses]
            )

        record: list = []
        kernel_seconds = self._interpret_device_body(body, env, loop, record)
        if integrity is not None:
            integrity.note_kernel_writes(coi)

        session = f"demote@{id(pragma)}"
        chunk = kernel_seconds / nblocks
        kernel_event: Optional[Event] = None
        for i in range(nblocks):
            kdeps = list(deps) + in_events
            if kernel_event is not None:
                kdeps.append(kernel_event)
            try:
                kernel_event = coi.launch_kernel(
                    chunk,
                    deps=kdeps,
                    label="offload~demoted",
                    persistent_key=session,
                )
            except OffloadTimeout:
                if not policy.host_fallback:
                    coi.end_persistent(session)
                    raise
                self._charge_host_fallback(record, fraction=(nblocks - i) / nblocks)
                kernel_event = None
                break
        coi.end_persistent(session)

        if integrity is not None and kernel_event is not None:
            integrity.kernel_completed(
                coi,
                [
                    clause.var
                    for clause, _ in array_clauses
                    if clause.direction in ("out", "inout")
                ],
                kernel_seconds,
            )

        out_deps = [kernel_event] if kernel_event is not None else list(in_events)
        out_events: List[Event] = []
        for clause, value in array_clauses:
            if clause.direction not in ("out", "inout"):
                continue
            step = block_len(value)
            for start in range(0, len(value), step):
                stop = min(start + step, len(value))
                out_events.append(
                    coi.read_buffer(
                        clause.var,
                        start,
                        stop - start,
                        value,
                        start,
                        deps=out_deps,
                        sync=False,
                        block=True,
                    )
                )
        for clause in pragma.clauses:
            if clause.direction not in ("out", "inout"):
                continue
            if clause.var in self.machine.device.scalars and not isinstance(
                self._lookup_host(clause.var, env, allow_missing=True), np.ndarray
            ):
                value = self.machine.device.scalars[clause.var]
                if env.has(clause.var):
                    env.set(clause.var, value)
                else:
                    env.declare(clause.var, value)
        for clause, value in array_clauses:
            coi.free_buffer(clause.var)

        final = out_events[-1] if out_events else kernel_event
        if pragma.signal is not None:
            tag = self._eval_clause(pragma.signal, env)
            coi.post_signal(tag, [final] if final is not None else [])
        elif final is not None:
            self.machine.clock.wait_until(final)

        if coi.checkpoint is not None:
            coi.checkpoint.block_completed(coi, kernel_seconds, session=session)

    def _exec_pragma_stmt(self, pragma: ast.Pragma, env: Env) -> None:
        coi = self.machine.coi
        if isinstance(pragma, ast.OffloadWaitPragma):
            self._drain_host()
            tag = self._eval_clause(pragma.wait, env)
            coi.wait_signal(tag)
            return
        if isinstance(pragma, ast.OffloadTransferPragma):
            self._drain_host()
            try:
                events, freed = self._do_in_clauses(pragma.clauses, env, deps=[])
            except DeviceOutOfMemory as oom:
                # A standalone transfer pragma (streamed code's block
                # traffic) has no demotion shape; an injected OOM is
                # transient — back off and re-issue.  Genuine OOM here is
                # a real capacity failure and propagates.
                if coi.resilience is None or not oom.injected:
                    raise
                pause = coi.resilience.backoff(0)
                self.machine.clock.advance(pause)
                coi.fault_stats.backoff_seconds += pause
                coi.fault_stats.retries += 1
                coi.fault_stats.record_action("alloc", "retry")
                with coi.injector_suspended():
                    events, freed = self._do_in_clauses(
                        pragma.clauses, env, deps=[]
                    )
            events += self._do_out_clauses(pragma.clauses, env, deps=[])
            for name in freed:
                coi.free_buffer(name)
            if pragma.signal is not None:
                tag = self._eval_clause(pragma.signal, env)
                coi.post_signal(tag, events)
            else:
                for event in events:
                    self.machine.clock.wait_until(event)
            return
        raise ExecutionError(f"cannot execute pragma {type(pragma).__name__}")

    # -- clause processing ------------------------------------------------------------------------

    def _do_in_clauses(
        self, clauses: List[ast.TransferClause], env: Env, deps: List[Event]
    ) -> Tuple[List[Event], List[str]]:
        """Handle in/inout/nocopy clauses; returns (events, buffers to free)."""
        coi = self.machine.coi
        events: List[Event] = []
        freed_after: List[str] = []
        for clause in clauses:
            if clause.direction == "out":
                # Allocation side of an out clause: ensure the device buffer
                # exists (freshly written by the kernel).
                self._prepare_out_buffer(clause, env, freed_after)
                continue
            alloc = self._flag(clause.alloc_if, env, default=True)
            free = self._flag(clause.free_if, env, default=clause.direction != "nocopy")
            if clause.direction == "nocopy":
                # Pure device-buffer management: the name may have no host
                # counterpart (double-buffering's sptprice1/sptprice2).
                dest = clause.into or clause.var
                host_value = self._lookup_host(clause.var, env, allow_missing=True)
                dtype = (
                    host_value.dtype
                    if isinstance(host_value, np.ndarray)
                    else np.float32
                )
                if alloc:
                    length = self._eval_clause_int(clause.length, env, 0)
                    coi.alloc_buffer(dest, length, dtype=dtype)
                if free:
                    freed_after.append(dest)
                continue
            src_value = self._lookup_host(clause.var, env)
            if isinstance(src_value, np.ndarray):
                dest = clause.into or clause.var
                start = self._eval_clause_int(clause.start, env, 0)
                length = (
                    self._eval_clause_int(clause.length, env, len(src_value) - start)
                )
                if clause.into is None:
                    # in(A[s:l]): the device mirror keeps the host layout.
                    into_start = start
                else:
                    into_start = self._eval_clause_int(clause.into_start, env, 0)
                if start < 0 or start + length > len(src_value):
                    raise RuntimeFault(
                        f"clause section [{start}:{start + length}) out of range "
                        f"for host array {clause.var!r} of {len(src_value)}"
                    )
                if alloc:
                    coi.alloc_buffer(
                        dest, into_start + length, dtype=src_value.dtype
                    )
                if clause.direction in ("in", "inout"):
                    events.append(
                        coi.write_buffer(
                            dest,
                            into_start,
                            src_value[start : start + length],
                            deps=deps,
                            sync=False,
                            # Sectioned transfers are a streamed loop's
                            # blocks; their fault replays are what the
                            # block-restart counter reports.
                            block=clause.into is not None
                            or start != 0
                            or length != len(src_value),
                        )
                    )
                if free:
                    freed_after.append(dest)
            else:
                # Scalar: copied at allocation time (Section III-A); the
                # cost rides along with the kernel launch.
                if clause.direction in ("in", "inout"):
                    self.machine.device.scalars[clause.var] = src_value
        return events, freed_after

    def _prepare_out_buffer(
        self, clause: ast.TransferClause, env: Env, freed_after: List[str]
    ) -> None:
        coi = self.machine.coi
        alloc = self._flag(clause.alloc_if, env, default=True)
        free = self._flag(clause.free_if, env, default=True)
        host_side = clause.into or clause.var
        host_value = self._lookup_host(host_side, env, allow_missing=True)
        if not isinstance(host_value, np.ndarray):
            # Scalar out: pre-seed the device scalar so kernel writes land
            # in device space (and can be copied back afterwards).
            self.machine.device.scalars.setdefault(
                clause.var, host_value if host_value is not None else 0
            )
            return
        start = self._eval_clause_int(clause.start, env, 0)
        length = self._eval_clause_int(clause.length, env, len(host_value) - start)
        if alloc and not self.machine.device.holds(clause.var):
            coi.alloc_buffer(clause.var, start + length, dtype=host_value.dtype)
        elif alloc:
            coi.alloc_buffer(
                clause.var,
                max(start + length, len(self.machine.device.array(clause.var))),
                dtype=host_value.dtype,
            )
        if free:
            freed_after.append(clause.var)

    def _do_out_clauses(
        self, clauses: List[ast.TransferClause], env: Env, deps: List[Event]
    ) -> List[Event]:
        coi = self.machine.coi
        events: List[Event] = []
        for clause in clauses:
            if clause.direction not in ("out", "inout"):
                continue
            if clause.direction == "inout":
                src_name = clause.into or clause.var
                host_name = clause.var
            else:
                src_name = clause.var
                host_name = clause.into or clause.var
            host_value = self._lookup_host(host_name, env, allow_missing=True)
            if isinstance(host_value, np.ndarray):
                if clause.direction == "inout":
                    dev_start = self._eval_clause_int(clause.into_start, env, 0)
                    host_start = self._eval_clause_int(clause.start, env, 0)
                else:
                    dev_start = self._eval_clause_int(clause.start, env, 0)
                    if clause.into is None:
                        # out(B[s:l]): same section on both sides.
                        host_start = dev_start
                    else:
                        host_start = self._eval_clause_int(
                            clause.into_start, env, 0
                        )
                length = self._eval_clause_int(
                    clause.length, env, len(host_value) - host_start
                )
                events.append(
                    coi.read_buffer(
                        src_name,
                        dev_start,
                        length,
                        host_value,
                        host_start,
                        deps=deps,
                        sync=False,
                        block=clause.into is not None
                        or host_start != 0
                        or length != len(host_value),
                    )
                )
            else:
                # Scalar out: copy the device scalar back to the host scope.
                if clause.var in self.machine.device.scalars:
                    value = self.machine.device.scalars[clause.var]
                    if env.has(clause.var):
                        env.set(clause.var, value)
                    else:
                        env.declare(clause.var, value)
        return events

    @staticmethod
    def _clause_device_names(clauses: List[ast.TransferClause]) -> List[str]:
        """Device buffer names an offload's clauses refer to (any direction)."""
        names = []
        for clause in clauses:
            if clause.direction == "out":
                names.append(clause.var)
            else:
                names.append(clause.into or clause.var)
        return names

    @staticmethod
    def _clause_out_names(clauses: List[ast.TransferClause]) -> List[str]:
        """Device buffer names an offload's kernel writes (out/inout)."""
        names = []
        for clause in clauses:
            if clause.direction == "out":
                names.append(clause.var)
            elif clause.direction == "inout":
                names.append(clause.into or clause.var)
        return names

    def _lookup_host(self, name: str, env: Env, allow_missing: bool = False):
        if env.has(name):
            return env.get(name)
        if allow_missing:
            return None
        raise RuntimeFault(f"offload clause names unknown host variable {name!r}")

    def _flag(self, expr: Optional[ast.Expr], env: Env, default: bool) -> bool:
        if expr is None:
            return default
        return bool(self._eval_clause(expr, env))

    def _eval_clause_int(
        self, expr: Optional[ast.Expr], env: Env, default: int
    ) -> int:
        if expr is None:
            return int(default)
        return int(self._eval_clause(expr, env))

    # -- calls and access accounting ---------------------------------------------------------------------

    #: Shared-memory allocation intrinsics (Section V).  ``malloc`` and
    #: ``Offload_shared_malloc`` go through the MYO baseline; the lowering
    #: pass rewrites them to ``arena_alloc`` which goes through the
    #: segmented arena.  Each returns an opaque address handle.
    _SHARED_ALLOC_FUNCS = frozenset(
        {"malloc", "Offload_shared_malloc", "shared_malloc"}
    )
    _ARENA_FUNCS = frozenset({"arena_alloc"})
    _FREE_FUNCS = frozenset(
        {"free", "Offload_shared_free", "shared_free", "arena_free"}
    )

    def _call_root_env(self) -> Env:
        """The root scope function calls resolve against (context-based)."""
        return self._device_root if self._ctx.is_device else self._host_root

    #: Arrays whose (simulated) size fits comfortably in cache are charged
    #: no memory traffic and no locality penalty: centroid tables,
    #: dictionaries and other small lookup structures live in L1/L2.
    CACHED_ARRAY_BYTES = 256 << 10

    def _is_irregular_site(self, node: ast.Subscript, env: Env) -> bool:
        """Static-per-site classification of access regularity.

        Classified once per (AST node, innermost loop variable) against
        concrete bindings, then cached — the dynamic count of irregular
        accesses is what the locality model consumes.
        """
        if not self._loop_vars:
            return False
        return self._irregular_verdict(
            node, self._loop_vars[-1], env.int_bindings
        )

    def _irregular_verdict(self, node: ast.Subscript, var: str, bindings) -> bool:
        """The site's verdict under innermost loop variable *var*;
        *bindings()* supplies the integer bindings on first use."""
        key = (id(node), var)
        cached = self._access_cache.get(key)
        if cached is None:
            cached = self._classify_site(node.index, var, bindings())
            self._access_cache[key] = cached
        return cached in (
            AccessKind.INDIRECT,
            AccessKind.NONLINEAR,
            AccessKind.AFFINE,
        )

    def _classify_site(
        self, index: ast.Expr, var: str, bindings: Dict[str, int]
    ) -> AccessKind:
        if any(isinstance(n, ast.Subscript) for n in walk_nodes(index)):
            return AccessKind.INDIRECT
        bindings = dict(bindings)
        bindings.pop(var, None)
        try:
            form = extract_linear_form(index, var, bindings)
        except NotAffineError:
            return AccessKind.NONLINEAR
        if form.coeff == 0:
            return AccessKind.INVARIANT
        if abs(form.coeff) == 1:
            return AccessKind.UNIT
        return AccessKind.AFFINE


def _walk_stmts(stmt: ast.Stmt):
    """Yield all statements under *stmt*, depth-first."""
    stack = [stmt]
    while stack:
        current = stack.pop()
        yield current
        for child in current.children():
            if isinstance(child, ast.Stmt):
                stack.append(child)


# ==========================================================================
# The scalar tier: a closure compiler
# ==========================================================================
#
# Every statement and expression is compiled, once per scope context, into
# a Python closure over a *frame*: a list whose slot 0 holds the dynamic
# environment the compiled unit runs against (a memory-space root, or any
# object with Env's contract) and whose other slots hold the locals the
# unit declares.  Names declared inside the unit are resolved to slots at
# compile time; every other name is looked up through ``frame[0]`` when
# it is touched, exactly as the scope chain would have resolved it.


#: Slot value of a conditional binding whose declaration has not run yet.
_ABSENT = object()

_INTS = (int, np.integer)
_FLOATS = (float, np.floating)
#: numpy scalar types whose ``.item()`` is the plain Python value.
_ITEM_TYPES = frozenset(
    {np.float16, np.float32, np.float64, np.int8, np.int16, np.int32,
     np.int64, np.uint8, np.uint16, np.uint32, np.uint64, np.bool_}
)


class _Binding:
    """One compile-time binding: *name* lives in frame slot *slot*.

    Bindings form an immutable chain (innermost first), so the scope seen
    at any point of a unit is the chain head at that point.  *block*
    identifies the lexical scope the binding belongs to.  A *conditional*
    binding may not have been declared yet at run time: its slot holds
    :data:`_ABSENT` until then and every access falls back to the
    enclosing resolution — the shape of a declaration that runs only on
    some paths (an ``if`` arm, a scalar ``out`` clause).
    """

    __slots__ = ("parent", "name", "slot", "block", "conditional", "_table")

    def __init__(self, parent, name, slot, block, conditional):
        self.parent = parent
        self.name = name
        self.slot = slot
        self.block = block
        self.conditional = conditional
        self._table = None

    def table(self) -> Dict[str, "_Binding"]:
        """Name -> innermost binding, over the whole chain."""
        if self._table is None:
            table = dict(self.parent.table())
            table[self.name] = self
            self._table = table
        return self._table

    def find(self, name: str) -> Optional["_Binding"]:
        """The innermost binding of *name* in this chain, if any."""
        return self.table().get(name)


#: The empty scope: nothing declared, every name goes to ``frame[0]``.
_ROOT = _Binding(None, None, 0, None, False)
_ROOT._table = {}


class _FrameView(Env):
    """Env's contract over a compiled frame at one point of a unit.

    Handed to everything outside the compiled code — the codegen tier,
    offload clause processing, host fallback — which may read, assign,
    declare and collect integer bindings exactly as through a scope chain.
    """

    def __init__(self, frame: list, scope: _Binding):
        self.frame = frame
        self.scope = scope
        self.parent = frame[0]

    def _live(self, name: str) -> Optional[_Binding]:
        binding = self.scope.find(name)
        frame = self.frame
        while binding is not None and frame[binding.slot] is _ABSENT:
            binding = binding.parent.find(name)
        return binding

    def declare(self, name, value):
        binding = self.scope.find(name)
        if binding is None:
            self.parent.declare(name, value)
        else:
            self.frame[binding.slot] = value

    def get(self, name):
        binding = self._live(name)
        if binding is None:
            return self.parent.get(name)
        value = self.frame[binding.slot]
        if value is None:
            raise ExecutionError(f"variable {name!r} used uninitialized")
        return value

    def set(self, name, value):
        binding = self._live(name)
        if binding is None:
            self.parent.set(name, value)
        else:
            self.frame[binding.slot] = value

    def has(self, name):
        return self._live(name) is not None or self.parent.has(name)

    def _own_int_bindings(self):
        bindings: Dict[str, int] = {}
        binding = self.scope
        while binding.parent is not None:
            value = self.frame[binding.slot]
            if binding.name not in bindings and isinstance(value, _INTS):
                bindings[binding.name] = int(value)
            binding = binding.parent
        return bindings


def _env_of(frame: list, scope: _Binding):
    """The environment the scope chain would hold at *scope*."""
    return frame[0] if scope is _ROOT else _FrameView(frame, scope)


class _Unit:
    """Slot allocator of one compiled unit."""

    __slots__ = ("nslots",)

    def __init__(self):
        self.nslots = 0

    def new_slot(self) -> int:
        self.nslots += 1
        return self.nslots


def _new_array(typ: ast.ArrayType, size) -> np.ndarray:
    dtype = _NUMPY_TYPES.get(getattr(typ.base, "name", "float"), np.float64)
    return np.zeros(int(size), dtype=dtype)


def _coercer(typ: ast.Type):
    """The conversion a declaration or cast of type *typ* applies."""
    if isinstance(typ, ast.BaseType) and typ.name == "int":
        return lambda v: v if isinstance(v, np.ndarray) else int(v)
    if isinstance(typ, ast.BaseType) and typ.name in ("float", "double"):
        return lambda v: v if isinstance(v, np.ndarray) else float(v)
    return None


def _item(value):
    """A subscript's element as the interpreter's scalar value."""
    if value.__class__ in _ITEM_TYPES:
        return value.item()
    if isinstance(value, np.void):
        return value
    return value.item() if isinstance(value, np.generic) else value


def _int_div(left, right):
    """C division: truncates toward zero."""
    quotient = abs(int(left)) // abs(int(right))
    return quotient if (left >= 0) == (right >= 0) else -quotient


def _int_mod(left, right):
    """C remainder: takes the dividend's sign."""
    remainder = abs(int(left)) % abs(int(right))
    return remainder if left >= 0 else -remainder


#: Arithmetic: a flop when either operand is floating, else an int op.
_ARITH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}

#: Comparisons: one int op, an int result.
_COMPARE_OPS = {
    "<": operator.lt, ">": operator.gt, "<=": operator.le,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}

#: The other binary operators: one int op whatever the operand types.
_INT_OPS = {
    "%": _int_mod,
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
}


def _out_names(clauses) -> List[str]:
    """Names an offload's scalar out/inout copy-back may declare."""
    return [c.var for c in clauses if c.direction in ("out", "inout")]


def _leaks(stmt: ast.Stmt) -> List[str]:
    """Names *stmt* may declare into the scope it runs in, on some paths.

    A declaration that is the direct arm or body of ``if``/``while``/
    ``do`` binds in the enclosing scope, and a scalar out clause declares
    its name there when no binding is visible.  (A ``for`` body binds in
    the loop's own scope; see :meth:`_Compiler.loop`.)
    """
    cls = stmt.__class__
    if cls is ast.VarDecl:
        return [stmt.name]
    if cls is ast.If:
        names = _leaks(stmt.then)
        return names + _leaks(stmt.other) if stmt.other is not None else names
    if cls is ast.While or cls is ast.DoWhile:
        return _leaks(stmt.body)
    if cls is ast.For:
        return [
            name
            for p in stmt.pragmas
            if isinstance(p, ast.OffloadPragma)
            for name in _out_names(p.clauses)
        ]
    if cls is ast.OffloadBlock:
        return _out_names(stmt.pragma.clauses)
    if cls is ast.PragmaStmt and isinstance(
        stmt.pragma, ast.OffloadTransferPragma
    ):
        return _out_names(stmt.pragma.clauses)
    return []


class _Compiler:
    """Compiles one executor's program nodes into frame closures.

    Operation counters are charged to ``executor._ctx.pending`` by the
    same rules, in the same order, as a scope-chain interpreter would:
    loop init and bodies are charged; loop conditions, loop steps and
    clause expressions are compiled *uncharged*, with every increment
    left out (an uncharged node that calls a user function instead runs
    charged against a throwaway counter set, so whatever that call does
    to the timing contexts happens exactly as before).
    """

    def __init__(self, executor: "Executor"):
        self.ex = executor

    # -- units ------------------------------------------------------------

    def unit(self, node: ast.Node, kind: str):
        unit = _Unit()
        if kind == "stmt":
            fn = self.stmt(node, _ROOT, None, unit)[0]
        elif kind == "loop":
            fn = self.loop(node, _ROOT, unit)
        elif kind == "func":
            block = object()
            scope = _ROOT
            for param in node.params:
                scope = _Binding(scope, param.name, unit.new_slot(), block, False)
            fn = self.stmt(node.body, scope, block, unit)[0]
        elif kind == "expr":
            fn = self.expr(node, _ROOT, True)
        elif kind == "clause":
            fn = self.uncharged_expr(node, _ROOT)
        else:
            raise ValueError(f"unknown compile unit {kind!r}")
        return fn, unit.nslots

    # -- names ------------------------------------------------------------

    def read_name(self, name: str, scope: _Binding):
        binding = scope.find(name)
        if binding is None:
            def read(f):
                return f[0].get(name)
            return read
        slot = binding.slot
        message = f"variable {name!r} used uninitialized"
        if not binding.conditional:
            def read(f):
                value = f[slot]
                if value is None:
                    raise ExecutionError(message)
                return value
            return read
        fallback = self.read_name(name, binding.parent)

        def read(f):
            value = f[slot]
            if value is _ABSENT:
                return fallback(f)
            if value is None:
                raise ExecutionError(message)
            return value
        return read

    def assign_name(self, name: str, scope: _Binding):
        """``store(f, value)`` for ``name = value``: an existing int binding
        truncates a non-array value; an undeclared name is created at the
        current context's root."""
        binding = scope.find(name)
        if binding is None:
            def store(f, value):
                env = f[0]
                if not env.has(name):
                    env.root().declare(name, value)
                    return
                try:
                    old = env.get(name)
                except ExecutionError:
                    old = None
                if isinstance(old, _INTS) and not isinstance(value, np.ndarray):
                    value = int(value)
                env.set(name, value)
            return store
        slot = binding.slot
        if not binding.conditional:
            def store(f, value):
                if isinstance(f[slot], _INTS) and not isinstance(
                    value, np.ndarray
                ):
                    value = int(value)
                f[slot] = value
            return store
        fallback = self.assign_name(name, binding.parent)

        def store(f, value):
            old = f[slot]
            if old is _ABSENT:
                fallback(f, value)
                return
            if isinstance(old, _INTS) and not isinstance(value, np.ndarray):
                value = int(value)
            f[slot] = value
        return store

    def declare(self, name: str, scope: _Binding, block, unit: _Unit):
        """``(store(f, value), scope after)`` for a declaration of *name*.

        At a unit's top level (*block* None) the declaration lands in the
        unit's environment; a redeclaration in the same block reuses the
        binding's slot, as a second write to one scope would.
        """
        if block is None:
            def store(f, value):
                f[0].declare(name, value)
            return store, scope
        binding = scope.find(name)
        if binding is not None and binding.block is block:
            slot = binding.slot
            if binding.conditional:
                scope = _Binding(scope, name, slot, block, False)
        else:
            slot = unit.new_slot()
            scope = _Binding(scope, name, slot, block, False)

        def store(f, value):
            f[slot] = value
        return store, scope

    def bind_leaks(self, names, scope: _Binding, block, unit: _Unit):
        """Conditional bindings for *names* in *block*; returns
        ``(scope, slots to reset when the declaring statement starts)``."""
        slots = []
        if block is None:
            return scope, slots
        for name in names:
            binding = scope.find(name)
            if binding is not None and binding.block is block:
                continue
            slot = unit.new_slot()
            scope = _Binding(scope, name, slot, block, True)
            slots.append(slot)
        return scope, slots

    # -- statements -------------------------------------------------------

    def stmt(self, node: ast.Stmt, scope: _Binding, block, unit: _Unit):
        """``(closure, scope after)``: compile *node* in *scope*."""
        cls = node.__class__
        if cls is ast.VarDecl:
            return self.var_decl(node, scope, block, unit)
        if cls is ast.Block:
            return self.block(node, scope, unit), scope
        leaked, reset = self.bind_leaks(_leaks(node), scope, block, unit)
        compile_ = self._STMTS.get(cls)
        if compile_ is None:
            message = f"cannot execute {cls.__name__}"

            def fn(f):
                raise ExecutionError(message)
        else:
            fn = compile_(self, node, leaked, block, unit)
        if not reset:
            return fn, leaked
        if len(reset) == 1:
            (slot,) = reset
            inner = fn

            def fn(f):
                f[slot] = _ABSENT
                inner(f)
            return fn, leaked
        inner = fn

        def fn(f):
            for slot in reset:
                f[slot] = _ABSENT
            inner(f)
        return fn, leaked

    def block(self, node: ast.Block, scope: _Binding, unit: _Unit):
        token = object()
        fns = []
        for child in node.stmts:
            fn, scope = self.stmt(child, scope, token, unit)
            fns.append(fn)
        if len(fns) == 1:
            return fns[0]
        fns = tuple(fns)

        def run(f):
            for fn in fns:
                fn(f)
        return run

    def var_decl(self, node: ast.VarDecl, scope: _Binding, block, unit: _Unit):
        typ = node.type
        if isinstance(typ, ast.ArrayType):
            size = (
                self.expr(typ.size, scope, True)
                if typ.size is not None else (lambda f: 0)
            )

            def value(f):
                return _new_array(typ, size(f))
        elif node.init is None:
            def value(f):
                return None
        else:
            init = self.expr(node.init, scope, True)
            coerce = _coercer(typ)
            value = init if coerce is None else (lambda f: coerce(init(f)))
        store, after = self.declare(node.name, scope, block, unit)

        def fn(f):
            store(f, value(f))
        return fn, after

    def assign(self, node: ast.Assign, scope, block, unit, charged=True):
        value = self.expr(node.value, scope, charged)
        target = node.target
        tcls = target.__class__
        if tcls is ast.Ident:
            store = self.assign_name(target.name, scope)
        elif tcls is ast.Subscript:
            store = self.store_subscript(target, scope, charged)
        elif tcls is ast.Member:
            store = self.store_member(target, scope, charged)
        else:
            message = f"cannot assign to {tcls.__name__}"

            def store(f, v):
                raise ExecutionError(message)
        if node.op == "=":
            def fn(f):
                store(f, value(f))
            return fn
        current = self.expr(target, scope, charged)
        combine = self.binary(node.op[0], charged)

        def fn(f):
            v = value(f)
            store(f, combine(current(f), v))
        return fn

    def _expr_stmt(self, node, scope, block, unit):
        return self.expr(node.expr, scope, True)

    def _if(self, node: ast.If, scope, block, unit):
        cond = self.expr(node.cond, scope, True)
        then = self.stmt(node.then, scope, block, unit)[0]
        ex = self.ex
        if node.other is None:
            def fn(f):
                ex._ctx.pending.branches += 1
                if cond(f):
                    then(f)
            return fn
        other = self.stmt(node.other, scope, block, unit)[0]

        def fn(f):
            ex._ctx.pending.branches += 1
            if cond(f):
                then(f)
            else:
                other(f)
        return fn

    def _while(self, node: ast.While, scope, block, unit):
        cond = self.uncharged_expr(node.cond, scope)
        body = self.stmt(node.body, scope, block, unit)[0]
        ex = self.ex

        def fn(f):
            while cond(f):
                ex._ctx.pending.branches += 1
                try:
                    body(f)
                except _Continue:
                    continue
                except _Break:
                    break
        return fn

    def _do_while(self, node: ast.DoWhile, scope, block, unit):
        body = self.stmt(node.body, scope, block, unit)[0]
        cond = self.uncharged_expr(node.cond, scope)
        ex = self.ex

        def fn(f):
            while True:
                ex._ctx.pending.branches += 1
                try:
                    body(f)
                except _Continue:
                    pass
                except _Break:
                    break
                if not cond(f):
                    break
        return fn

    def _return(self, node: ast.Return, scope, block, unit):
        if node.value is None:
            def fn(f):
                raise _Return(None)
            return fn
        value = self.expr(node.value, scope, True)

        def fn(f):
            raise _Return(value(f))
        return fn

    def _break(self, node, scope, block, unit):
        def fn(f):
            raise _Break()
        return fn

    def _continue(self, node, scope, block, unit):
        def fn(f):
            raise _Continue()
        return fn

    def _pragma(self, node: ast.PragmaStmt, scope, block, unit):
        ex = self.ex
        pragma = node.pragma

        def fn(f):
            ex._exec_pragma_stmt(pragma, _env_of(f, scope))
        return fn

    def _offload_block(self, node: ast.OffloadBlock, scope, block, unit):
        ex = self.ex
        pragma, body = node.pragma, node.body

        def fn(f):
            ex._exec_offload(pragma, body, _env_of(f, scope), loop=None)
        return fn

    def _for(self, node: ast.For, scope, block, unit):
        """A ``for`` statement: offload, parallel dispatch, or the loop.

        The sequential loop is also registered under ``(loop, scope)``,
        so :meth:`Executor._run_loop` given this statement's view runs it
        on the caller's frame.
        """
        ex = self.ex
        run_loop = self.loop(node, scope, unit)
        if scope is not _ROOT:
            ex._code[(id(node), scope)] = (run_loop, None, node)
        offload = next(
            (p for p in node.pragmas if isinstance(p, ast.OffloadPragma)), None
        )
        omp = any(isinstance(p, ast.OmpParallelFor) for p in node.pragmas)
        if offload is None and not omp:
            return run_loop
        body = node.body

        def fn(f):
            ctx = ex._ctx
            if offload is not None and not ctx.is_device:
                ex._exec_offload(offload, body, _env_of(f, scope), loop=node)
            elif omp and not ctx.in_parallel:
                ex._exec_parallel_for(node, _env_of(f, scope))
            else:
                run_loop(f)
        return fn

    def loop(self, node: ast.For, scope: _Binding, unit: _Unit):
        """The sequential loop: init (charged) in the loop's own scope,
        then condition, body and step; returns the trip count."""
        ex = self.ex
        token = object()
        init = None
        if node.init is not None:
            init, scope = self.stmt(node.init, scope, token, unit)
        scope, reset = self.bind_leaks(_leaks(node.body), scope, token, unit)
        cond = (
            self.uncharged_expr(node.cond, scope)
            if node.cond is not None else None
        )
        body = self.stmt(node.body, scope, token, unit)[0]
        step = (
            self.uncharged_stmt(node.step, scope, token, unit)
            if node.step is not None else None
        )
        var = codegen._loop_var_name(node)
        loop_vars = ex._loop_vars
        reset = tuple(reset)

        def run_loop(f):
            for slot in reset:
                f[slot] = _ABSENT
            if init is not None:
                init(f)
            if var is not None:
                loop_vars.append(var)
            trips = 0
            try:
                while cond is None or cond(f):
                    trips += 1
                    try:
                        body(f)
                    except _Continue:
                        pass
                    except _Break:
                        break
                    if step is not None:
                        step(f)
            finally:
                if var is not None:
                    loop_vars.pop()
            return trips
        return run_loop

    _STMTS = {
        ast.Assign: assign,
        ast.ExprStmt: _expr_stmt,
        ast.If: _if,
        ast.For: _for,
        ast.While: _while,
        ast.DoWhile: _do_while,
        ast.Return: _return,
        ast.Break: _break,
        ast.Continue: _continue,
        ast.PragmaStmt: _pragma,
        ast.OffloadBlock: _offload_block,
    }

    # -- uncharged variants ---------------------------------------------------

    def _calls_user_function(self, node: ast.Node) -> bool:
        functions = self.ex.functions
        return any(
            isinstance(n, ast.Call) and n.func in functions
            for n in walk_nodes(node)
        )

    def _discarding(self, fn):
        """Run *fn* charged against a throwaway counter set."""
        ex = self.ex

        def discarding(f):
            saved, ex._ctx.pending = ex._ctx.pending, OpCounters()
            try:
                return fn(f)
            finally:
                ex._ctx.pending = saved
        return discarding

    def uncharged_expr(self, node: ast.Expr, scope: _Binding):
        if self._calls_user_function(node):
            return self._discarding(self.expr(node, scope, True))
        return self.expr(node, scope, False)

    def uncharged_stmt(self, node: ast.Stmt, scope, block, unit):
        if node.__class__ is ast.Assign and not self._calls_user_function(node):
            return self.assign(node, scope, block, unit, charged=False)
        if node.__class__ is ast.ExprStmt:
            return self.uncharged_expr(node.expr, scope)
        return self._discarding(self.stmt(node, scope, block, unit)[0])

    # -- expressions ------------------------------------------------------

    def expr(self, node: ast.Expr, scope: _Binding, charged: bool):
        compile_ = self._EXPRS.get(node.__class__)
        if compile_ is None:
            message = f"cannot evaluate {type(node).__name__}"

            def fn(f):
                raise ExecutionError(message)
            return fn
        return compile_(self, node, scope, charged)

    def _literal(self, node, scope, charged):
        value = node.value
        return lambda f: value

    def _ident(self, node: ast.Ident, scope, charged):
        return self.read_name(node.name, scope)

    def binary(self, op: str, charged: bool):
        """``combine(left, right)`` applying operator *op*."""
        ex = self.ex
        if op in _ARITH_OPS or op == "/":
            arith = _ARITH_OPS.get(op)
            if arith is None:
                def arith(a, b):
                    if isinstance(a, _FLOATS) or isinstance(b, _FLOATS):
                        return a / b
                    return _int_div(a, b)
            if not charged:
                return arith

            def combine(a, b):
                if isinstance(a, _FLOATS) or isinstance(b, _FLOATS):
                    ex._ctx.pending.flops += 1
                else:
                    ex._ctx.pending.int_ops += 1
                return arith(a, b)
            return combine
        compare = _COMPARE_OPS.get(op)
        apply = _INT_OPS.get(op)
        if compare is not None:
            def apply(a, b):
                return int(compare(a, b))
        elif apply is None:
            message = f"unsupported operator {op!r}"

            def apply(a, b):
                raise ExecutionError(message)
        if not charged:
            return apply

        def combine(a, b):
            ex._ctx.pending.int_ops += 1
            return apply(a, b)
        return combine

    def _binop(self, node: ast.BinOp, scope, charged):
        ex = self.ex
        left = self.expr(node.left, scope, charged)
        right = self.expr(node.right, scope, charged)
        op = node.op
        if op == "&&" or op == "||":
            both = op == "&&"

            def fn(f):
                if charged:
                    ex._ctx.pending.int_ops += 1
                if both:
                    return int(bool(left(f)) and bool(right(f)))
                return int(bool(left(f)) or bool(right(f)))
            return fn
        if charged and op in _ARITH_OPS:
            return self._arith(op, left, right)
        if charged and op in _COMPARE_OPS:
            return self._compare(op, left, right)
        combine = self.binary(op, charged)

        def fn(f):
            return combine(left(f), right(f))
        return fn

    def _arith(self, op, left, right):
        """Charged ``+``/``-``/``*``: a flop when either side is floating."""
        ex = self.ex
        apply = _ARITH_OPS[op]

        def fn(f):
            a = left(f)
            b = right(f)
            if isinstance(a, _FLOATS) or isinstance(b, _FLOATS):
                ex._ctx.pending.flops += 1
            else:
                ex._ctx.pending.int_ops += 1
            return apply(a, b)
        return fn

    def _compare(self, op, left, right):
        """Charged comparisons: one int op, an int result."""
        ex = self.ex
        compare = _COMPARE_OPS[op]

        def fn(f):
            a = left(f)
            b = right(f)
            ex._ctx.pending.int_ops += 1
            return int(compare(a, b))
        return fn

    def _unop(self, node: ast.UnOp, scope, charged):
        ex = self.ex
        operand = self.expr(node.operand, scope, charged)
        op = node.op
        if op == "-":
            def fn(f):
                value = operand(f)
                if charged:
                    if isinstance(value, _FLOATS):
                        ex._ctx.pending.flops += 1
                    else:
                        ex._ctx.pending.int_ops += 1
                return -value
            return fn
        if op == "!":
            def fn(f):
                value = operand(f)
                if charged:
                    ex._ctx.pending.int_ops += 1
                return int(not bool(value))
            return fn
        message = f"unsupported unary operator {op!r}"

        def fn(f):
            operand(f)
            raise ExecutionError(message)
        return fn

    def _cond(self, node: ast.Cond, scope, charged):
        ex = self.ex
        cond = self.expr(node.cond, scope, charged)
        then = self.expr(node.then, scope, charged)
        other = self.expr(node.other, scope, charged)

        def fn(f):
            if charged:
                ex._ctx.pending.branches += 1
            return then(f) if cond(f) else other(f)
        return fn

    def _cast(self, node: ast.Cast, scope, charged):
        operand = self.expr(node.operand, scope, charged)
        coerce = _coercer(node.type)
        if coerce is None:
            return operand
        return lambda f: coerce(operand(f))

    def _sizeof(self, node: ast.SizeOf, scope, charged):
        ex = self.ex
        typ = node.type
        return lambda f: sizeof_type(typ, ex.structs)

    def _call(self, node: ast.Call, scope, charged):
        ex = self.ex
        args = tuple(self.expr(a, scope, charged) for a in node.args)
        name = node.func
        if name in ex.functions:
            func = ex.functions[name]

            def fn(f):
                values = [a(f) for a in args]
                if charged:
                    ex._ctx.pending.calls += 1
                return ex._call_function(func, values, ex._call_root_env())
            return fn
        if name in _BUILTIN_IMPL:
            impl = _BUILTIN_IMPL[name]
            cost = BUILTIN_COSTS[name]

            def fn(f):
                values = [a(f) for a in args]
                if charged:
                    pending = ex._ctx.pending
                    pending.calls += 1
                    pending.flops += cost
                try:
                    return impl(*values)
                except ValueError as exc:
                    raise ExecutionError(f"math domain error in {name}: {exc}")
            return fn

        def intrinsic(values):
            if name in ex._SHARED_ALLOC_FUNCS:
                return ex.machine.myo.shared_malloc(int(values[0]))
            if name in ex._ARENA_FUNCS:
                return ex.machine.arena.allocate(int(values[0])).ptr.addr
            if name in ex._FREE_FUNCS:
                # Shared frees are deferred: MYO reclaims at program end,
                # the arena releases whole buffers (Section V-A).
                return 0
            raise ExecutionError(f"call to unknown function {name!r}")

        def fn(f):
            values = [a(f) for a in args]
            if charged:
                ex._ctx.pending.calls += 1
            return intrinsic(values)
        return fn

    # -- array accesses ---------------------------------------------------

    def _irregular(self, node: ast.Subscript, scope: _Binding):
        """``irregular(f)``: the site's cached regularity verdict under the
        innermost loop variable (caller checks a loop is open)."""
        ex = self.ex
        loop_vars = ex._loop_vars
        verdicts: Dict[str, bool] = {}

        def irregular(f):
            var = loop_vars[-1]
            verdict = verdicts.get(var)
            if verdict is None:
                verdict = ex._is_irregular_site(node, _env_of(f, scope))
                verdicts[var] = verdict
            return verdict
        return irregular

    def _access(self, node: ast.Subscript, scope, charged, is_write):
        """``count(f, array, itemsize, aos)`` for one access at *node*."""
        ex = self.ex
        scale = ex.machine.scale
        limit = ex.CACHED_ARRAY_BYTES
        loop_vars = ex._loop_vars
        irregular = self._irregular(node, scope)
        if not charged:
            # Nothing is charged, but the site's verdict is still
            # classified (and cached) when a charged access would be.
            def count(f, array, itemsize, aos):
                if not aos and loop_vars and array.nbytes * scale > limit:
                    irregular(f)
            return count
        if is_write:
            def count(f, array, itemsize, aos):
                pending = ex._ctx.pending
                pending.stores += 1
                if array.nbytes * scale > limit:
                    pending.bytes_written += itemsize
                    if aos or (loop_vars and irregular(f)):
                        pending.irregular_accesses += 1
            return count

        def count(f, array, itemsize, aos):
            pending = ex._ctx.pending
            pending.loads += 1
            if array.nbytes * scale > limit:
                pending.bytes_read += itemsize
                if aos or (loop_vars and irregular(f)):
                    pending.irregular_accesses += 1
        return count

    def _resolver(self, node: ast.Subscript, scope, charged):
        """``resolve(f) -> (array, index)`` with the bounds check."""
        base = self.expr(node.base, scope, charged)
        index = self.expr(node.index, scope, charged)

        def resolve(f):
            array = base(f)
            if not isinstance(array, np.ndarray):
                raise ExecutionError("subscript of a non-array value")
            i = index(f)
            if i.__class__ is not int:
                i = int(i)
            if i < 0 or i >= len(array):
                raise ExecutionError(
                    f"index {i} out of range for array of {len(array)}"
                )
            return array, i
        return resolve

    def _subscript(self, node: ast.Subscript, scope, charged):
        if not charged:
            resolve = self._resolver(node, scope, False)
            count = self._access(node, scope, False, False)

            def fn(f):
                array, i = resolve(f)
                count(f, array, 0, False)
                return _item(array[i])
            return fn
        # The hottest node: resolution and accounting are inlined.
        ex = self.ex
        base = self.expr(node.base, scope, True)
        index = self.expr(node.index, scope, True)
        scale = ex.machine.scale
        limit = ex.CACHED_ARRAY_BYTES
        loop_vars = ex._loop_vars
        irregular = self._irregular(node, scope)

        def fn(f):
            array = base(f)
            if not isinstance(array, np.ndarray):
                raise ExecutionError("subscript of a non-array value")
            i = index(f)
            if i.__class__ is not int:
                i = int(i)
            if i < 0 or i >= len(array):
                raise ExecutionError(
                    f"index {i} out of range for array of {len(array)}"
                )
            pending = ex._ctx.pending
            pending.loads += 1
            if array.nbytes * scale > limit:
                pending.bytes_read += array.itemsize
                if loop_vars and irregular(f):
                    pending.irregular_accesses += 1
            return _item(array[i])
        return fn

    def store_subscript(self, node: ast.Subscript, scope, charged):
        resolve = self._resolver(node, scope, charged)
        count = self._access(node, scope, charged, True)

        def store(f, value):
            array, i = resolve(f)
            count(f, array, array.itemsize, False)
            array[i] = value
        return store

    def _member(self, node: ast.Member, scope, charged):
        name = node.field
        if isinstance(node.base, ast.Subscript):
            resolve = self._resolver(node.base, scope, charged)
            count = self._access(node.base, scope, charged, False)

            def fn(f):
                array, i = resolve(f)
                if array.dtype.names is None or name not in array.dtype.names:
                    raise ExecutionError(f"no field {name!r} in {array.dtype}")
                count(f, array, array.dtype[name].itemsize, True)
                value = array[name][i]
                return value.item() if isinstance(value, np.generic) else value
            return fn
        base = self.expr(node.base, scope, charged)

        def fn(f):
            value = base(f)
            if isinstance(value, np.void):
                return value[name]
            try:
                return value[name]
            except (TypeError, IndexError, KeyError) as exc:
                raise ExecutionError(f"bad member access: {exc}") from exc
        return fn

    def store_member(self, node: ast.Member, scope, charged):
        name = node.field
        if isinstance(node.base, ast.Subscript):
            resolve = self._resolver(node.base, scope, charged)
            count = self._access(node.base, scope, charged, True)

            def store(f, value):
                array, i = resolve(f)
                if array.dtype.names is None or name not in array.dtype.names:
                    raise ExecutionError(
                        f"array {array.dtype} has no field {name!r}"
                    )
                count(f, array, array.dtype[name].itemsize, True)
                array[name][i] = value
            return store
        base = self.expr(node.base, scope, charged)

        def store(f, value):
            target = base(f)
            try:
                target[name] = value
            except (TypeError, IndexError, KeyError) as exc:
                raise ExecutionError(f"bad member assignment: {exc}") from exc
        return store

    _EXPRS = {
        ast.IntLit: _literal,
        ast.FloatLit: _literal,
        ast.StringLit: _literal,
        ast.Ident: _ident,
        ast.BinOp: _binop,
        ast.UnOp: _unop,
        ast.Subscript: _subscript,
        ast.Member: _member,
        ast.Call: _call,
        ast.Cond: _cond,
        ast.Cast: _cast,
        ast.SizeOf: _sizeof,
    }


def run_program(
    source: Union[str, ast.Program],
    arrays: Optional[Dict[str, np.ndarray]] = None,
    scalars: Optional[Dict[str, object]] = None,
    machine: Optional[Machine] = None,
    entry: str = "main",
    engine: str = "auto",
) -> ExecutionResult:
    """Convenience wrapper: parse (if needed), execute, return the result."""
    executor = Executor(source, machine, engine=engine)
    return executor.run(entry=entry, arrays=arrays, scalars=scalars)
