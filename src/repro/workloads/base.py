"""Workload infrastructure: the three benchmark variants.

Every benchmark can be materialized in three forms, mirroring Section VI:

* ``cpu`` — the original OpenMP program running on the host;
* ``mic`` — the same program with offload pragmas inserted automatically
  (the Apricot-style port used for Figure 1's unoptimized bars);
* ``opt`` — the offloaded program after the COMP optimization pipeline.

MiniC workloads execute through the interpreter at a reduced element
count (``exec`` scale) while timing and device-memory accounting use the
``sim_scale`` factor to reflect paper-scale inputs; outputs of all three
variants are compared element-for-element.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis.offload import insert_offload_pragmas
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.faults.stats import FaultStats
from repro.minic import ast_nodes as ast
from repro.minic.parser import parse, parse_expr
from repro.runtime.executor import ExecutionStats, Machine, run_program
from repro.transforms.pipeline import (
    CompOptimizer,
    OptimizationPlan,
    PipelineResult,
)

VARIANTS = ("cpu", "mic", "opt")


def input_rng(seed: Optional[int], default: int) -> np.random.Generator:
    """The generator for one workload input stream.

    Every workload owns fixed per-stream *default* seeds so the suite is
    reproducible with no configuration; a global *seed* (the ``--seed``
    flag) derives a new stream per (seed, default) pair, keeping streams
    decorrelated across both workloads and seeds.
    """
    if seed is None:
        return np.random.default_rng(default)
    return np.random.default_rng((seed, default))


@dataclass
class Table2Row:
    """Table II metadata for one benchmark."""

    suite: str
    paper_input: str
    kloc: float
    streaming: Optional[float] = None  # paper's individual speedups
    merging: Optional[float] = None
    regularization: Optional[float] = None
    shared_memory: Optional[float] = None

    @property
    def applicable(self) -> List[str]:
        """Which optimizations the paper marks for this benchmark."""
        names = []
        if self.streaming is not None:
            names.append("streaming")
        if self.merging is not None:
            names.append("merging")
        if self.regularization is not None:
            names.append("regularization")
        if self.shared_memory is not None:
            names.append("shared-memory")
        return names


@dataclass
class WorkloadRun:
    """Result of running one variant of one workload."""

    workload: str
    variant: str
    stats: ExecutionStats
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    pipeline: Optional[PipelineResult] = None
    #: Real (wall-clock) interpretation time of the run, in seconds —
    #: independent of the *simulated* time in ``stats``.
    wall_seconds: float = 0.0
    #: Execution engine the run used ("auto", "codegen", or "tree").
    engine: str = "auto"
    #: Fault-injection and recovery accounting for the run (empty when
    #: the machine had no fault plan).
    fault_stats: Optional[FaultStats] = None

    @property
    def time(self) -> float:
        """The run's simulated total time."""
        return self.stats.total_time


class Workload:
    """Common interface implemented by both workload kinds."""

    name: str
    table2: Table2Row

    #: Default execution engine for this workload; None inherits "auto".
    #: A workload whose loops are known codegen-hostile can pin "tree".
    engine: Optional[str] = None

    #: Global input seed (the ``--seed`` flag); None keeps each
    #: workload's fixed default input streams.
    input_seed: Optional[int] = None

    #: Timing/accounting scale of the simulated machine.
    sim_scale: float = 1.0

    def run(
        self,
        variant: str,
        machine: Optional[Machine] = None,
        engine: Optional[str] = None,
    ) -> WorkloadRun:
        """Execute one variant; returns a WorkloadRun."""
        raise NotImplementedError

    def resolve_engine(self, engine: Optional[str]) -> str:
        """The engine an explicit request / workload default resolves to."""
        return engine or self.engine or "auto"

    def machine(
        self,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResiliencePolicy] = None,
        tracer=None,
        devices: Optional[int] = None,
    ) -> Machine:
        """A fresh simulated machine at this workload's scale."""
        return Machine(
            scale=self.sim_scale,
            fault_plan=fault_plan,
            resilience=resilience,
            tracer=tracer,
            devices=devices,
        )

    def _rng(self, default: int) -> np.random.Generator:
        """An input generator honouring this workload's ``input_seed``."""
        return input_rng(self.input_seed, default)


class MiniCWorkload(Workload):
    """A benchmark expressed as a MiniC program."""

    def __init__(
        self,
        name: str,
        source: str,
        table2: Table2Row,
        make_arrays: Callable[[], Dict[str, np.ndarray]],
        scalars: Dict[str, object],
        sim_scale: float,
        output_arrays: List[str],
        array_length_hints: Optional[Dict[str, str]] = None,
        plan: Optional[OptimizationPlan] = None,
        description: str = "",
    ):
        self.name = name
        self.source = source
        self.table2 = table2
        self.make_arrays = make_arrays
        self.scalars = dict(scalars)
        self.sim_scale = sim_scale
        self.output_arrays = list(output_arrays)
        self.array_length_hints = {
            key: parse_expr(value) for key, value in (array_length_hints or {}).items()
        }
        self.plan = plan or OptimizationPlan()
        self.description = description

    # -- program variants ------------------------------------------------------

    #: Optional hand-written MIC port (hotspot's device-resident time loop,
    #: dedup's manually streamed pipeline).  When None, the MIC version is
    #: derived from the CPU source by Apricot-style pragma insertion.
    mic_source: Optional[str] = None

    def cpu_program(self) -> ast.Program:
        """The original OpenMP program."""
        return parse(self.source)

    def mic_program(self) -> ast.Program:
        """The offloaded (unoptimized) MIC program."""
        if self.mic_source is not None:
            program = parse(self.mic_source)
            insert_offload_pragmas(program, self.array_length_hints)
            return program
        program = parse(self.source)
        insert_offload_pragmas(program, self.array_length_hints)
        return program

    def opt_program(self) -> ast.Program:
        """The COMP-optimized MIC program."""
        program = self.mic_program()
        for name, expr in self.array_length_hints.items():
            self.plan.array_lengths.setdefault(name, expr)
        self._pipeline = CompOptimizer(self.plan).optimize(program)
        return program

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        variant: str,
        machine: Optional[Machine] = None,
        engine: Optional[str] = None,
    ) -> WorkloadRun:
        """Interpret one variant on the simulated machine."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        engine = self.resolve_engine(engine)
        self._pipeline = None
        if variant == "cpu":
            program = self.cpu_program()
        elif variant == "mic":
            program = self.mic_program()
        else:
            program = self.opt_program()
        machine = machine or self.machine()
        arrays = (
            self.make_arrays()
            if self.input_seed is None
            else self.make_arrays(seed=self.input_seed)
        )
        started = time.perf_counter()
        result = run_program(
            program,
            arrays=arrays,
            scalars=dict(self.scalars),
            machine=machine,
            engine=engine,
        )
        wall_seconds = time.perf_counter() - started
        outputs = {
            name: result.array(name).copy() for name in self.output_arrays
        }
        return WorkloadRun(
            workload=self.name,
            variant=variant,
            stats=result.stats,
            outputs=outputs,
            pipeline=self._pipeline,
            wall_seconds=wall_seconds,
            engine=engine,
            fault_stats=machine.fault_stats,
        )

    _pipeline: Optional[PipelineResult] = None


class SharedMemoryWorkload(Workload):
    """A pointer-based benchmark driven through the shared-memory runtimes.

    Subclasses implement the three ``_run_*`` hooks; the base class wires
    them into the common variant interface.  The ``mic`` variant uses the
    MYO baseline, ``opt`` uses the arena + augmented-pointer mechanism.
    """

    def __init__(self, name: str, table2: Table2Row, sim_scale: float = 1.0):
        self.name = name
        self.table2 = table2
        self.sim_scale = sim_scale

    def run(
        self,
        variant: str,
        machine: Optional[Machine] = None,
        engine: Optional[str] = None,
    ) -> WorkloadRun:
        """Drive one variant through the shared-memory runtimes.

        These workloads run as Python drivers, not MiniC programs, so the
        engine choice does not apply; it is accepted for interface parity.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        machine = machine or self.machine()
        started = time.perf_counter()
        hook = {
            "cpu": self._run_cpu,
            "mic": self._run_mic_myo,
            "opt": self._run_mic_arena,
        }[variant]
        outputs = hook(machine)
        machine.finalize_integrity()
        wall_seconds = time.perf_counter() - started
        stats = ExecutionStats(
            total_time=machine.clock.now,
            device_busy_time=machine.timeline.busy_time("mic"),
            transfer_to_device_time=machine.timeline.busy_time("dma:h2d"),
            transfer_from_device_time=machine.timeline.busy_time("dma:d2h"),
            bytes_to_device=machine.coi.stats.bytes_to_device,
            bytes_from_device=machine.coi.stats.bytes_from_device,
            kernel_launches=machine.coi.stats.kernel_launches,
            device_peak_bytes=machine.device_memory.peak,
        )
        return WorkloadRun(
            workload=self.name,
            variant=variant,
            stats=stats,
            outputs=outputs,
            wall_seconds=wall_seconds,
            engine="tree",
            fault_stats=machine.fault_stats,
        )

    # -- hooks -----------------------------------------------------------------

    def _run_cpu(self, machine: Machine) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def _run_mic_myo(self, machine: Machine) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def _run_mic_arena(self, machine: Machine) -> Dict[str, np.ndarray]:
        raise NotImplementedError
