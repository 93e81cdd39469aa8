"""Differential test: the codegen tier against the scalar tier.

The codegen execution tier must be a pure performance change:
for every workload the outputs must be bit-identical, the dynamic
operation counters identical, and the simulated time identical to the
tree-walking interpreter's.  Any divergence means an engine's semantics
or its analytic counter model drifted from the reference tier.
"""

import functools

import numpy as np
import pytest

from repro.obs.tracer import Tracer
from repro.workloads.base import MiniCWorkload
from repro.workloads.suite import get_workload, workload_names


@functools.lru_cache(maxsize=None)
def _run(name, engine):
    """Memoized: the tree reference run is shared by every engine
    parametrization (results are only compared, never mutated)."""
    return get_workload(name).run("opt", engine=engine)


#: Each case names a vector tier the ladder has held.  ``batch`` is the
#: place the retired batch tier had below codegen: the loops it ran now
#: run on codegen under the default engine ("auto"), which must agree
#: with the scalar tier as well.
_ENGINE_FOR_CASE = {"batch": "auto", "codegen": "codegen"}


@pytest.mark.parametrize("engine", ["batch", "codegen"])
@pytest.mark.parametrize("name", workload_names())
def test_engines_agree(name, engine):
    tree = _run(name, "tree")
    other = _run(name, _ENGINE_FOR_CASE[engine])

    assert set(other.outputs) == set(tree.outputs)
    for key in tree.outputs:
        expected, actual = tree.outputs[key], other.outputs[key]
        assert expected.dtype == actual.dtype, key
        assert expected.tobytes() == actual.tobytes(), (
            f"{name}: output {key!r} differs between engines"
        )

    assert other.stats.ops.as_dict() == tree.stats.ops.as_dict(), (
        f"{name}: dynamic op counters differ between engines"
    )
    assert other.stats.total_time == tree.stats.total_time, (
        f"{name}: simulated time differs between engines"
    )
    assert other.stats.transfer_time == tree.stats.transfer_time
    assert other.stats.bytes_to_device == tree.stats.bytes_to_device
    assert other.stats.bytes_from_device == tree.stats.bytes_from_device


@pytest.mark.parametrize("name", workload_names())
def test_tracing_is_invisible(name):
    """An instrumented run must be bit-identical to an untraced one.

    The tracer only observes — it never advances the clock or schedules
    timeline work — so outputs, dynamic operation counters, and every
    simulated-time/traffic figure must match the untraced run exactly.
    """
    workload = get_workload(name)
    untraced = workload.run("opt")
    tracer = Tracer()
    traced = workload.run("opt", machine=workload.machine(tracer=tracer))

    assert set(traced.outputs) == set(untraced.outputs)
    for key in untraced.outputs:
        assert (
            untraced.outputs[key].tobytes() == traced.outputs[key].tobytes()
        ), f"{name}: tracing changed output {key!r}"

    assert traced.stats.ops.as_dict() == untraced.stats.ops.as_dict(), (
        f"{name}: tracing changed dynamic op counters"
    )
    assert traced.stats.total_time == untraced.stats.total_time, (
        f"{name}: tracing changed simulated time"
    )
    assert traced.stats.transfer_time == untraced.stats.transfer_time
    assert traced.stats.bytes_to_device == untraced.stats.bytes_to_device
    assert traced.stats.bytes_from_device == untraced.stats.bytes_from_device
    assert traced.stats.kernel_launches == untraced.stats.kernel_launches
    assert traced.stats.device_peak_bytes == untraced.stats.device_peak_bytes
    # ... and the tracer really did record the run it watched.
    assert tracer.spans


def test_codegen_engages_on_inlined_calls():
    """blackscholes' streamed kernel (offset indexes, an inner loop and an
    inlined pricing function with early returns) must really run on the
    codegen tier, and agree with the scalar tier."""
    from repro.runtime.executor import Executor

    workload = get_workload("blackscholes")
    assert isinstance(workload, MiniCWorkload)
    program = workload.opt_program()
    runs = {}
    for engine in ("codegen", "tree"):
        executor = Executor(program, workload.machine(), engine=engine)
        result = executor.run(
            arrays=workload.make_arrays(), scalars=dict(workload.scalars)
        )
        runs[engine] = (executor, result)
    executor, result = runs["codegen"]
    assert executor._codegen_stats["ran"] > 0
    assert executor._codegen_stats["fallback"] == 0
    tree = runs["tree"][1]
    for key in workload.output_arrays:
        assert result.array(key).tobytes() == tree.array(key).tobytes()
    assert result.stats.ops.as_dict() == tree.stats.ops.as_dict()
    assert result.stats.total_time == tree.stats.total_time


def test_codegen_engine_actually_engages():
    """A straight-line kernel must run through the generated-source tier,
    not silently fall back to the scalar tier."""
    from repro.runtime.executor import Executor, Machine, run_program

    src = """
    void main() {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            out[i] = a[i] * 2.0 + b[i];
        }
    }
    """
    n = 256
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.standard_normal(n),
        "b": rng.standard_normal(n),
        "out": np.zeros(n),
    }
    from repro.minic.parser import parse

    executor = Executor(parse(src), Machine(), engine="codegen")
    executor.run(arrays=arrays, scalars={"n": n})
    assert executor._codegen_stats["ran"] > 0
    assert executor._codegen_stats["fallback"] == 0
    np.testing.assert_array_equal(
        arrays["out"], arrays["a"] * 2.0 + arrays["b"]
    )


@pytest.mark.parametrize("name", ["blackscholes", "kmeans", "CG", "nn"])
def test_disabled_checkpointing_is_invisible(name):
    """With ``checkpoint_interval=0`` (the default) and no faults, the
    whole resilience + checkpoint machinery must be a no-op: outputs,
    dynamic op counters, and simulated time bit-identical to a plain run.
    """
    from repro.faults import FaultPlan, ResiliencePolicy

    workload = get_workload(name)
    plain = workload.run("opt")
    machine = workload.machine(
        fault_plan=FaultPlan(scripted=[]), resilience=ResiliencePolicy()
    )
    guarded = workload.run("opt", machine=machine)

    assert set(guarded.outputs) == set(plain.outputs)
    for key in plain.outputs:
        assert (
            plain.outputs[key].tobytes() == guarded.outputs[key].tobytes()
        ), f"{name}: disabled checkpointing changed output {key!r}"
    assert guarded.stats.ops.as_dict() == plain.stats.ops.as_dict()
    assert guarded.stats.total_time == plain.stats.total_time, (
        f"{name}: disabled checkpointing changed simulated time"
    )
    assert guarded.stats.transfer_time == plain.stats.transfer_time
    assert guarded.stats.bytes_to_device == plain.stats.bytes_to_device
    assert machine.fault_stats.checkpoints_committed == 0
    assert machine.fault_stats.device_resets == 0


@pytest.mark.parametrize("name", ["blackscholes", "kmeans", "CG", "nn"])
def test_enabled_checkpointing_costs_only_time(name):
    """With checkpointing on but no faults, outputs and op counters stay
    bit-identical; only simulated time grows (the commit cost)."""
    from repro.faults import FaultPlan, ResiliencePolicy

    workload = get_workload(name)
    plain = workload.run("opt")
    machine = workload.machine(
        fault_plan=FaultPlan(scripted=[]),
        resilience=ResiliencePolicy(checkpoint_interval=2),
    )
    guarded = workload.run("opt", machine=machine)

    for key in plain.outputs:
        assert plain.outputs[key].tobytes() == guarded.outputs[key].tobytes()
    assert guarded.stats.ops.as_dict() == plain.stats.ops.as_dict()
    assert machine.fault_stats.checkpoints_committed > 0
    assert guarded.stats.total_time > plain.stats.total_time


@pytest.mark.parametrize("name", ["blackscholes", "kmeans", "CG", "nn"])
def test_integrity_off_is_invisible(name):
    """``integrity_mode="off"`` with no silent faults must be a no-op:
    outputs, op counters, and simulated time bit-identical to a plain
    run — no checksums are taken and no verification cost is charged.
    """
    from repro.faults import FaultPlan, ResiliencePolicy

    workload = get_workload(name)
    plain = workload.run("opt")
    machine = workload.machine(
        fault_plan=FaultPlan(scripted=[]),
        resilience=ResiliencePolicy(integrity_mode="off"),
    )
    guarded = workload.run("opt", machine=machine)

    for key in plain.outputs:
        assert plain.outputs[key].tobytes() == guarded.outputs[key].tobytes()
    assert guarded.stats.ops.as_dict() == plain.stats.ops.as_dict()
    assert guarded.stats.total_time == plain.stats.total_time, (
        f"{name}: disabled integrity changed simulated time"
    )
    assert machine.fault_stats.verifications == 0
    assert machine.fault_stats.verify_seconds == 0.0


@pytest.mark.parametrize("name", ["blackscholes", "kmeans", "CG", "nn"])
def test_integrity_full_costs_only_time(name):
    """``integrity_mode="full"`` with no silent faults keeps outputs and
    op counters bit-identical; checksum verification charges simulated
    time (which may overlap device slack but can never reduce it)."""
    from repro.faults import FaultPlan, ResiliencePolicy

    workload = get_workload(name)
    plain = workload.run("opt")
    machine = workload.machine(
        fault_plan=FaultPlan(scripted=[]),
        resilience=ResiliencePolicy(integrity_mode="full"),
    )
    guarded = workload.run("opt", machine=machine)

    for key in plain.outputs:
        assert plain.outputs[key].tobytes() == guarded.outputs[key].tobytes()
    assert guarded.stats.ops.as_dict() == plain.stats.ops.as_dict()
    assert guarded.stats.total_time >= plain.stats.total_time
    assert machine.fault_stats.verifications > 0
    assert machine.fault_stats.verify_seconds > 0
    assert machine.fault_stats.silent_detected == 0
    assert machine.fault_stats.sdc_escapes == 0


def test_mic_variant_agrees_for_blackscholes():
    workload = get_workload("blackscholes")
    tree = workload.run("mic", engine="tree")
    fast = workload.run("mic", engine="codegen")
    for key in tree.outputs:
        assert tree.outputs[key].tobytes() == fast.outputs[key].tobytes()
    assert fast.stats.total_time == tree.stats.total_time
    assert fast.stats.ops.as_dict() == tree.stats.ops.as_dict()


def test_cpu_variant_agrees_for_kmeans():
    workload = get_workload("kmeans")
    tree = workload.run("cpu", engine="tree")
    fast = workload.run("cpu", engine="codegen")
    for key in tree.outputs:
        assert tree.outputs[key].tobytes() == fast.outputs[key].tobytes()
    assert fast.stats.total_time == tree.stats.total_time
    assert fast.stats.ops.as_dict() == tree.stats.ops.as_dict()
