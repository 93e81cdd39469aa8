"""Regenerate the golden suite ledger (``suite_ledger.json``).

The ledger pins, for each of the 12 Table II workloads x cpu/mic/opt run
under ``engine="auto"`` with fixed default inputs, everything a
behaviour-preserving change must leave alone: the simulated time (as
``repr``), the dynamic op counters, kernel launches, DMA bytes, and a
sha256 over each output's dtype, shape and bytes.  It holds no git SHA
and no host timings, so it only changes when behaviour does.

Run from the repository root:

    PYTHONPATH=src python -m tests.golden.regenerate

A change that moves a ledger value must regenerate the ledger explicitly
and say why in its changelog entry.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

LEDGER_PATH = pathlib.Path(__file__).with_name("suite_ledger.json")
VARIANTS = ("cpu", "mic", "opt")


def output_digest(value) -> str:
    """sha256 over an output array's dtype, shape and bytes."""
    h = hashlib.sha256()
    h.update(str(value.dtype).encode())
    h.update(str(value.shape).encode())
    h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def ledger_entry(run) -> dict:
    """The ledger record of one workload run."""
    stats = run.stats
    return {
        "sim_time": repr(stats.total_time),
        "ops": stats.ops.as_dict(),
        "kernel_launches": stats.kernel_launches,
        "bytes_to_device": stats.bytes_to_device,
        "bytes_from_device": stats.bytes_from_device,
        "outputs": {
            key: output_digest(value)
            for key, value in sorted(run.outputs.items())
        },
    }


def workload_entries(name: str, runner=None) -> dict:
    """Ledger records of one workload's three variants.

    *runner* is a :class:`~repro.experiments.harness.SuiteRunner` whose
    engine resolves to ``auto`` (a fresh one when omitted).
    """
    from repro.experiments.harness import SuiteRunner

    if runner is None:
        runner = SuiteRunner(engine="auto")
    return {
        variant: ledger_entry(runner.run_variant(name, variant))
        for variant in VARIANTS
    }


def compute_ledger() -> dict:
    """The full ledger: workload name -> variant -> record."""
    from repro.workloads.suite import workload_names

    return {name: workload_entries(name) for name in sorted(workload_names())}


def main() -> None:
    LEDGER_PATH.write_text(
        json.dumps(compute_ledger(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {LEDGER_PATH}")


if __name__ == "__main__":
    main()
