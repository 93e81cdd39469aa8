"""The golden ledger: the suite's behaviour, pinned independently of
any engine.

The engine differential suite compares the vector tiers against the
scalar tier, so it cannot notice the scalar tier itself drifting.  The
ledger can: it records simulated times, op counters, DMA traffic and
output digests for every workload x variant, and this test demands
exact equality.  A change that moves a value regenerates the ledger
(``python -m tests.golden.regenerate``) and says why.
"""

import json

import pytest

from repro.workloads.suite import workload_names
from tests.golden.regenerate import LEDGER_PATH, VARIANTS, workload_entries

LEDGER = json.loads(LEDGER_PATH.read_text())


def test_ledger_covers_the_suite():
    assert sorted(LEDGER) == sorted(workload_names())
    for name, variants in LEDGER.items():
        assert sorted(variants) == sorted(VARIANTS), name


@pytest.mark.parametrize("name", sorted(workload_names()))
def test_workload_matches_ledger(name, runner):
    # The session runner's per-workload engine resolves to "auto" (no
    # workload pins one), so its cached runs are the ledger's runs.
    assert runner.engine in (None, "auto")
    actual = workload_entries(name, runner)
    for variant in VARIANTS:
        expected = LEDGER[name][variant]
        got = actual[variant]
        assert got["outputs"] == expected["outputs"], (
            f"{name}/{variant}: output bytes moved"
        )
        assert got["ops"] == expected["ops"], (
            f"{name}/{variant}: op counters moved"
        )
        assert got == expected, f"{name}/{variant}: ledger value moved"
