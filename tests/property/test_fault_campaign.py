"""Campaign-level fault-injection properties.

Two system-wide invariants backstop the resilience work:

* **determinism** — a campaign is a pure function of its seed: running
  it twice yields byte-equal summaries (same faults at the same
  operations, same recovery costs, same outputs);
* **engine independence** — the interpreter engine (codegen vs the
  scalar tier) changes how device bodies are evaluated, never *what*
  the offload runtime does, so the same fault plan produces identical
  outputs and identical :class:`FaultStats` under either engine.
"""

import numpy as np

from repro.faults import FaultPlan, ResiliencePolicy
from repro.faults.campaign import outputs_identical, run_campaign, scenario_seed
from repro.workloads.suite import get_workload

#: Rates high enough that a two-scenario campaign always injects
#: something, so the determinism assertions are not vacuous.
HOT_RATES = {"h2d": 0.2, "d2h": 0.2, "kernel": 0.1, "alloc": 0.02, "signal": 0.1}


class TestCampaignDeterminism:
    def test_same_seed_same_summary(self):
        first = run_campaign(["blackscholes"], scenarios=2, seed=5, rates=HOT_RATES)
        second = run_campaign(["blackscholes"], scenarios=2, seed=5, rates=HOT_RATES)
        assert first.totals.total_injected > 0
        assert first.as_dict() == second.as_dict()

    def test_contract_holds_under_hot_rates(self):
        result = run_campaign(["blackscholes"], scenarios=3, seed=11, rates=HOT_RATES)
        assert result.ok
        for outcome in result.outcomes:
            assert outcome.identical
            if outcome.faults_injected:
                assert outcome.time > outcome.baseline_time

    def test_scenarios_are_decorrelated(self):
        """Different scenario cells draw from independent fault streams."""
        seeds = {
            scenario_seed(0, k, name)
            for k in range(3)
            for name in ("blackscholes", "nn")
        }
        assert len(seeds) == 6


class TestEngineDifferential:
    def _run(self, engine):
        plan_seed = scenario_seed(3, 0, "blackscholes")
        workload = get_workload("blackscholes")
        machine = workload.machine(
            fault_plan=FaultPlan(seed=plan_seed, rates=HOT_RATES),
            resilience=ResiliencePolicy(),
        )
        run = workload.run("opt", machine=machine, engine=engine)
        return run, machine

    def test_codegen_and_tree_agree_under_faults(self):
        codegen_run, codegen_machine = self._run("codegen")
        tree_run, tree_machine = self._run("tree")
        assert codegen_machine.fault_stats.total_injected > 0
        assert outputs_identical(codegen_run.outputs, tree_run.outputs)
        assert (
            codegen_machine.fault_stats.as_dict()
            == tree_machine.fault_stats.as_dict()
        )
        assert np.isclose(codegen_machine.clock.now, tree_machine.clock.now)

    def test_fault_stats_flow_into_workload_run(self):
        run, machine = self._run("codegen")
        assert run.fault_stats is machine.fault_stats


#: Rates mixing announced faults with every silent kind, hot enough
#: that a two-scenario campaign exercises the whole coverage matrix.
SILENT_RATES = {
    "h2d": 0.1,
    "h2d:silent": 0.05,
    "d2h:silent": 0.05,
    "kernel:sdc": 0.03,
}


class TestSilentCampaigns:
    def test_full_integrity_detects_every_silent_fault(self):
        result = run_campaign(
            ["blackscholes"], scenarios=2, seed=3, rates=SILENT_RATES,
            policy=ResiliencePolicy(
                integrity_mode="full", checkpoint_interval=2
            ),
        )
        totals = result.totals
        assert result.ok
        assert totals.silent_injected > 0
        assert totals.silent_detected == totals.silent_injected
        assert totals.sdc_escapes == 0
        for outcome in result.outcomes:
            assert outcome.identical
            assert outcome.error is None
        for cell in totals.coverage.values():
            assert cell["injected"] == cell["detected"] + cell["escaped"]
            assert cell["corrected"] == cell["detected"]

    def test_off_mode_books_every_silent_fault_as_escape(self):
        rates = {k: v for k, v in SILENT_RATES.items() if ":" in k}
        result = run_campaign(
            ["blackscholes"], scenarios=2, seed=3, rates=rates,
            policy=ResiliencePolicy(integrity_mode="off"),
        )
        totals = result.totals
        assert totals.silent_injected > 0
        assert totals.silent_detected == 0
        assert totals.sdc_escapes == totals.silent_injected
        # Escaped corruption reaching the output (or crashing the run)
        # is exactly what "off" reports — not a contract violation.
        assert result.ok

    def test_silent_campaign_is_deterministic(self):
        policy = ResiliencePolicy(integrity_mode="full", checkpoint_interval=2)
        first = run_campaign(
            ["blackscholes"], scenarios=1, seed=9, rates=SILENT_RATES,
            policy=policy,
        )
        second = run_campaign(
            ["blackscholes"], scenarios=1, seed=9, rates=SILENT_RATES,
            policy=policy,
        )
        assert first.as_dict() == second.as_dict()
