"""The chaos gameday: scenario loading, budgets, and the shipped
catalogue run end to end against a fault-free baseline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.mafia import mafia
from repro.errors import ParameterError
from repro.gameday import (ChaosScenario, GamedayResult, load_scenario,
                           load_scenarios, results_identical, run_gameday,
                           write_recovery_trace)
from repro.parallel.faults import CrashPoint, FaultPlan

from .conftest import DOMAINS_10D

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "scenarios"


class TestScenarioLoading:

    def test_catalogue_loads(self):
        scenarios = load_scenarios(SCENARIO_DIR)
        names = {s.name for s in scenarios}
        assert {"kill-populate", "kill-rank0-join", "hard-kill-dedup",
                "stalled-rank", "eio-storm",
                "permanent-rank-loss"} <= names
        # every shipped scenario carries a positive budget and a plan
        for s in scenarios:
            assert s.rto_budget_seconds > 0
            assert s.faults is not None
            assert s.description

    def test_file_name_matches_scenario_name(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            assert load_scenario(path).name == path.stem

    def test_round_trip_through_fault_plan_dict(self):
        plan = FaultPlan(crashes=(CrashPoint(rank=1, site="populate",
                                             level=2, hard=True),))
        scenario = ChaosScenario.from_dict({
            "name": "x", "faults": plan.to_dict()})
        assert scenario.faults == plan

    def test_unknown_field_rejected(self):
        # "supervise" configured a recovery mode that no longer exists
        for field in ("banana", "supervise"):
            with pytest.raises(ParameterError, match="unknown fields"):
                ChaosScenario.from_dict({"name": "x", field: {}})

    def test_unknown_version_rejected(self):
        with pytest.raises(ParameterError, match="version"):
            ChaosScenario.from_dict({"name": "x", "version": 99})

    def test_bad_recovery_mode_rejected(self):
        for mode in ("prayer", "supervised"):
            with pytest.raises(ParameterError, match="recovery"):
                ChaosScenario(name="x", recovery=mode)

    def test_bad_budget_rejected(self):
        with pytest.raises(ParameterError, match="rto_budget"):
            ChaosScenario(name="x", rto_budget_seconds=0.0)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="no scenario files"):
            load_scenarios(tmp_path)


class TestResultsIdentical:

    def test_same_result_is_identical(self, one_cluster_dataset,
                                      small_params):
        result = mafia(one_cluster_dataset.records, small_params,
                       DOMAINS_10D)
        assert results_identical(result, result)

    def test_different_params_diverge(self, one_cluster_dataset,
                                      small_params):
        a = mafia(one_cluster_dataset.records, small_params, DOMAINS_10D)
        b = mafia(one_cluster_dataset.records,
                  small_params.with_(alpha=20.0), DOMAINS_10D)
        assert not results_identical(a, b)


@pytest.mark.fault
class TestGamedayRuns:
    """Execute the shipped catalogue — the same suite CI's gameday job
    runs — on the session-scoped small workload."""

    @pytest.fixture(scope="class")
    def reference(self, one_cluster_dataset, small_params):
        return mafia(one_cluster_dataset.records, small_params,
                     DOMAINS_10D)

    @pytest.mark.parametrize(
        "scenario_name",
        ["kill-populate", "kill-rank0-join", "hard-kill-dedup",
         "stalled-rank", "eio-storm", "permanent-rank-loss"])
    def test_scenario_passes_budget(self, tmp_path, scenario_name,
                                    reference, one_cluster_dataset,
                                    small_params):
        scenario = load_scenario(SCENARIO_DIR / f"{scenario_name}.json")
        outcome = run_gameday(scenario, one_cluster_dataset.records,
                              small_params, checkpoint_dir=tmp_path,
                              baseline=reference, domains=DOMAINS_10D)
        assert outcome.error is None
        assert outcome.identical, \
            f"{scenario_name} diverged from the fault-free reference"
        assert outcome.ok
        assert outcome.recovery_seconds <= scenario.rto_budget_seconds

    def test_budget_violation_fails_scenario(self, tmp_path, reference,
                                             one_cluster_dataset,
                                             small_params):
        """An absurd 1 ms budget must flip ok to False even though the
        run itself recovers fine."""
        base = load_scenario(SCENARIO_DIR / "permanent-rank-loss.json")
        from dataclasses import replace
        scenario = replace(base, rto_budget_seconds=0.001)
        outcome = run_gameday(scenario, one_cluster_dataset.records,
                              small_params, checkpoint_dir=tmp_path,
                              baseline=reference, domains=DOMAINS_10D)
        assert outcome.identical and not outcome.ok

    def test_trace_artifact_shape(self, tmp_path, reference,
                                  one_cluster_dataset, small_params):
        scenario = load_scenario(SCENARIO_DIR / "kill-populate.json")
        outcome = run_gameday(scenario, one_cluster_dataset.records,
                              small_params,
                              checkpoint_dir=tmp_path / "ckpt",
                              baseline=reference, domains=DOMAINS_10D)
        out = tmp_path / "trace.json"
        write_recovery_trace(out, [outcome])
        payload = json.loads(out.read_text())
        assert payload["passed"] == 1 and payload["failed"] == 0
        (entry,) = payload["scenarios"]
        assert entry["scenario"] == "kill-populate"
        assert entry["ok"] and entry["identical"]
        assert entry["recovery"] == "restart"
        assert entry["recovery_seconds"] == outcome.recovery_seconds > 0
        assert entry["rto_budget_seconds"] == 45.0
        assert "events" not in entry

    def test_unexpected_error_reported_not_raised(self, tmp_path,
                                                  reference,
                                                  one_cluster_dataset,
                                                  small_params):
        """A scenario whose fault the chosen mode cannot absorb reports
        a failure instead of crashing the whole gameday."""
        scenario = ChaosScenario(
            name="unabsorbed", recovery="none", rto_budget_seconds=60.0,
            faults=FaultPlan(crashes=(CrashPoint(rank=1),)),
            recv_timeout=15.0)
        outcome = run_gameday(scenario, one_cluster_dataset.records,
                              small_params, checkpoint_dir=tmp_path,
                              baseline=reference, domains=DOMAINS_10D)
        assert not outcome.ok
        assert outcome.error is not None


def test_gameday_result_summary_lines():
    scenario = ChaosScenario(name="demo", recovery="restart",
                             rto_budget_seconds=10.0)
    good = GamedayResult(scenario=scenario, ok=True, identical=True,
                         recovery_seconds=0.5, wall_seconds=1.0)
    assert good.summary().startswith("PASS")
    bad = GamedayResult(scenario=scenario, ok=False, identical=False,
                        recovery_seconds=0.5, wall_seconds=1.0)
    assert "diverged" in bad.summary()
