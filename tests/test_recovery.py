"""Mid-run rank recovery: the supervisor's kill matrix and its friends.

The acceptance bar for the supervisor is stricter than for the restart
layer in test_failure_injection.py: after losing any single rank at any
level the run must *finish in the same call*, with exactly one
replacement, and the clustering must be bit-identical to a fault-free
run — only the lost shard's state is rebuilt.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mafia import pmafia, pmafia_supervised
from repro.errors import CommError, ParameterError
from repro.parallel.faults import CrashPoint, FaultPlan, MessageFault
from repro.parallel.supervisor import (RecoveryEvent, RecoveryReport,
                                       SupervisePolicy)

from .conftest import DOMAINS_10D

pytestmark = pytest.mark.fault

#: fast failure detection for tests; production default is 1 s
FAST = SupervisePolicy(heartbeat_interval=0.2)


@pytest.fixture(scope="module")
def baseline(one_cluster_dataset, small_params):
    """The fault-free 3-rank reference clustering."""
    return pmafia(one_cluster_dataset.records, 3, small_params,
                  domains=DOMAINS_10D).result


def _assert_identical(result, reference):
    """Bit-identical clustering: counts, dense unit tables, DNFs."""
    assert result.cdus_per_level() == reference.cdus_per_level()
    assert result.dense_per_level() == reference.dense_per_level()
    assert len(result.trace) == len(reference.trace)
    for got, want in zip(result.trace, reference.trace):
        np.testing.assert_array_equal(got.dense.dims, want.dense.dims)
        np.testing.assert_array_equal(got.dense.bins, want.dense.bins)
        np.testing.assert_array_equal(got.dense_counts, want.dense_counts)
    assert [c.dnf for c in result.clusters] == \
        [c.dnf for c in reference.clusters]


class TestKillMatrix:
    """Lose each rank at each level; demand mid-run repair."""

    @pytest.mark.parametrize("rank", [0, 1, 2])
    @pytest.mark.parametrize("level", [1, 2, 4])
    def test_kill_any_rank_any_level(self, tmp_path, rank, level, baseline,
                                     one_cluster_dataset, small_params):
        if level > len(baseline.trace):
            pytest.skip(f"run has only {len(baseline.trace)} levels")
        plan = FaultPlan(crashes=(
            CrashPoint(rank=rank, site="populate", level=level),))
        run = pmafia_supervised(
            one_cluster_dataset.records, 3, small_params,
            checkpoint_dir=tmp_path, domains=DOMAINS_10D,
            faults=plan, policy=FAST, recv_timeout=60.0)
        _assert_identical(run.result, baseline)
        report = run.recovery
        assert report is not None and report.replacements == 1
        (event,) = report.events
        assert event.rank == rank
        assert event.reason == "InjectedFailure"
        # the replacement resumes from the last completed level —
        # never further back than the level before the kill
        assert 0 <= event.restore_level < level
        assert event.survivors == tuple(r for r in range(3) if r != rank)
        assert event.rto >= 0.0

    def test_hard_kill_detected_by_liveness(self, tmp_path, baseline,
                                            one_cluster_dataset,
                                            small_params):
        """os._exit leaves no error report; only process liveness (or a
        heartbeat stall) can notice, and recovery must still work."""
        plan = FaultPlan(crashes=(
            CrashPoint(rank=2, site="dedup", level=2, hard=True),))
        run = pmafia_supervised(
            one_cluster_dataset.records, 3, small_params,
            checkpoint_dir=tmp_path, domains=DOMAINS_10D,
            faults=plan, policy=FAST, recv_timeout=60.0)
        _assert_identical(run.result, baseline)
        report = run.recovery
        assert report.replacements == 1
        assert report.events[0].reason == "exit"

    def test_stalled_rank_replaced_before_delay_expires(
            self, tmp_path, baseline, one_cluster_dataset, small_params):
        """A 30 s message delay models a livelocked peer.  Stall
        detection fires at ~2 s and the whole run must finish well
        before the 30 s delay would have."""
        plan = FaultPlan(message_faults=(
            MessageFault(rank=1, action="delay", nth=7, delay=30.0),))
        policy = SupervisePolicy(heartbeat_interval=0.2, stall_timeout=2.0)
        run = pmafia_supervised(
            one_cluster_dataset.records, 3, small_params,
            checkpoint_dir=tmp_path, domains=DOMAINS_10D,
            faults=plan, policy=policy, recv_timeout=120.0)
        _assert_identical(run.result, baseline)
        report = run.recovery
        assert report.replacements == 1
        assert report.events[0].rank == 1
        assert report.events[0].reason == "stall"
        # detection-to-resume, not including the stall_timeout itself
        assert report.worst_rto < 30.0

    def test_two_sequential_losses_within_budget(self, tmp_path, baseline,
                                                 one_cluster_dataset,
                                                 small_params):
        """max_recoveries=2 (default) absorbs two separate rounds."""
        plan = FaultPlan(crashes=(
            CrashPoint(rank=1, site="populate", level=2),
            CrashPoint(rank=2, site="populate", level=3),))
        run = pmafia_supervised(
            one_cluster_dataset.records, 3, small_params,
            checkpoint_dir=tmp_path, domains=DOMAINS_10D,
            faults=plan, policy=FAST, recv_timeout=60.0)
        _assert_identical(run.result, baseline)
        assert run.recovery.replacements == 2
        assert [e.rank for e in run.recovery.events] == [1, 2]

    def test_recovery_budget_exhaustion_aborts(self, tmp_path,
                                               one_cluster_dataset,
                                               small_params):
        """More losses than max_recoveries must fail loudly, not hang."""
        plan = FaultPlan(crashes=(
            CrashPoint(rank=1, site="populate", level=2),
            CrashPoint(rank=2, site="populate", level=3),))
        policy = SupervisePolicy(heartbeat_interval=0.2, max_recoveries=1)
        with pytest.raises(CommError):
            pmafia_supervised(
                one_cluster_dataset.records, 3, small_params,
                checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                faults=plan, policy=policy, recv_timeout=60.0)


class TestFaultFreeSupervision:
    """Supervision must be free when nothing goes wrong."""

    def test_no_fault_no_recovery(self, tmp_path, baseline,
                                  one_cluster_dataset, small_params):
        run = pmafia_supervised(
            one_cluster_dataset.records, 3, small_params,
            checkpoint_dir=tmp_path, domains=DOMAINS_10D, policy=FAST)
        _assert_identical(run.result, baseline)
        report = run.recovery
        assert report.replacements == 0
        assert report.events == ()
        assert report.worst_rto == 0.0

    def test_run_spmd_supervise_rejects_thread_backend(self):
        from repro.parallel.spmd import run_spmd
        with pytest.raises(CommError, match="process"):
            run_spmd(lambda comm: comm.rank, 2, backend="thread",
                     supervise=SupervisePolicy())


class TestRecoveryObservability:
    """recovery.* spans and counters land in the exported trace."""

    def test_recovery_events_in_trace(self, tmp_path, baseline,
                                      one_cluster_dataset, small_params):
        plan = FaultPlan(crashes=(
            CrashPoint(rank=1, site="populate", level=2),))
        run = pmafia_supervised(
            one_cluster_dataset.records, 3,
            small_params.with_(trace=True, metrics=True),
            checkpoint_dir=tmp_path, domains=DOMAINS_10D,
            faults=plan, policy=FAST, recv_timeout=60.0)
        _assert_identical(run.result, baseline)
        spans = run.obs.merged_spans()
        names = {s.name for s in spans if s.cat == "recovery"}
        # survivors parked and resumed; the replacement rebuilt its shard
        assert "recovery.park" in names
        assert "recovery.resumed" in names
        assert "recovery.rebuild" in names
        assert "recovery.rebuilt" in names
        rebuilds = [s for s in spans if s.name == "recovery.rebuild"]
        assert all(s.rank == 1 for s in rebuilds)
        total = run.obs.merged_metrics()["total"]
        assert any(key.startswith("recovery.events") for key in total)

    def test_report_to_dict_round_trips_json(self, tmp_path,
                                             one_cluster_dataset,
                                             small_params):
        import json
        plan = FaultPlan(crashes=(
            CrashPoint(rank=0, site="join", level=2),))
        run = pmafia_supervised(
            one_cluster_dataset.records, 3, small_params,
            checkpoint_dir=tmp_path, domains=DOMAINS_10D,
            faults=plan, policy=FAST, recv_timeout=60.0)
        blob = json.dumps(run.recovery.to_dict())
        parsed = json.loads(blob)
        assert parsed["replacements"] == 1
        assert parsed["events"][0]["rank"] == 0
        assert parsed["events"][0]["rto_seconds"] >= 0.0


class TestPolicyValidation:

    def test_bad_policy_rejected(self):
        with pytest.raises(ParameterError):
            SupervisePolicy(heartbeat_interval=0.0)
        with pytest.raises(ParameterError):
            SupervisePolicy(max_recoveries=-1)

    def test_event_rto_property(self):
        event = RecoveryEvent(rank=1, epoch=1, reason="error",
                              restore_level=2, survivors=(0, 2),
                              detected=10.0, parked=10.5,
                              respawned=10.8, resumed=11.0)
        assert event.rto == pytest.approx(1.0)
        report = RecoveryReport(events=(event,), nprocs=3)
        assert report.replacements == 1
        assert report.worst_rto == pytest.approx(1.0)
