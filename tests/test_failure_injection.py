"""Failure injection: corrupted inputs, crashing ranks, bad payloads.

The SPMD substrate must fail loudly and promptly — a crashed rank
aborts its peers instead of deadlocking the program — and the library
must reject malformed data before it poisons a multi-hour run.
"""

from __future__ import annotations

import importlib
import time

import numpy as np
import pytest

from repro import (CrashPoint, FaultPlan, MafiaParams, MessageFault,
                   ReadFault, mafia, pmafia, pmafia_resumable)
from repro.core.checkpoint import (check_compatible, checkpoint_path,
                                   clear_checkpoints, latest_checkpoint,
                                   load_checkpoint, save_checkpoint)
from repro.core.pmafia import pmafia_rank
from repro.core.units import UnitTable
from repro.errors import (CheckpointError, ChecksumError, CommAborted,
                          CommError, CommTimeoutError, DataError,
                          ParameterError, RecordFileError)
from repro.io import RetryPolicy, read_with_retry, write_records
from repro.io.records import RecordFile, read_header
from repro.obs import obs_session
from repro.obs.metrics import merge_snapshots, metric_key
from repro.obs.trace import check_spans_by_rank
from repro.parallel import run_spmd
from repro.parallel.faults import InjectedFailure, fault_site
from tests.conftest import DOMAINS_10D


def _allreduce_after_start(comm):
    """Announce the start site, then block in a collective."""
    fault_site(comm, "start")
    comm.allreduce(np.zeros(4))


class TestCrashingRanks:
    @pytest.mark.parametrize("crasher", [0, 1, 2])
    def test_any_rank_crash_propagates(self, crasher):
        def prog(comm):
            if comm.rank == crasher:
                raise RuntimeError(f"rank {crasher} died")
            # peers block on a collective that can never complete
            comm.allreduce(np.zeros(4))

        start = time.monotonic()
        with pytest.raises(RuntimeError, match=f"rank {crasher} died"):
            run_spmd(prog, 3)
        assert time.monotonic() - start < 30  # aborted, not deadlocked

    def test_crash_mid_algorithm(self, one_cluster_dataset, small_params):
        calls = {"n": 0}

        def poisoned(comm, data, params, domains):
            from repro.core.pmafia import pmafia_rank
            if comm.rank == 1:
                raise MemoryError("injected mid-run")
            return pmafia_rank(comm, data, params, domains)

        with pytest.raises(MemoryError, match="injected"):
            run_spmd(poisoned, 3,
                     args=(one_cluster_dataset.records, small_params,
                           DOMAINS_10D))


class TestCorruptedInputs:
    def test_nan_records_rejected_at_write(self, tmp_path):
        bad = np.ones((10, 2))
        bad[5, 0] = np.inf
        with pytest.raises(DataError):
            write_records(tmp_path / "bad.bin", bad)

    def test_bit_flipped_header(self, tmp_path, one_cluster_dataset):
        path = tmp_path / "data.bin"
        write_records(path, one_cluster_dataset.records[:100])
        raw = bytearray(path.read_bytes())
        raw[6] ^= 0xFF  # corrupt the dtype code
        path.write_bytes(bytes(raw))
        with pytest.raises(RecordFileError):
            mafia(path)

    def test_shortened_body(self, tmp_path, one_cluster_dataset):
        path = tmp_path / "short.bin"
        write_records(path, one_cluster_dataset.records[:100])
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(RecordFileError):
            mafia(path)

    def test_garbage_unit_payload(self):
        with pytest.raises(DataError):
            UnitTable.frombytes(b"\x00" * 40)

    def test_too_many_dimensions_rejected(self):
        data = np.random.default_rng(0).random((10, 300))
        with pytest.raises(DataError):
            mafia(data, MafiaParams(fine_bins=10, window_size=2,
                                    chunk_records=10))


class TestDegenerateWorkloads:
    def test_single_record(self):
        res = mafia(np.array([[1.0, 2.0]]),
                    MafiaParams(fine_bins=10, window_size=2, chunk_records=10))
        assert res.n_records == 1

    def test_all_identical_records(self):
        data = np.tile([[5.0, 5.0, 5.0]], (1000, 1))
        res = mafia(data, MafiaParams(fine_bins=20, window_size=2,
                                      chunk_records=100))
        # one degenerate cell holds everything; must not crash and must
        # find at most one cluster region
        assert res.n_records == 1000

    def test_two_distinct_values(self):
        rng = np.random.default_rng(2)
        data = np.where(rng.random((2000, 2)) < 0.5, 1.0, 9.0)
        data += rng.random((2000, 2)) * 1e-6
        res = mafia(data, MafiaParams(fine_bins=20, window_size=2,
                                      chunk_records=500))
        assert res.max_level >= 1

    def test_chunk_bigger_than_data(self, one_cluster_dataset):
        params = MafiaParams(fine_bins=200, window_size=2,
                             chunk_records=10**9)
        res = mafia(one_cluster_dataset.records, params, domains=DOMAINS_10D)
        assert [c.subspace.dims for c in res.clusters] == [(1, 3, 5, 7)]

    def test_more_ranks_than_records(self):
        data = np.random.default_rng(3).random((5, 3)) * 100
        run = pmafia(data, 8, MafiaParams(fine_bins=10, window_size=2,
                                          chunk_records=10))
        assert run.result.n_records == 5

class TestSpmdErrorPropagation:
    def test_all_ranks_comm_aborted_reraised(self):
        """Regression: when every rank raises only CommAborted (no root
        cause survived), run_spmd must still raise rather than return."""
        def prog(comm):
            raise CommAborted(f"rank {comm.rank} aborted")

        with pytest.raises(CommAborted):
            run_spmd(prog, 3)

    def test_root_cause_preferred_over_abort_echoes(self):
        """The rank that genuinely failed wins over the CommAborted
        echoes its peers raise while being torn down."""
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("the real failure")
            comm.recv((comm.rank + 1) % comm.size, tag=9)

        with pytest.raises(ValueError, match="the real failure"):
            run_spmd(prog, 3)


class TestCommTimeout:
    def test_thread_recv_deadline(self):
        """A rank blocked on a peer that never sends raises
        CommTimeoutError within (roughly) the configured deadline."""
        def prog(comm):
            if comm.rank == 1:
                return comm.recv(0, tag=3)  # rank 0 never sends
            return None

        start = time.monotonic()
        with pytest.raises(CommTimeoutError, match="timed out receiving"):
            run_spmd(prog, 2, recv_timeout=0.5)
        assert time.monotonic() - start < 10

    def test_timeout_not_triggered_by_slow_sender(self):
        def prog(comm):
            if comm.rank == 0:
                time.sleep(0.3)
                comm.send("late", 1, tag=4)
                return None
            return comm.recv(0, tag=4)

        results = run_spmd(prog, 2, recv_timeout=5.0)
        assert results[1].value == "late"

    def test_silent_exit_detected_at_once(self):
        """A hard-killed child leaves no error report.  The parent's
        exit watch must abort the world at once instead of letting the
        survivors wait out their 60 s recv deadline."""
        plan = FaultPlan(crashes=(CrashPoint(rank=1, site="start",
                                             hard=True),))
        start = time.monotonic()
        with pytest.raises(CommError,
                           match="rank 1 exited with code 137 "
                                 "without reporting"):
            run_spmd(_allreduce_after_start, 3, backend="process",
                     recv_timeout=60.0, faults=plan)
        assert time.monotonic() - start < 10


class TestFaultHarness:
    def test_crash_point_kills_rank(self, one_cluster_dataset, small_params):
        plan = FaultPlan(crashes=(CrashPoint(rank=1, site="start"),))
        with pytest.raises(InjectedFailure, match="rank 1 at site 'start'"):
            run_spmd(pmafia_rank, 3, faults=plan,
                     args=(one_cluster_dataset.records, small_params,
                           DOMAINS_10D))

    def test_wildcard_crash_point(self, one_cluster_dataset, small_params):
        """CrashPoint(rank=2) with no site kills rank 2 at the first
        site it announces."""
        plan = FaultPlan(crashes=(CrashPoint(rank=2),))
        with pytest.raises(InjectedFailure, match="rank 2"):
            run_spmd(pmafia_rank, 3, faults=plan,
                     args=(one_cluster_dataset.records, small_params,
                           DOMAINS_10D))

    def test_dropped_message_strands_receiver(self):
        """A dropped point-to-point message surfaces as a recv timeout
        on the stranded peer, not a silent hang."""
        plan = FaultPlan(message_faults=(
            MessageFault(rank=0, action="drop", nth=0),))

        def prog(comm):
            if comm.rank == 0:
                comm.send("lost", 1, tag=7)
                return None
            return comm.recv(0, tag=7)

        with pytest.raises(CommTimeoutError):
            run_spmd(prog, 2, faults=plan, recv_timeout=0.5)

    def test_delay_fault_still_delivers(self):
        plan = FaultPlan(message_faults=(
            MessageFault(rank=0, action="delay", nth=0, delay=0.05),))
        state = plan.state_for(0)
        assert state.on_send(1, 0) == (True, 0.05)
        assert state.on_send(1, 0) == (True, 0.0)

    def test_chaos_mode_is_deterministic(self):
        """Two runs of the same seeded plan make identical drop/delay
        decisions — failures found under chaos replay exactly."""
        plan = FaultPlan(seed=42, drop_rate=0.3, delay_rate=0.2)
        a, b = plan.state_for(1), plan.state_for(1)
        decisions_a = [a.on_send(0, 0) for _ in range(50)]
        decisions_b = [b.on_send(0, 0) for _ in range(50)]
        assert decisions_a == decisions_b
        assert any(not deliver for deliver, _ in decisions_a)

    def test_bad_message_fault_action_rejected(self):
        with pytest.raises(ValueError, match="drop"):
            MessageFault(rank=0, action="corrupt")


def _recording_policy(calls):
    """A fast retry policy whose sleeps are recorded, not slept."""
    return RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=2.0,
                       sleep=calls.append)


class TestResilientReads:
    def test_transient_read_fault_retried(self, one_cluster_dataset,
                                          small_params):
        """Two injected EIO failures on one chunk are absorbed by the
        retry loop with exponential backoff; the run still succeeds."""
        sleeps: list[float] = []
        plan = FaultPlan(read_faults=(
            ReadFault(rank=0, site="histogram", chunk=0, errors=2),))
        ranks = run_spmd(pmafia_rank, 1, backend="serial", faults=plan,
                         args=(one_cluster_dataset.records, small_params,
                               DOMAINS_10D),
                         kwargs={"retry": _recording_policy(sleeps)})
        expected = mafia(one_cluster_dataset.records, small_params,
                         domains=DOMAINS_10D)
        assert ranks[0].value.dense_per_level() == expected.dense_per_level()
        assert sleeps == [0.01, 0.02]

    def test_permanent_read_fault_exhausts_retries(self, one_cluster_dataset,
                                                   small_params):
        sleeps: list[float] = []
        plan = FaultPlan(read_faults=(
            ReadFault(rank=0, permanent=True),))
        with pytest.raises(OSError, match="injected permanent"):
            run_spmd(pmafia_rank, 1, backend="serial", faults=plan,
                     args=(one_cluster_dataset.records, small_params,
                           DOMAINS_10D),
                     kwargs={"retry": _recording_policy(sleeps)})
        assert sleeps == [0.01, 0.02]  # max_attempts - 1 backoffs

    def test_structural_errors_not_retried(self):
        """ReproError-based OSErrors (bad file, bad checksum) fail fast
        — retrying cannot fix a structurally corrupt file."""
        calls = {"n": 0}

        def read():
            calls["n"] += 1
            raise ChecksumError("chunk 3 CRC mismatch")

        sleeps: list[float] = []
        with pytest.raises(ChecksumError):
            read_with_retry(read, _recording_policy(sleeps))
        assert calls["n"] == 1
        assert sleeps == []

    def test_success_after_transient(self):
        attempts = {"n": 0}

        def read():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError("transient")
            return "payload"

        sleeps: list[float] = []
        assert read_with_retry(read, _recording_policy(sleeps)) == "payload"
        assert attempts["n"] == 3
        assert sleeps == [0.01, 0.02]

    def test_retry_policy_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(base_delay=-1.0)


class TestChecksums:
    def test_v2_corruption_fails_fast(self, tmp_path, one_cluster_dataset):
        path = tmp_path / "data.bin"
        write_records(path, one_cluster_dataset.records[:500])
        assert read_header(path).version == 2
        raw = bytearray(path.read_bytes())
        raw[read_header(path).data_offset + 123] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            RecordFile(path).read_all()

    def test_corruption_pinpoints_chunk(self, tmp_path, one_cluster_dataset):
        path = tmp_path / "data.bin"
        write_records(path, one_cluster_dataset.records[:300],
                      crc_chunk_records=100)
        info = read_header(path)
        assert info.n_crc_chunks == 3
        raw = bytearray(path.read_bytes())
        # flip a byte inside the *second* CRC chunk (records 100-199)
        raw[info.data_offset + 110 * info.record_nbytes] ^= 0xFF
        path.write_bytes(bytes(raw))
        rf = RecordFile(path)
        rf.verify_chunk(0)
        rf.verify_chunk(2)
        with pytest.raises(ChecksumError, match="chunk 1"):
            rf.verify_chunk(1)
        # reads that do not touch the bad chunk still succeed
        assert rf.read_block(0, 100).shape == (100, 10)
        with pytest.raises(ChecksumError):
            rf.read_block(50, 150)

    def test_corrupt_v2_detected_by_mafia_run(self, tmp_path,
                                              one_cluster_dataset):
        path = tmp_path / "data.bin"
        write_records(path, one_cluster_dataset.records)
        raw = bytearray(path.read_bytes())
        raw[read_header(path).data_offset + 4096] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            mafia(path, MafiaParams(fine_bins=200, window_size=2,
                                    chunk_records=2000),
                  domains=DOMAINS_10D)

    def test_record_nbytes_rename(self, tmp_path, one_cluster_dataset):
        path = tmp_path / "data.bin"
        write_records(path, one_cluster_dataset.records[:10])
        info = read_header(path)
        assert info.record_nbytes == 10 * 8


class TestCheckpointFiles:
    STATE = {"level": 3, "params": "p", "n_records": 100, "frontier": [1, 2]}

    def test_roundtrip(self, tmp_path):
        path = save_checkpoint(tmp_path, 3, self.STATE)
        assert path == checkpoint_path(tmp_path, 3)
        assert load_checkpoint(path) == self.STATE

    def test_latest_picks_highest_level(self, tmp_path):
        for level in (1, 4, 2):
            save_checkpoint(tmp_path, level, dict(self.STATE, level=level))
        assert latest_checkpoint(tmp_path) == checkpoint_path(tmp_path, 4)
        assert latest_checkpoint(tmp_path / "absent") is None

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = save_checkpoint(tmp_path, 2, self.STATE)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = save_checkpoint(tmp_path, 2, self.STATE)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "level0001.ckpt"
        path.write_bytes(b"JUNK" + b"\x00" * 30)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_1_checkpoint_rejected(self, tmp_path):
        """Version 1 pickled grids without fine-interval cuts; such a
        checkpoint is refused, not resumed."""
        import pickle

        from repro.io.artifact import write_framed
        path = write_framed(checkpoint_path(tmp_path, 1), b"PMCK", 1,
                            pickle.dumps(self.STATE))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_clear_checkpoints(self, tmp_path):
        for level in (1, 2):
            save_checkpoint(tmp_path, level, self.STATE)
        (tmp_path / "unrelated.txt").write_text("keep me")
        assert clear_checkpoints(tmp_path) == 2
        assert latest_checkpoint(tmp_path) is None
        assert (tmp_path / "unrelated.txt").exists()

    def test_check_compatible(self, small_params):
        state = {"params": small_params, "n_records": 5000}
        check_compatible(state, small_params, 5000)
        with pytest.raises(CheckpointError, match="parameters"):
            check_compatible(state, MafiaParams(), 5000)
        with pytest.raises(CheckpointError, match="records"):
            check_compatible(state, small_params, 4999)

    def test_quarantine_moves_file_aside(self, tmp_path):
        from repro.io.artifact import quarantine
        path = save_checkpoint(tmp_path, 2, self.STATE)
        corpse = quarantine(path)
        assert corpse == tmp_path / "level0002.ckpt.corrupt"
        assert corpse.exists() and not path.exists()
        # a quarantined file is invisible to the resume scan
        assert latest_checkpoint(tmp_path) is None

    def test_load_latest_falls_back_past_corruption(self, tmp_path):
        """A corrupt newest checkpoint — the expected debris of a crash
        mid-write — costs one level of progress, not the whole run."""
        from repro.core.checkpoint import load_latest_checkpoint
        save_checkpoint(tmp_path, 2, dict(self.STATE, level=2))
        bad = save_checkpoint(tmp_path, 3, dict(self.STATE, level=3))
        bad.write_bytes(bad.read_bytes()[:-6])
        state = load_latest_checkpoint(tmp_path)
        assert state is not None and state["level"] == 2
        # the corpse is preserved for post-mortems
        assert (tmp_path / "level0003.ckpt.corrupt").exists()
        assert latest_checkpoint(tmp_path) == checkpoint_path(tmp_path, 2)

    def test_load_latest_all_corrupt_returns_none(self, tmp_path):
        from repro.core.checkpoint import load_latest_checkpoint
        for level in (1, 2):
            path = save_checkpoint(tmp_path, level,
                                   dict(self.STATE, level=level))
            path.write_bytes(b"JUNK" + b"\x00" * 20)
        assert load_latest_checkpoint(tmp_path) is None
        assert load_latest_checkpoint(tmp_path / "absent") is None


@pytest.fixture(scope="module")
def baseline(one_cluster_dataset, small_params):
    """The uninterrupted 3-rank reference result for the resume matrix."""
    return pmafia(one_cluster_dataset.records, 3, small_params,
                  domains=DOMAINS_10D).result


def _assert_identical(result, reference):
    """Bit-identical clustering: per-level CDU and dense-unit counts,
    the dense unit tables themselves, and the reported cluster DNFs."""
    assert result.cdus_per_level() == reference.cdus_per_level()
    assert result.dense_per_level() == reference.dense_per_level()
    assert len(result.trace) == len(reference.trace)
    for got, want in zip(result.trace, reference.trace):
        np.testing.assert_array_equal(got.dense.dims, want.dense.dims)
        np.testing.assert_array_equal(got.dense.bins, want.dense.bins)
        np.testing.assert_array_equal(got.dense_counts, want.dense_counts)
    assert [c.dnf for c in result.clusters] == \
        [c.dnf for c in reference.clusters]


@pytest.mark.fault
class TestCheckpointResume:
    """The acceptance matrix: kill rank 1 at every level, resume, and
    demand a bit-identical result on both in-memory backends."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    def test_kill_and_resume_matrix(self, tmp_path, backend, level,
                                    baseline, one_cluster_dataset,
                                    small_params):
        if level > len(baseline.trace):
            pytest.skip(f"run has only {len(baseline.trace)} levels")
        plan = FaultPlan(crashes=(
            CrashPoint(rank=1, site="populate", level=level),))
        with pytest.raises((InjectedFailure, CommError)):
            pmafia_resumable(one_cluster_dataset.records, 3, small_params,
                             checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                             backend=backend, faults=plan, recv_timeout=30.0)
        if level >= 2:
            # a kill during the level-1 pass predates the first
            # checkpoint; the resume below then simply starts fresh
            assert latest_checkpoint(tmp_path) is not None
        run = pmafia_resumable(one_cluster_dataset.records, 3, small_params,
                               checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                               backend=backend)
        _assert_identical(run.result, baseline)

    def test_auto_restart_recovers_in_one_call(self, tmp_path, baseline,
                                               one_cluster_dataset,
                                               small_params):
        """max_restarts=1 turns an injected crash into a transparent
        retry-from-checkpoint inside a single call."""
        plan = FaultPlan(crashes=(
            CrashPoint(rank=2, site="join", level=2),))
        run = pmafia_resumable(one_cluster_dataset.records, 3, small_params,
                               checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                               faults=plan, max_restarts=1,
                               recv_timeout=30.0)
        _assert_identical(run.result, baseline)

    def test_resume_with_different_nprocs(self, tmp_path, baseline,
                                          one_cluster_dataset, small_params):
        """Checkpoint state is rank-independent: a run killed on 3 ranks
        resumes on 2 (or 1) with the identical result."""
        plan = FaultPlan(crashes=(
            CrashPoint(rank=0, site="dedup", level=2),))
        with pytest.raises((InjectedFailure, CommError)):
            pmafia_resumable(one_cluster_dataset.records, 3, small_params,
                             checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                             faults=plan, recv_timeout=30.0)
        run = pmafia_resumable(one_cluster_dataset.records, 2, small_params,
                               checkpoint_dir=tmp_path, domains=DOMAINS_10D)
        _assert_identical(run.result, baseline)

    def test_resume_after_completion_is_stable(self, tmp_path, baseline,
                                               one_cluster_dataset,
                                               small_params):
        first = pmafia_resumable(one_cluster_dataset.records, 3,
                                 small_params, checkpoint_dir=tmp_path,
                                 domains=DOMAINS_10D)
        again = pmafia_resumable(one_cluster_dataset.records, 3,
                                 small_params, checkpoint_dir=tmp_path,
                                 domains=DOMAINS_10D)
        _assert_identical(first.result, baseline)
        _assert_identical(again.result, baseline)

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path,
                                                one_cluster_dataset,
                                                small_params):
        save_checkpoint(tmp_path, 9, {"level": 9, "params": None,
                                      "n_records": 0})
        run = pmafia_resumable(one_cluster_dataset.records, 2, small_params,
                               checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                               resume=False)
        assert run.result.n_records == len(one_cluster_dataset.records)
        assert not checkpoint_path(tmp_path, 9).exists()

    def test_checkpoint_with_deleted_param_field_resumes(
            self, tmp_path, baseline, one_cluster_dataset, small_params):
        """A checkpoint whose pickled ``MafiaParams`` still carries a
        since-deleted field (``rebalance``, as written by older
        releases) resumes: compatibility compares dataclass fields
        only, and the replayed levels give the identical result."""
        pmafia_resumable(one_cluster_dataset.records, 3, small_params,
                         checkpoint_dir=tmp_path, domains=DOMAINS_10D)
        first = checkpoint_path(tmp_path, 1)
        state = load_checkpoint(first)
        object.__setattr__(state["params"], "rebalance", False)
        clear_checkpoints(tmp_path)
        save_checkpoint(tmp_path, 1, state)
        assert load_checkpoint(first)["params"].rebalance is False
        run = pmafia_resumable(one_cluster_dataset.records, 3,
                               small_params, checkpoint_dir=tmp_path,
                               domains=DOMAINS_10D)
        # a fresh run would have rewritten the level-0 checkpoint
        assert not checkpoint_path(tmp_path, 0).exists()
        _assert_identical(run.result, baseline)

    def test_incompatible_checkpoint_refused(self, tmp_path,
                                             one_cluster_dataset,
                                             small_params):
        pmafia_resumable(one_cluster_dataset.records, 2, small_params,
                         checkpoint_dir=tmp_path, domains=DOMAINS_10D)
        with pytest.raises(CheckpointError, match="parameters"):
            pmafia_resumable(one_cluster_dataset.records, 2,
                             MafiaParams(fine_bins=100, window_size=2,
                                         chunk_records=2000),
                             checkpoint_dir=tmp_path, domains=DOMAINS_10D)


@pytest.mark.fault
class TestRestartKillMatrix:
    """Lose any rank at any level on the process backend: one
    ``pmafia_resumable(max_restarts=1)`` call restarts the whole world
    from the last level checkpoint and finishes bit-identical."""

    @pytest.mark.parametrize("rank", [0, 1, 2])
    @pytest.mark.parametrize("level", [1, 2, 4])
    def test_kill_any_rank_any_level(self, tmp_path, rank, level, baseline,
                                     one_cluster_dataset, small_params):
        if level > len(baseline.trace):
            pytest.skip(f"run has only {len(baseline.trace)} levels")
        plan = FaultPlan(crashes=(
            CrashPoint(rank=rank, site="populate", level=level),))
        run = pmafia_resumable(one_cluster_dataset.records, 3, small_params,
                               checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                               backend="process", faults=plan,
                               max_restarts=1, recv_timeout=60.0)
        _assert_identical(run.result, baseline)

    def test_hard_kill_restarts_in_one_call(self, tmp_path, baseline,
                                            one_cluster_dataset,
                                            small_params):
        """os._exit leaves no error report; the exit watch notices it
        and the restart still finishes bit-identical, well inside the
        60 s recv deadline the survivors would otherwise wait out."""
        plan = FaultPlan(crashes=(
            CrashPoint(rank=2, site="dedup", level=2, hard=True),))
        start = time.monotonic()
        run = pmafia_resumable(one_cluster_dataset.records, 3, small_params,
                               checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                               backend="process", faults=plan,
                               max_restarts=1, recv_timeout=60.0)
        assert time.monotonic() - start < 30
        _assert_identical(run.result, baseline)

    def test_restart_budget_exhaustion_aborts(self, tmp_path,
                                              one_cluster_dataset,
                                              small_params):
        """With no restarts left a loss fails loudly, naming the rank."""
        plan = FaultPlan(crashes=(
            CrashPoint(rank=1, site="populate", level=2),))
        with pytest.raises(CommError, match="rank 1 failed"):
            pmafia_resumable(one_cluster_dataset.records, 3, small_params,
                             checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                             backend="process", faults=plan,
                             max_restarts=0, recv_timeout=60.0)

    def test_no_fault_no_restart(self, tmp_path, baseline, monkeypatch,
                                 one_cluster_dataset, small_params):
        """A fault-free run with a restart to spare uses none: the exit
        watch must not take a child that reported and exited for a
        lost rank."""
        # repro.core re-exports the function mafia over the submodule
        mafia_module = importlib.import_module("repro.core.mafia")
        attempts = []

        def counted(*args, **kwargs):
            attempts.append(kwargs["backend"])
            return run_spmd(*args, **kwargs)

        monkeypatch.setattr(mafia_module, "run_spmd", counted)
        run = pmafia_resumable(one_cluster_dataset.records, 3, small_params,
                               checkpoint_dir=tmp_path, domains=DOMAINS_10D,
                               backend="process", max_restarts=1)
        _assert_identical(run.result, baseline)
        assert attempts == ["process"]


@pytest.mark.fault
class TestDescriptorHygiene:
    """A read that raises mid-pass must not strand file descriptors or
    half-written temp files — the audit behind the context-managed /
    cached-mapping readers in ``io/records.py`` and
    ``io/bitmap_index.py``."""

    @staticmethod
    def _open_fds() -> int:
        import os
        return len(os.listdir("/proc/self/fd"))

    def test_no_dangling_descriptors_after_injected_read_faults(
            self, tmp_path, one_cluster_dataset, small_params):
        import gc
        import os

        path = tmp_path / "data.bin"
        write_records(path, one_cluster_dataset.records)
        params = small_params.with_(bitmap_budget=1)   # spilled index
        plan = FaultPlan(read_faults=(ReadFault(rank=0, permanent=True),))
        gc.collect()
        before = self._open_fds()
        for _ in range(3):
            with pytest.raises((OSError, CommAborted)):
                run_spmd(pmafia_rank, 1, backend="serial", faults=plan,
                         args=(os.fspath(path), params, DOMAINS_10D),
                         kwargs={"retry": _recording_policy([])})
        gc.collect()
        assert self._open_fds() == before
        # the failed staging passes must not leave temp files around
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_index_staging_removes_temp_file(self, tmp_path,
                                                    monkeypatch,
                                                    one_cluster_dataset,
                                                    small_params):
        """A staging pass that dies halfway (here: the source raising
        after its first chunk) unlinks the partially written index —
        both a sibling tile file and a spilled anonymous temp file."""
        import tempfile

        from repro.core.adaptive_grid import build_grid
        from repro.core.histogram import fine_histogram_global
        from repro.io.bitmap_index import (build_bitmap_index,
                                           stage_bitmap_index)
        from repro.io.chunks import ArraySource
        from repro.parallel.serial import SerialComm

        records = one_cluster_dataset.records
        comm = SerialComm()
        domains = np.asarray(DOMAINS_10D, dtype=np.float64)
        source = ArraySource(records)
        fine = fine_histogram_global(source, comm, domains,
                                     small_params.fine_bins,
                                     small_params.chunk_records)
        grid = build_grid(fine, domains, len(records), small_params)

        class FlakySource(ArraySource):
            def __init__(self, records):
                super().__init__(records)
                self.reads = 0

            def read_block(self, start, stop):
                self.reads += 1
                if self.reads > 1:
                    raise ChecksumError("synthetic mid-staging corruption")
                return super().read_block(start, stop)

        target = tmp_path / "rank0.bmx"
        with pytest.raises(ChecksumError):
            build_bitmap_index(FlakySource(records), grid, 1000, path=target)
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp"))
        # a one-byte budget spills to an anonymous temp file, which the
        # failed pass must remove along with its ``.tmp`` sibling
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
        with pytest.raises(ChecksumError):
            stage_bitmap_index(FlakySource(records), comm, grid, 1000,
                               budget=1)
        assert not list(spill_dir.iterdir())

    def test_record_writer_closes_handle_when_first_write_fails(
            self, tmp_path, monkeypatch):
        import gc

        from repro.io.records import RecordFileWriter

        gc.collect()
        before = self._open_fds()
        real_open = open

        class ExplodingFile:
            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                raise OSError("injected header-write failure")

            def close(self):
                self._fh.close()

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if str(file).endswith(".tmp"):
                return ExplodingFile(fh)
            return fh

        import builtins
        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="injected header-write"):
            RecordFileWriter(tmp_path / "w.bin", n_dims=3)
        monkeypatch.undo()
        gc.collect()
        assert self._open_fds() == before
        assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.fault
class TestObservabilityUnderFaults:
    """The merged trace of a killed-and-resumed run must show the whole
    story: the injected fault, the checkpoint restore, and each level
    completed exactly once per rank — with the final clustering still
    bit-identical to the uninterrupted baseline."""

    def test_killed_and_resumed_run_trace(self, tmp_path, baseline,
                                          one_cluster_dataset,
                                          small_params):
        params = small_params.with_(trace=True, metrics=True)
        plan = FaultPlan(crashes=(
            CrashPoint(rank=1, site="populate", level=3),))
        with obs_session() as session:
            with pytest.raises((InjectedFailure, CommError)):
                pmafia_resumable(one_cluster_dataset.records, 3, params,
                                 checkpoint_dir=tmp_path,
                                 domains=DOMAINS_10D, backend="thread",
                                 faults=plan, recv_timeout=30.0)
            run = pmafia_resumable(one_cluster_dataset.records, 3, params,
                                   checkpoint_dir=tmp_path,
                                   domains=DOMAINS_10D, backend="thread")
        _assert_identical(run.result, baseline)

        # both attempts' observers were captured (3 ranks each)
        assert len(session.observers) == 6
        spans = session.merged_spans()
        assert check_spans_by_rank(spans) == []

        # the injected fault appears on the dead rank's own timeline
        crashes = [s for s in spans if s.name == "fault.crash"]
        assert [s.rank for s in crashes] == [1]
        assert crashes[0].attrs == {"site": "populate", "level": 3,
                                    "hard": False}

        # the resumed attempt restored the level-2 checkpoint on every
        # rank (the broadcast hands all ranks the same state)
        restores = [s for s in spans
                    if s.name == "checkpoint_restore" and s.ok
                    and "level" in s.attrs]
        assert sorted(s.rank for s in restores) == [0, 1, 2]
        assert {s.attrs["level"] for s in restores} == {2}
        markers = [s for s in spans if s.name == "checkpoint_restored"]
        assert sorted(s.rank for s in markers) == [0, 1, 2]

        # across crash + resume, no rank completed the same level twice
        for rank in range(3):
            done = [s.attrs["level"] for s in spans
                    if s.rank == rank and s.cat == "level" and s.ok]
            assert len(done) == len(set(done))
            assert done == sorted(done)

        # the crashed attempt's failed run span survives, error-tagged
        failed_runs = [s for s in spans
                       if s.cat == "run" and s.rank == 1 and not s.ok]
        assert len(failed_runs) == 1
        assert failed_runs[0].attrs["error"] == "InjectedFailure"

        # metrics agree: exactly one injected crash over both attempts
        merged = merge_snapshots(o.metrics.snapshot()
                                 for o in session.observers
                                 if o.metrics is not None)
        key = metric_key("faults.injected", {"kind": "crash"})
        assert merged[key]["value"] == 1

    def test_auto_restart_trace_in_one_call(self, tmp_path, baseline,
                                            one_cluster_dataset,
                                            small_params):
        """max_restarts=1 keeps both attempts in one process, so one
        session sees the fault and the recovery back to back."""
        params = small_params.with_(trace=True)
        plan = FaultPlan(crashes=(
            CrashPoint(rank=2, site="join", level=2),))
        with obs_session() as session:
            run = pmafia_resumable(one_cluster_dataset.records, 3, params,
                                   checkpoint_dir=tmp_path,
                                   domains=DOMAINS_10D, faults=plan,
                                   max_restarts=1, recv_timeout=30.0)
        _assert_identical(run.result, baseline)
        spans = session.merged_spans()
        assert any(s.name == "fault.crash" and s.rank == 2 for s in spans)
        assert any(s.name == "checkpoint_restore" and s.ok for s in spans)
        for rank in range(3):
            done = [s.attrs["level"] for s in spans
                    if s.rank == rank and s.cat == "level" and s.ok]
            assert len(done) == len(set(done))
