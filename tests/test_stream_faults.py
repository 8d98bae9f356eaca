"""Fault injection for the streaming engine.

Three failure families, one invariant: a fault may cost latency (a
retry, a rebuild) but never a wrong snapshot —

- **kill/resume** — a session that dies mid-stream resumes from its
  spill manifest; the crashed producer replays deltas from the start
  and already-applied sequence numbers land as no-ops;
- **transient reads** — delta sources absorb transient ``OSError`` s
  under a :class:`~repro.io.resilient.RetryPolicy`;
- **corrupt tiles** — a spilled bitmap tile failing its CRC is
  quarantined and rebuilt from the segment's codes (stale keys and
  the other per-format faults live in ``test_artifact_faults.py``);
- **refused deltas** — a delta holding a NaN or infinite value is
  refused by every session kind and leaves the session unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MafiaParams, mafia
from repro.errors import DataError, StreamError
from repro.io.bitmap_index import BitmapIndex
from repro.io.records import write_records
from repro.io.resilient import RetryPolicy
from repro.parallel.spmd import run_spmd
from repro.stream import RecordDeltaSource, StreamingSession
from repro.stream.soak import result_fingerprint
from tests.test_stream_conformance import (DOMAINS, PARAMS,
                                           assert_equivalent,
                                           drifting_blocks, live_window)

pytestmark = pytest.mark.fault

WINDOW = 200


def spilled_session(tmp_path, **kw):
    return StreamingSession(PARAMS, domains=DOMAINS,
                            window_records=WINDOW, spill_dir=tmp_path,
                            **kw)


def _refused_everywhere_rank(comm, block):
    """SPMD body: ingest a non-finite delta from the root; True when
    this rank refused it and kept nothing."""
    session = StreamingSession(PARAMS, comm=comm, domains=DOMAINS,
                               window_records=WINDOW)
    try:
        session.ingest(block if comm.rank == 0 else None)
    except DataError:
        return session.last_seq == -1 and session.n_live == 0
    return False


class TestRefusedDelta:
    @pytest.mark.parametrize("spill", [True, False],
                             ids=["spilled", "unspilled"])
    def test_unstageable_delta_leaves_session_unchanged(self, tmp_path,
                                                        spill):
        """Every session kind refuses a NaN or infinite record (a
        spilled session's record file could not hold it) before
        touching its histogram or window, so the next snapshot still
        equals the cold run over the live window."""
        blocks = drifting_blocks(31, [60, 70, 80])
        session = spilled_session(tmp_path) if spill else \
            StreamingSession(PARAMS, domains=DOMAINS, window_records=WINDOW)
        session.ingest(blocks[0])
        hist = session._hist.copy()
        for value in (np.nan, np.inf, -np.inf):
            bad = blocks[1].copy()
            bad[5, 1] = value
            with pytest.raises(DataError):
                session.ingest(bad)
            assert session.last_seq == 0
            assert session.n_live == len(blocks[0])
            assert np.array_equal(session._hist, hist)
        for block in blocks[1:]:
            session.ingest(block)
        assert_equivalent(session.snapshot(),
                          mafia(live_window(blocks, WINDOW), PARAMS,
                                domains=DOMAINS))
        session.close()

    def test_every_rank_refuses(self):
        bad = drifting_blocks(37, [40])[0]
        bad[3, 0] = np.inf
        ranks = run_spmd(_refused_everywhere_rank, 2, backend="thread",
                         args=(bad,))
        assert [r.value for r in ranks] == [True, True]


class TestKillResume:
    def test_resume_mid_stream_is_bit_identical(self, tmp_path):
        """Kill after 3 of 6 deltas (no close), resume, replay the
        whole stream from seq 0: the first 3 deltas no-op and the
        final snapshot equals an uninterrupted session's and the cold
        oracle's."""
        blocks = drifting_blocks(23, [60, 70, 80, 50, 90, 60])
        crashed = spilled_session(tmp_path)
        for i, block in enumerate(blocks[:3]):
            assert crashed.ingest(block, seq=i)
        del crashed  # killed: no close(), manifest already durable

        resumed = spilled_session(tmp_path, resume=True)
        assert resumed.last_seq == 2
        applied = [resumed.ingest(block, seq=i)
                   for i, block in enumerate(blocks)]
        assert applied == [False] * 3 + [True] * 3

        uninterrupted = StreamingSession(PARAMS, domains=DOMAINS,
                                         window_records=WINDOW)
        for block in blocks:
            uninterrupted.ingest(block)
        assert_equivalent(resumed.snapshot(), uninterrupted.snapshot())
        assert_equivalent(resumed.snapshot(),
                          mafia(live_window(blocks, WINDOW), PARAMS,
                                domains=DOMAINS))
        resumed.close()
        uninterrupted.close()

    def test_replay_of_applied_delta_changes_nothing(self, tmp_path):
        blocks = drifting_blocks(29, [80, 90])
        session = spilled_session(tmp_path)
        for i, block in enumerate(blocks):
            session.ingest(block, seq=i)
        before = result_fingerprint(session.snapshot())
        assert session.ingest(blocks[0], seq=0) is False
        assert session.n_live == 170
        assert result_fingerprint(session.snapshot()) == before
        session.close()

    def test_sequence_gap_raises(self):
        session = StreamingSession(PARAMS, domains=DOMAINS)
        session.ingest(drifting_blocks(31, [50])[0], seq=0)
        with pytest.raises(StreamError):
            session.ingest(np.zeros((10, 4)) + 1.0, seq=2)
        session.close()

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(StreamError):
            spilled_session(tmp_path, resume=True)

    def test_closed_session_rejects_use(self):
        session = StreamingSession(PARAMS, domains=DOMAINS)
        session.ingest(drifting_blocks(37, [60])[0])
        session.close()
        with pytest.raises(StreamError):
            session.ingest(np.ones((5, 4)))
        with pytest.raises(StreamError):
            session.snapshot()


class TestTransientReads:
    def _flaky_source(self, tmp_path, n_failures):
        rng = np.random.default_rng(41)
        records = rng.uniform(0.0, 100.0, size=(200, 4))
        write_records(tmp_path / "d.bin", records)
        retries = []
        source = RecordDeltaSource(
            tmp_path / "d.bin", 60,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            on_retry=lambda: retries.append(1))
        real = source.file.read_block
        state = {"left": n_failures}

        def flaky(lo, hi):
            if state["left"] > 0:
                state["left"] -= 1
                raise OSError("transient read failure")
            return real(lo, hi)

        source.file.read_block = flaky
        return source, records, retries

    def test_transient_oserrors_are_absorbed(self, tmp_path):
        source, records, retries = self._flaky_source(tmp_path, 2)
        deltas = list(source)
        assert [d.seq for d in deltas] == [0, 1, 2, 3]
        np.testing.assert_array_equal(
            np.concatenate([d.block for d in deltas]), records)
        assert len(retries) == 2

    def test_retry_budget_exhaustion_propagates(self, tmp_path):
        source, _, retries = self._flaky_source(tmp_path, 100)
        with pytest.raises(OSError):
            list(source)
        assert len(retries) == 2  # max_attempts=3 -> 2 retries, then up


class TestTileFaults:
    def _spill_and_kill(self, tmp_path, seed=43):
        """A spilled session that snapshotted (so .bmx siblings exist
        on disk) and then died without close."""
        blocks = drifting_blocks(seed, [70, 80, 90])
        session = spilled_session(tmp_path)
        for block in blocks:
            session.ingest(block)
        session.snapshot()
        del session
        paths = sorted(tmp_path.glob("seg-*.bmx"))
        assert paths
        return blocks, paths

    def test_corrupt_tile_quarantined_then_exact(self, tmp_path):
        blocks, bmx_paths = self._spill_and_kill(tmp_path)
        victim = bmx_paths[-1]
        index = BitmapIndex.open(victim)
        raw = bytearray(victim.read_bytes())
        lo = index._data_offset
        hi = lo + index.n_pairs * index.row_bytes
        for pos in range(lo, hi):  # every tile fails its CRC
            raw[pos] ^= 0xFF
        victim.write_bytes(bytes(raw))

        resumed = spilled_session(tmp_path, resume=True)
        snap = resumed.snapshot()
        assert victim.with_suffix(".bmx.corrupt").exists()
        metrics = resumed.obs.export().metrics
        assert metrics["stream.tile_quarantines"]["value"] >= 1
        assert_equivalent(snap, mafia(live_window(blocks, WINDOW),
                                      PARAMS, domains=DOMAINS))
        resumed.close()


def _spill_multirank_rank(comm, spill):
    try:
        StreamingSession(PARAMS, comm=comm, domains=DOMAINS,
                         spill_dir=spill)
    except StreamError:
        return True
    return False


class TestMultiRankSpill:
    def test_spill_on_multirank_session_is_rejected(self, tmp_path):
        results = run_spmd(_spill_multirank_rank, 2, backend="thread",
                           args=(str(tmp_path),))
        assert all(r.value for r in results)
