"""Differential conformance: streaming snapshots vs the cold oracle.

The streaming engine's whole contract is one sentence: after any
sequence of ingests and expiries, ``StreamingSession.snapshot()`` is
bit-identical to a cold batch run over exactly the live window —
clusters, DNF terms, per-level trace, and per-rank ``pairs_examined``
— on every backend.  This suite enforces that sentence with random
delta sequences (hypothesis) against the serial engine and scripted
sequences against the thread / process / sim backends, and checks the
knobs that must *not* matter (drift threshold, spill, snapshot
repetition) really don't.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MafiaParams, mafia, pmafia
from repro.core.histogram import block_codes, block_histogram, code_dtype
from repro.core.pmafia import pmafia_rank
from repro.errors import DataError
from repro.io import RecordFile
from repro.parallel.spmd import run_spmd
from repro.stream import StreamingSession
from repro.stream.soak import pairs_examined, result_fingerprint
from tests.test_bitmap_index import cluster_signature

DIMS = 4
DOMAINS = np.array([[0.0, 100.0]] * DIMS)
PARAMS = MafiaParams(fine_bins=80, window_size=2, chunk_records=512,
                     tau=8, metrics=True)


def drifting_blocks(seed: int, sizes, d: int = DIMS) -> list[np.ndarray]:
    """Random deltas with a cluster on dims (0, 2) whose location
    drifts with the delta index, so bin edges genuinely move."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i, n in enumerate(sizes):
        block = rng.uniform(0.0, 100.0, size=(n, d))
        center = 10.0 + 60.0 * ((i % 7) / 7.0)
        k = (3 * n) // 4
        for dim in (0, 2):
            block[:k, dim] = rng.uniform(center, center + 12.0, k)
        blocks.append(block)
    return blocks


def live_window(history, window):
    live = np.concatenate(history, axis=0)
    if window is not None:
        live = live[-window:]
    return np.ascontiguousarray(live)


def assert_equivalent(snap, cold) -> None:
    """The full oracle: identical digest (clusters, DNF, trace) and —
    when both sides metered — identical pairs_examined."""
    assert result_fingerprint(snap) == result_fingerprint(cold)
    sp, cp = pairs_examined(snap), pairs_examined(cold)
    if not (np.isnan(sp) and np.isnan(cp)):
        assert sp == cp


class TestSerialConformance:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**20),
           sizes=st.lists(st.integers(16, 96), min_size=2, max_size=6),
           window=st.integers(64, 256))
    def test_random_delta_sequences_match_cold_batch(self, seed, sizes,
                                                     window):
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   window_records=window)
        history = []
        for block in drifting_blocks(seed, sizes):
            history.append(block)
            session.ingest(block)
            snap = session.snapshot()
            cold = mafia(live_window(history, window), PARAMS,
                         domains=DOMAINS)
            assert_equivalent(snap, cold)
        session.close()

    def test_visible_fields_not_just_digest(self):
        """Spot-check the oracle compares what users see: cluster
        signature and DNF terms, field by field."""
        blocks = drifting_blocks(7, [80, 120, 90, 110])
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   window_records=250)
        for block in blocks:
            session.ingest(block)
        snap = session.snapshot()
        cold = mafia(live_window(blocks, 250), PARAMS, domains=DOMAINS)
        assert cluster_signature(snap) == cluster_signature(cold)
        assert [c.dnf for c in snap.clusters] == \
            [c.dnf for c in cold.clusters]
        assert snap.n_records == cold.n_records == 250
        session.close()

    def test_unbounded_window_never_expires(self):
        blocks = drifting_blocks(11, [60, 70, 80])
        with StreamingSession(PARAMS, domains=DOMAINS) as session:
            for block in blocks:
                session.ingest(block)
            assert session.n_live == 210
            assert_equivalent(session.snapshot(),
                              mafia(live_window(blocks, None), PARAMS,
                                    domains=DOMAINS))

    def test_delta_larger_than_the_window_expires_its_own_head(self):
        """Expiry runs before the append, so a delta longer than the
        whole window also drops its own oldest records; the ring then
        holds exactly the window."""
        blocks = drifting_blocks(3, [120, 10, 200, 5])
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   window_records=80)
        for i, block in enumerate(blocks):
            session.ingest(block)
            assert session._window.n_local == session.n_live == 80
            assert_equivalent(session.snapshot(),
                              mafia(live_window(blocks[:i + 1], 80),
                                    PARAMS, domains=DOMAINS))
        session.close()

    def test_repeat_snapshot_matches_the_first(self):
        """A second snapshot with no ingest between restages and
        recounts everything, and matches the first and the cold run
        bit for bit."""
        blocks = drifting_blocks(13, [90, 100, 80])
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   window_records=200)
        for block in blocks:
            session.ingest(block)
        first = session.snapshot()
        second = session.snapshot()
        assert_equivalent(second, first)
        assert_equivalent(second, mafia(live_window(blocks, 200), PARAMS,
                                        domains=DOMAINS))
        session.close()

    @pytest.mark.parametrize("drift", [0.0, 1e9])
    def test_drift_threshold_is_latency_only(self, drift):
        """``drift_threshold`` is still accepted (and validated) but
        never changes what a snapshot returns: snapshots are exact at
        any value."""
        blocks = drifting_blocks(17, [70, 90, 60, 80])
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   window_records=180,
                                   drift_threshold=drift)
        for block in blocks:
            session.ingest(block)
        assert_equivalent(session.snapshot(),
                          mafia(live_window(blocks, 180), PARAMS,
                                domains=DOMAINS))
        session.close()
        with pytest.raises(DataError):
            StreamingSession(PARAMS, domains=DOMAINS, drift_threshold=-1.0)

    def test_default_session_is_exact_while_edges_move(self):
        """A session on default settings, fed 36 drifting deltas whose
        bin edges move, equals a cold ``mafia()`` at every snapshot."""
        window = 600
        blocks = drifting_blocks(53, [150] * 36)
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   window_records=window)
        edges = []
        for i, block in enumerate(blocks):
            session.ingest(block)
            snap = session.snapshot()
            cold = mafia(live_window(blocks[:i + 1], window), PARAMS,
                         domains=DOMAINS)
            assert_equivalent(snap, cold)
            edges.append([dg.cuts for dg in snap.grid])
        session.close()
        moved = sum(a != b for a, b in zip(edges, edges[1:]))
        assert moved >= len(blocks) // 2, moved

    def test_spilled_session_matches_resident(self, tmp_path):
        blocks = drifting_blocks(19, [50, 60, 70, 80, 90])
        spilled = StreamingSession(PARAMS, domains=DOMAINS,
                                   window_records=220,
                                   spill_dir=tmp_path,
                                   compact_segments=2)
        resident = StreamingSession(PARAMS, domains=DOMAINS,
                                    window_records=220)
        for block in blocks:
            spilled.ingest(block)
            resident.ingest(block)
        assert_equivalent(spilled.snapshot(), resident.snapshot())
        assert_equivalent(spilled.snapshot(),
                          mafia(live_window(blocks, 220), PARAMS,
                                domains=DOMAINS))
        spilled.close()
        resident.close()

    def test_empty_window_snapshot_raises(self):
        with StreamingSession(PARAMS, domains=DOMAINS) as session:
            with pytest.raises(DataError):
                session.snapshot()


def _conformance_rank(comm, cfg):
    """SPMD body: stream on this backend, oracle via a cold
    ``pmafia_rank`` over the live window on the same communicator."""
    session = StreamingSession(cfg["params"], comm=comm, domains=DOMAINS,
                               window_records=cfg["window"])
    history = []
    rows = []
    for i, block in enumerate(drifting_blocks(cfg["seed"], cfg["sizes"])):
        history.append(block)
        session.ingest(block)
        if (i + 1) % cfg["snapshot_every"]:
            continue
        snap = session.snapshot()
        cold = pmafia_rank(comm, live_window(history, cfg["window"]),
                           cfg["params"], DOMAINS)
        rows.append((result_fingerprint(snap), result_fingerprint(cold),
                     pairs_examined(snap), pairs_examined(cold)))
    session.close()
    return rows


class TestBackendConformance:
    """The oracle holds per rank on every SPMD backend — including the
    sim backend, whose cold-run virtual-time accounting the streaming
    path must not perturb (the cold oracle runs *inside* the same sim
    communicator and still produces identical pairs charges)."""

    @pytest.mark.parametrize("backend,nprocs",
                             [("thread", 3), ("process", 2), ("sim", 3)])
    def test_per_rank_snapshots_match_cold_pmafia(self, backend, nprocs):
        cfg = {"params": PARAMS, "seed": 99, "window": 220,
               "sizes": [60, 80, 50, 70, 90, 40], "snapshot_every": 2}
        ranks = run_spmd(_conformance_rank, nprocs, backend=backend,
                         args=(cfg,))
        for rank in ranks:
            rows = rank.value
            assert len(rows) == 3
            for stream_fp, cold_fp, stream_pairs, cold_pairs in rows:
                assert stream_fp == cold_fp
                if not (np.isnan(stream_pairs)
                        and np.isnan(cold_pairs)):
                    assert stream_pairs == cold_pairs


def _repeat_snapshot_rank(comm, cfg):
    """SPMD body: fill a window, then take three back-to-back
    snapshots; per snapshot, this rank's virtual-clock advance and its
    join + dedup pairs."""
    session = StreamingSession(cfg["params"], comm=comm, domains=DOMAINS,
                               window_records=cfg["window"])
    for block in drifting_blocks(cfg["seed"], cfg["sizes"]):
        session.ingest(block)
    steps = []
    for _ in range(3):
        t0 = comm.time()
        snap = session.snapshot()
        steps.append((comm.time() - t0, pairs_examined(snap)))
    session.close()
    return steps


def _snapshot_charge_rank(comm, cfg):
    """SPMD body: fill a window, then this rank's record-cell and I/O
    counters across one snapshot and its live record count."""
    session = StreamingSession(cfg["params"], comm=comm, domains=DOMAINS,
                               window_records=cfg["window"])
    for block in drifting_blocks(cfg["seed"], cfg["sizes"]):
        session.ingest(block)
    before = (comm.counters.record_cell_ops, comm.counters.io_bytes)
    session.snapshot()
    after = (comm.counters.record_cell_ops, comm.counters.io_bytes)
    n_local = session._window.n_local
    session.close()
    return after[0] - before[0], after[1] - before[1], n_local


class TestSimClock:
    def test_snapshot_charges_the_batch_populate(self):
        """A snapshot populates through the batch run's path, so the
        sim clock sees a cold run's per-level I/O and cell charges —
        everything the cold run charges but its histogram pass
        (``n_local·d`` cells and the read of its records).  The window
        expires whole deltas of even size, so each rank's share of the
        live window is the cold run's block."""
        cfg = {"params": PARAMS, "seed": 43, "window": 200,
               "sizes": [60, 80, 50, 70]}
        ranks = run_spmd(_snapshot_charge_rank, 2, backend="sim",
                         args=(cfg,))
        live = live_window(drifting_blocks(43, cfg["sizes"]), 200)
        cold = pmafia(live, 2, PARAMS, backend="sim", domains=DOMAINS)
        for rank, counters in zip(ranks, cold.counters):
            cells, io_bytes, n_local = rank.value
            assert n_local == 100
            assert cells > 0
            assert cells == counters.record_cell_ops - n_local * DIMS
            assert io_bytes == counters.io_bytes - n_local * DIMS * 8

    def test_repeat_snapshots_charge_the_same_virtual_time(self):
        """With τ=0 every join and dedup is task-partitioned over the
        two ranks, so each one's collectives cost virtual time.  A
        snapshot repeated with no ingest between must charge exactly
        what the first did — no result may be served from a memo that
        skips those collectives — and its per-rank pairs must be a
        cold sim run's."""
        params = PARAMS.with_(tau=0)
        cfg = {"params": params, "seed": 41, "window": 220,
               "sizes": [60, 80, 50, 70]}
        ranks = run_spmd(_repeat_snapshot_rank, 2, backend="sim",
                         args=(cfg,))
        live = live_window(drifting_blocks(41, cfg["sizes"]), 220)
        cold = pmafia(live, 2, params, backend="sim", domains=DOMAINS)
        for rank, rank_obs in zip(ranks, cold.obs.ranks):
            charges = [dt for dt, _ in rank.value]
            assert charges[0] > 0
            assert charges == pytest.approx([charges[0]] * 3, rel=1e-12)
            cold_pairs = sum(rank_obs.metrics[name]["value"]
                             for name in ("join.pairs_examined",
                                          "dedup.pairs_examined"))
            assert [p for _, p in rank.value] == [cold_pairs] * 3


class TestSegmentsHoldCodes:
    """A session's only per-record state is the fine codes in its
    ring: after ingests, head drops and compaction — spilled or not,
    and after a resume from the manifest — every live segment's ring
    rows are ``block_codes`` of its live records and the maintained
    histogram is a cold one of the live window."""

    SIZES = [37, 50, 23, 64, 41, 9, 55, 30, 48, 12, 61]
    WINDOW = 150

    def assert_codes_invariants(self, session, live) -> None:
        window = session._window
        offset = 0
        for seg in window.segments:
            rows = live[offset:offset + seg.length]
            codes = window.codes(seg.offset, seg.offset + seg.length)
            assert codes.dtype == code_dtype(PARAMS.fine_bins)
            assert np.array_equal(
                codes, block_codes(rows, DOMAINS, PARAMS.fine_bins))
            if seg.rec_path is not None:
                on_disk = RecordFile(seg.rec_path).read_block(
                    seg.g_lo, seg.g_lo + seg.length)
                assert np.array_equal(on_disk, rows)
            offset += seg.length
        assert offset == len(live) == window.n_local
        assert np.array_equal(window.live_codes(),
                              block_codes(live, DOMAINS, PARAMS.fine_bins))
        assert np.array_equal(
            session._hist,
            block_histogram(live, DOMAINS, PARAMS.fine_bins))

    @pytest.mark.parametrize("spill", [False, True])
    def test_ingest_expire_compact_resume(self, tmp_path, spill):
        blocks = drifting_blocks(23, self.SIZES)
        kw = dict(window_records=self.WINDOW, compact_segments=3)
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   spill_dir=tmp_path if spill else None,
                                   **kw)
        merged = False
        for i, block in enumerate(blocks):
            session.ingest(block)
            live = live_window(blocks[:i + 1], self.WINDOW)
            self.assert_codes_invariants(session, live)
            merged |= any(seg.g_size != self.SIZES[seg.seq]
                          for seg in session._window.segments)
            if i % 4 == 3:
                assert_equivalent(session.snapshot(),
                                  mafia(live, PARAMS, domains=DOMAINS))
        # only a spilled session merges segments, to bound its files
        assert merged == spill
        session.close()
        if spill:
            # snapshots leave nothing on disk: one record file per
            # live segment, plus the manifest
            names = sorted(p.name for p in tmp_path.iterdir())
            assert names == sorted(
                [seg.rec_path.name for seg in session._window.segments]
                + ["stream_manifest.json"])
            assert all(n.endswith(".rec") for n in names[:-1])
        if spill:
            resumed = StreamingSession(PARAMS, domains=DOMAINS,
                                       spill_dir=tmp_path, resume=True,
                                       **kw)
            self.assert_codes_invariants(resumed, live)
            assert_equivalent(resumed.snapshot(),
                              mafia(live, PARAMS, domains=DOMAINS))
            resumed.close()

    def test_window_holds_code_bytes_not_floats(self):
        """A W-record, d-dim window keeps about W*d bytes of ``uint8``
        codes in its ring; float records would be 8*W*d."""
        window, d = 40_000, 6
        params = MafiaParams(fine_bins=200, window_size=2,
                             chunk_records=4096)
        domains = np.array([[0.0, 1.0]] * d)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            session = StreamingSession(params, domains=domains,
                                       window_records=window)
            for _ in range(10):   # each block is freed unless kept
                session.ingest(rng.random((5_000, d)))
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert session.n_live == window
        assert window * d <= held < 2 * window * d, held
