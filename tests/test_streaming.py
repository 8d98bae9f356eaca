"""Tests for streaming generation and bounded-memory operation
(repro.datagen.stream, repro.io.records.RecordFileWriter) and for the
delta plumbing that feeds the incremental engine (repro.stream.deltas):
source ordering, queue backpressure, and end-of-stream semantics."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import MafiaParams, mafia, pmafia
from repro.datagen import ClusterSpec, generate_to_file
from repro.errors import (DataError, ParameterError, RecordFileError,
                          StreamError)
from repro.io import RecordFile, RecordFileWriter
from repro.io.chunks import DataSource
from repro.stream import (BlockDeltaSource, Delta, DeltaQueue,
                          RecordDeltaSource, StreamingSession)


class TestRecordFileWriter:
    def test_incremental_blocks_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        blocks = [rng.random((n, 3)) for n in (10, 25, 7)]
        with RecordFileWriter(tmp_path / "w.bin", n_dims=3) as writer:
            for block in blocks:
                writer.append(block)
        rf = RecordFile(tmp_path / "w.bin")
        assert rf.n_records == 42
        np.testing.assert_allclose(rf.read_all(), np.concatenate(blocks))

    def test_close_returns_handle_and_is_idempotent(self, tmp_path):
        writer = RecordFileWriter(tmp_path / "c.bin", n_dims=2)
        writer.append(np.ones((4, 2)))
        rf = writer.close()
        assert rf.n_records == 4
        assert writer.close().n_records == 4

    def test_append_after_close_rejected(self, tmp_path):
        writer = RecordFileWriter(tmp_path / "a.bin", n_dims=2)
        writer.close()
        with pytest.raises(RecordFileError):
            writer.append(np.ones((1, 2)))

    def test_abort_leaves_no_file(self, tmp_path):
        path = tmp_path / "ab.bin"
        writer = RecordFileWriter(path, n_dims=2)
        writer.append(np.ones((5, 2)))
        writer.abort()
        assert not path.exists()
        assert not path.with_suffix(".bin.tmp").exists()

    def test_exception_in_context_aborts(self, tmp_path):
        path = tmp_path / "err.bin"
        with pytest.raises(RuntimeError):
            with RecordFileWriter(path, n_dims=2) as writer:
                writer.append(np.ones((3, 2)))
                raise RuntimeError("boom")
        assert not path.exists()

    def test_bad_blocks_rejected(self, tmp_path):
        writer = RecordFileWriter(tmp_path / "b.bin", n_dims=3)
        with pytest.raises(DataError):
            writer.append(np.ones((2, 4)))
        with pytest.raises(DataError):
            writer.append(np.array([[1.0, np.nan, 2.0]]))
        writer.abort()

    def test_float32_mode(self, tmp_path):
        with RecordFileWriter(tmp_path / "f.bin", n_dims=2,
                              dtype="<f4") as writer:
            writer.append(np.ones((3, 2)))
        assert RecordFile(tmp_path / "f.bin").dtype == np.dtype("<f4")


class TestGenerateToFile:
    def test_record_counts(self, tmp_path):
        spec = ClusterSpec.box([0], [(10, 20)])
        rf = generate_to_file(tmp_path / "g.bin", 10_000, 4, [spec],
                              seed=1, chunk_records=3_000)
        assert rf.n_records == 11_000  # +10% noise

    def test_cluster_share_is_proportional(self, tmp_path):
        spec = ClusterSpec.box([0], [(10, 20)])
        rf = generate_to_file(tmp_path / "p.bin", 20_000, 3, [spec],
                              seed=2, chunk_records=4_000)
        data = rf.read_all()
        inside = ((data[:, 0] >= 10) & (data[:, 0] < 20)).sum()
        # 20k cluster records + ~10% of noise/background in range
        assert 19_500 < inside < 21_500

    def test_chunks_interleave_noise(self, tmp_path):
        """Noise must be spread across the file, not bunched at the
        end (each chunk carries its proportional share)."""
        spec = ClusterSpec.box([0], [(40, 42)])
        rf = generate_to_file(tmp_path / "i.bin", 30_000, 2, [spec],
                              noise_fraction=0.5, seed=3,
                              chunk_records=5_000)
        data = rf.read_all()
        outside = (data[:, 0] < 40) | (data[:, 0] >= 42)
        first, last = outside[:10_000].mean(), outside[-10_000:].mean()
        assert abs(first - last) < 0.1

    def test_weights_respected(self, tmp_path):
        specs = [ClusterSpec.box([0], [(0, 10)], weight=3.0),
                 ClusterSpec.box([1], [(0, 10)], weight=1.0)]
        rf = generate_to_file(tmp_path / "w.bin", 8_000, 3, specs,
                              noise_fraction=0.0, seed=4,
                              chunk_records=1_000)
        data = rf.read_all()
        a = ((data[:, 0] < 10)).sum()
        b = ((data[:, 1] < 10)).sum()
        assert 2.0 < a / b < 4.5

    def test_streamed_file_clusters_like_in_memory(self, tmp_path):
        spec = ClusterSpec.box([1, 3], [(20, 30), (60, 70)])
        rf = generate_to_file(tmp_path / "s.bin", 50_000, 6, [spec],
                              seed=5, chunk_records=8_000)
        res = mafia(rf.path, MafiaParams(fine_bins=200, window_size=2,
                                         chunk_records=10_000),
                    domains=np.array([[0.0, 100.0]] * 6))
        assert [c.subspace.dims for c in res.clusters] == [(1, 3)]

    def test_no_clusters_all_background(self, tmp_path):
        rf = generate_to_file(tmp_path / "n.bin", 5_000, 3, [], seed=6,
                              chunk_records=1_000)
        assert rf.n_records == 5_500

    def test_validation(self, tmp_path):
        with pytest.raises(ParameterError):
            generate_to_file(tmp_path / "x.bin", -1, 3)
        with pytest.raises(ParameterError):
            generate_to_file(tmp_path / "x.bin", 10, 0)
        with pytest.raises(ParameterError):
            generate_to_file(tmp_path / "x.bin", 10, 3, chunk_records=0)
        with pytest.raises(ParameterError):
            generate_to_file(tmp_path / "x.bin", 10, 2,
                             [ClusterSpec.box([5], [(0, 1)])])


class _SpyingSource:
    """DataSource wrapper recording the largest block materialised."""

    def __init__(self, inner):
        self._inner = inner
        self.max_block = 0

    @property
    def n_records(self):
        return self._inner.n_records

    @property
    def n_dims(self):
        return self._inner.n_dims

    def iter_chunks(self, chunk_records, start=0, stop=None):
        for chunk in self._inner.iter_chunks(chunk_records, start, stop):
            self.max_block = max(self.max_block, chunk.shape[0])
            yield chunk


class TestBoundedMemory:
    def test_driver_never_materialises_more_than_B_records(self, tmp_path):
        """The out-of-core contract: every pass touches at most B
        records at a time, however large the file."""
        spec = ClusterSpec.box([0, 2], [(20, 30), (50, 60)])
        rf = generate_to_file(tmp_path / "m.bin", 40_000, 4, [spec],
                              seed=7, chunk_records=6_000)
        spy = _SpyingSource(rf)
        B = 2_500
        res = mafia(spy, MafiaParams(fine_bins=200, window_size=2,
                                     chunk_records=B),
                    domains=np.array([[0.0, 100.0]] * 4))
        assert spy.max_block <= B
        assert any(c.subspace.dims == (0, 2) for c in res.clusters)


class TestDeltaSources:
    def test_block_source_orders_and_numbers_deltas(self):
        records = np.arange(50.0).reshape(25, 2)
        deltas = list(BlockDeltaSource(records, 7))
        assert [d.seq for d in deltas] == [0, 1, 2, 3]
        assert [d.n_records for d in deltas] == [7, 7, 7, 4]
        np.testing.assert_array_equal(
            np.concatenate([d.block for d in deltas]), records)

    def test_block_source_first_seq_offsets_numbering(self):
        records = np.ones((10, 2))
        deltas = list(BlockDeltaSource(records, 4, first_seq=5))
        assert [d.seq for d in deltas] == [5, 6, 7]

    def test_record_source_replays_the_file(self, tmp_path):
        rng = np.random.default_rng(0)
        records = rng.random((33, 3))
        from repro.io.records import write_records
        write_records(tmp_path / "r.bin", records)
        deltas = list(RecordDeltaSource(tmp_path / "r.bin", 10))
        assert [d.seq for d in deltas] == [0, 1, 2, 3]
        np.testing.assert_allclose(
            np.concatenate([d.block for d in deltas]), records)

    def test_source_validation(self):
        with pytest.raises(DataError):
            BlockDeltaSource(np.ones((4, 2)), 0)
        with pytest.raises(DataError):
            BlockDeltaSource(np.ones(4), 2)
        with pytest.raises(DataError):
            DeltaQueue(maxsize=0)


class TestDeltaQueue:
    def _delta(self, seq, n=3):
        return Delta(seq=seq, block=np.full((n, 2), float(seq)))

    def test_fifo_ordering_across_threads(self):
        queue = DeltaQueue(maxsize=4)
        n = 25

        def produce():
            for seq in range(n):
                queue.put(self._delta(seq))
            queue.close()

        producer = threading.Thread(target=produce)
        producer.start()
        seen = [d.seq for d in queue]
        producer.join()
        assert seen == list(range(n))

    def test_put_backpressures_until_a_get(self):
        queue = DeltaQueue(maxsize=1)
        queue.put(self._delta(0))
        released = threading.Event()

        def produce():
            queue.put(self._delta(1), timeout=5.0)  # blocks on full
            released.set()

        producer = threading.Thread(target=produce)
        producer.start()
        assert not released.wait(0.05)  # still parked: queue is full
        assert queue.get().seq == 0
        assert released.wait(5.0)
        producer.join()
        assert queue.get().seq == 1

    def test_put_timeout_raises_instead_of_hanging(self):
        queue = DeltaQueue(maxsize=1)
        queue.put(self._delta(0))
        with pytest.raises(StreamError):
            queue.put(self._delta(1), timeout=0.01)

    def test_get_timeout_raises_instead_of_hanging(self):
        with pytest.raises(StreamError):
            DeltaQueue().get(timeout=0.01)

    def test_close_drains_then_signals_end_of_stream(self):
        queue = DeltaQueue(maxsize=4)
        queue.put(self._delta(0))
        queue.put(self._delta(1))
        queue.close()
        assert queue.closed
        assert queue.get().seq == 0     # queued deltas still drain
        assert queue.get().seq == 1
        assert queue.get() is None      # then end-of-stream
        assert queue.get() is None      # idempotently

    def test_put_after_close_raises(self):
        queue = DeltaQueue()
        queue.close()
        queue.close()  # idempotent
        with pytest.raises(StreamError):
            queue.put(self._delta(0))

    def test_bounded_producer_to_session_pipeline(self):
        """End to end through the queue: a backpressured producer
        thread feeds a session; the drained stream clusters exactly
        like a cold batch over the same records."""
        rng = np.random.default_rng(1)
        records = rng.uniform(0.0, 100.0, size=(300, 3))
        records[:200, 1] = rng.uniform(30.0, 42.0, 200)
        domains = np.array([[0.0, 100.0]] * 3)
        params = MafiaParams(fine_bins=80, window_size=2,
                             chunk_records=128)
        queue = DeltaQueue(maxsize=2)

        def produce():
            for delta in BlockDeltaSource(records, 40):
                queue.put(delta, timeout=10.0)
            queue.close()

        producer = threading.Thread(target=produce)
        producer.start()
        with StreamingSession(params, domains=domains) as session:
            for delta in queue:
                session.ingest(delta.block, seq=delta.seq)
            snap = session.snapshot()
        producer.join()
        cold = mafia(records, params, domains=domains)
        from repro.stream.soak import result_fingerprint
        assert result_fingerprint(snap) == result_fingerprint(cold)


class TestSegmentCountsFollowBinEdges:
    """A segment's count cache is valid only under the bin edges it was
    counted with: the same unit bytes name different cells once the
    grid is re-binned, so they must be recounted, never served."""

    def test_same_units_recount_under_new_edges(self):
        from repro.core.histogram import block_codes
        from repro.core.units import UnitTable
        from repro.io.bitmap_index import edges_fingerprint
        from repro.stream.window import WindowSegment
        from repro.types import DimensionGrid, Grid

        def grid(cuts):
            return Grid(tuple(DimensionGrid(d, 0.0, 10.0, 10, cuts,
                                            (0.0,) * 2)
                              for d in range(2)))

        records = np.array([[1.0, 1.0], [3.0, 3.0], [6.0, 6.0],
                            [9.0, 9.0]])
        codes = block_codes(records, np.array([[0.0, 10.0]] * 2), 10)
        seg = WindowSegment(0, codes, 4, 0, 4)
        units = UnitTable.from_pairs([[(0, 0), (1, 0)]])
        key = b"bin 0 of both dims"
        grid_a, grid_b = grid((0, 5, 10)), grid((0, 2, 10))
        fp_a, fp_b = edges_fingerprint(grid_a), edges_fingerprint(grid_b)
        assert seg.counts_for(units, key, grid_a, fp_a, 16).tolist() == [2]
        assert seg.counts_for(units, key, grid_b, fp_b, 16).tolist() == [1]
        assert seg.has_counts(key, fp_b) and not seg.has_counts(key, fp_a)

    def test_drifting_window_snapshot_matches_cold_run(self):
        """The benchmark's drifting stream under the default drift
        threshold: the ingest after the first snapshot moves bin edges
        without an eager rebuild, and the next snapshot must still
        equal a cold batch run over the live window."""
        from benchmarks.e2e.inputs import DriftStream, domains
        from repro.stream.soak import result_fingerprint

        source = DriftStream(2)
        params = MafiaParams(fine_bins=200, window_size=2,
                             chunk_records=50_000)
        dom = domains(source.N_DIMS)
        n_fill = source.window // source.delta
        with StreamingSession(params, domains=dom,
                              window_records=source.window) as session:
            for t in range(n_fill):
                session.ingest(source.block(t))
            session.snapshot()
            session.ingest(source.block(n_fill))
            snap = session.snapshot()
        live = np.concatenate([source.block(t)
                               for t in range(1, n_fill + 1)])
        cold = mafia(live, params, domains=dom)
        assert snap.dense_per_level() == cold.dense_per_level()
        assert result_fingerprint(snap) == result_fingerprint(cold)
