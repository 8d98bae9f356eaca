"""Tests for the out-of-core I/O substrate (repro.io)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mafia import mafia
from repro.datagen import ClusterSpec, generate
from repro.errors import CommError, DataError, ParameterError, RecordFileError
from repro.io import (ArraySource, RecordFile, as_source, block_offsets,
                      block_range, charged_chunks, local_path, read_header,
                      stage_local, write_records)
from repro.parallel import MachineSpec, SerialComm, run_spmd
from tests.conftest import DOMAINS_10D


@pytest.fixture
def records():
    rng = np.random.default_rng(42)
    return rng.random((1000, 6))


class TestRecordFile:
    def test_roundtrip(self, tmp_path, records):
        rf = write_records(tmp_path / "data.bin", records)
        assert rf.n_records == 1000 and rf.n_dims == 6
        np.testing.assert_allclose(rf.read_all(), records)

    def test_float32_preserved(self, tmp_path, records):
        rf = write_records(tmp_path / "f32.bin", records.astype(np.float32))
        assert rf.dtype == np.dtype("<f4")
        np.testing.assert_allclose(rf.read_all(), records, atol=1e-6)

    def test_int_input_promoted_to_float64(self, tmp_path):
        rf = write_records(tmp_path / "i.bin", np.arange(12).reshape(4, 3))
        assert rf.dtype == np.dtype("<f8")

    def test_memmap_matches(self, tmp_path, records):
        rf = write_records(tmp_path / "mm.bin", records)
        np.testing.assert_allclose(np.asarray(rf.memmap()[10:20]),
                                   records[10:20])

    def test_read_block_bounds(self, tmp_path, records):
        rf = write_records(tmp_path / "b.bin", records)
        with pytest.raises(DataError):
            rf.read_block(10, 2000)
        with pytest.raises(DataError):
            rf.read_block(-1, 5)

    def test_iter_chunks_cover_exactly(self, tmp_path, records):
        rf = write_records(tmp_path / "c.bin", records)
        chunks = list(rf.iter_chunks(300))
        assert [len(c) for c in chunks] == [300, 300, 300, 100]
        np.testing.assert_allclose(np.concatenate(chunks), records)

    def test_iter_chunks_subrange(self, tmp_path, records):
        rf = write_records(tmp_path / "s.bin", records)
        got = np.concatenate(list(rf.iter_chunks(64, start=100, stop=357)))
        np.testing.assert_allclose(got, records[100:357])

    def test_nan_rejected(self, tmp_path, records):
        bad = records.copy()
        bad[3, 2] = np.nan
        with pytest.raises(DataError):
            write_records(tmp_path / "nan.bin", bad)

    def test_1d_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_records(tmp_path / "1d.bin", np.arange(5.0))

    def test_truncated_file_detected(self, tmp_path, records):
        rf = write_records(tmp_path / "t.bin", records)
        data = rf.path.read_bytes()
        rf.path.write_bytes(data[:-8])
        with pytest.raises(RecordFileError):
            read_header(rf.path)

    def test_bad_magic_detected(self, tmp_path, records):
        rf = write_records(tmp_path / "m.bin", records)
        data = bytearray(rf.path.read_bytes())
        data[:4] = b"XXXX"
        rf.path.write_bytes(bytes(data))
        with pytest.raises(RecordFileError):
            RecordFile(rf.path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(RecordFileError):
            RecordFile(tmp_path / "nope.bin")


class TestArraySource:
    def test_properties_and_chunks(self, records):
        src = ArraySource(records)
        assert src.n_records == 1000 and src.n_dims == 6
        got = np.concatenate(list(src.iter_chunks(128)))
        np.testing.assert_allclose(got, records)

    def test_chunks_are_views_not_copies(self, records):
        src = ArraySource(records)
        chunk = next(src.iter_chunks(10))
        assert chunk.base is src.records or chunk.base is records

    def test_validation(self):
        with pytest.raises(DataError):
            ArraySource(np.arange(5.0))
        with pytest.raises(DataError):
            ArraySource(np.empty((3, 0)))
        src = ArraySource(np.zeros((3, 2)))
        with pytest.raises(DataError):
            list(src.iter_chunks(0))
        with pytest.raises(DataError):
            list(src.iter_chunks(5, start=2, stop=9))

    def test_as_source(self, records):
        assert isinstance(as_source(records), ArraySource)
        src = ArraySource(records)
        assert as_source(src) is src
        with pytest.raises(DataError):
            as_source("not records")


class TestNoCopyArraySource:
    def test_float64_input_is_wrapped_not_copied(self):
        records = np.random.default_rng(8).random((50, 3))
        source = ArraySource(records)
        assert np.shares_memory(source.records, records)
        assert np.shares_memory(source.read_block(10, 30), records)

    def test_foreign_dtype_still_converts(self):
        records = np.arange(12, dtype=np.int32).reshape(4, 3)
        source = ArraySource(records)
        assert source.records.dtype == np.float64


class TestChargedChunks:
    def test_io_charged_per_chunk(self, records):
        from repro.parallel.simtime import TimedComm
        comm = TimedComm(SerialComm(), MachineSpec.ibm_sp2())
        list(charged_chunks(ArraySource(records), comm, 300))
        assert comm.counters.io_chunks == 4
        assert comm.counters.io_bytes == 1000 * 6 * 8


class TestBlockPartition:
    def test_offsets_cover_and_balance(self):
        offsets = block_offsets(10, 3)
        assert offsets == [0, 4, 7, 10]

    def test_block_range(self):
        assert block_range(10, 3, 0) == (0, 4)
        assert block_range(10, 3, 2) == (7, 10)

    def test_more_ranks_than_records(self):
        offsets = block_offsets(2, 5)
        assert offsets[0] == 0 and offsets[-1] == 2
        sizes = np.diff(offsets)
        assert sizes.sum() == 2 and sizes.max() <= 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            block_offsets(-1, 2)
        with pytest.raises(ParameterError):
            block_offsets(5, 0)
        with pytest.raises(ParameterError):
            block_range(5, 2, 2)


class TestStaging:
    def test_each_rank_gets_its_block(self, tmp_path, records):
        shared = tmp_path / "shared.bin"
        write_records(shared, records)

        def prog(comm):
            local = stage_local(comm, shared, tmp_path)
            return local.read_all()

        results = run_spmd(prog, 3)
        got = np.concatenate([r.value for r in results])
        np.testing.assert_allclose(got, records)

    def test_staging_republishes_rewritten_source(self, tmp_path,
                                                  one_cluster_dataset,
                                                  small_params):
        """A rank's local copy is republished on every run: rewriting
        the shared file with a same-shape data set must change the
        result, never serve the old copy."""
        shared = tmp_path / "data.bin"
        write_records(shared, one_cluster_dataset.records)
        first = mafia(str(shared), small_params, domains=DOMAINS_10D)
        assert [c.subspace.dims for c in first.clusters] == [(1, 3, 5, 7)]
        moved = generate(5000, 10, [ClusterSpec.box(
            [0, 2, 4], [(20, 40), (10, 30), (50, 80)], name="c0")], seed=7)
        assert moved.records.shape == one_cluster_dataset.records.shape
        write_records(shared, moved.records)
        second = mafia(str(shared), small_params, domains=DOMAINS_10D)
        cold = mafia(moved.records, small_params, domains=DOMAINS_10D)
        assert [c.subspace.dims for c in second.clusters] == [(0, 2, 4)]
        assert ([c.point_count for c in second.clusters]
                == [c.point_count for c in cold.clusters])

    def test_local_path_is_rank_private(self, tmp_path):
        a = local_path(tmp_path / "d.bin", 0)
        b = local_path(tmp_path / "d.bin", 1)
        assert a != b
