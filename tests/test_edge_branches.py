"""Targeted tests for less-travelled branches across the library."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.units import UnitTable
from repro.datagen import ICG
from repro.errors import CommError, DataError, ParameterError
from repro.io import RecordFile, stage_local, write_records
from repro.parallel import SerialComm, run_spmd
from tests.conftest import DOMAINS_10D


class TestUnitTableEdges:
    def test_concat_all_empty_list_rejected(self):
        with pytest.raises(DataError):
            UnitTable.concat_all([])

    def test_concat_all_skips_none(self):
        t = UnitTable.from_pairs([[(0, 1)]])
        assert UnitTable.concat_all([None, t, None]) == t

    def test_empty_table_ops(self):
        t = UnitTable.empty(2)
        assert t.repeat_mask().size == 0
        assert t.unique() == t
        assert t.sort().n_units == 0
        assert t.group_by_subspace() == {}
        assert list(t) == []


class TestStagingRecovery:
    def test_corrupted_local_copy_is_rebuilt(self, tmp_path):
        rng = np.random.default_rng(1)
        records = rng.random((100, 3))
        shared = tmp_path / "s.bin"
        write_records(shared, records)
        comm = SerialComm()
        local = stage_local(comm, shared, tmp_path)
        # corrupt the local copy
        local.path.write_bytes(b"garbage")
        rebuilt = stage_local(comm, shared, tmp_path)
        np.testing.assert_allclose(rebuilt.read_all(), records)

    def test_stale_local_copy_with_wrong_shape_is_rebuilt(self, tmp_path):
        rng = np.random.default_rng(2)
        shared = tmp_path / "s.bin"
        write_records(shared, rng.random((100, 3)))
        comm = SerialComm()
        first = stage_local(comm, shared, tmp_path)
        # shared file replaced by one with more records
        write_records(shared, rng.random((200, 3)))
        second = stage_local(comm, shared, tmp_path)
        assert second.n_records == 200


class TestRecordFileChunkValidation:
    def test_zero_chunk_rejected(self, tmp_path):
        write_records(tmp_path / "r.bin", np.ones((5, 2)))
        rf = RecordFile(tmp_path / "r.bin")
        with pytest.raises(DataError):
            list(rf.iter_chunks(0))
        with pytest.raises(DataError):
            list(rf.iter_chunks(2, start=3, stop=10))


class TestIcgEdges:
    def test_negative_randoms_rejected(self):
        with pytest.raises(ParameterError):
            ICG(seed=1).randoms(-1)

    def test_integers_high_validation(self):
        with pytest.raises(ParameterError):
            ICG(seed=1).integers(5, 0)

    def test_iterator_protocol(self):
        gen = ICG(seed=4)
        it = iter(gen)
        values = [next(it) for _ in range(5)]
        assert all(0 <= v < 1 for v in values)


class TestRunSpmdEdges:
    def test_kwargs_default_not_shared(self):
        # mutating kwargs inside must not leak between calls
        def prog(comm, **kw):
            kw["x"] = comm.rank
            return kw

        a = run_spmd(prog, 1, backend="serial")
        b = run_spmd(prog, 1, backend="serial")
        assert a[0].value == {"x": 0} and b[0].value == {"x": 0}

    def test_process_backend_zero_ranks_rejected(self):
        from repro.parallel.process import run_processes
        with pytest.raises(CommError):
            run_processes(lambda c: None, 0)


class TestCliNewFlags:
    def test_report_maximal_flag(self, tmp_path, one_cluster_dataset,
                                  capsys):
        from repro.cli import main
        path = tmp_path / "d.bin"
        write_records(path, one_cluster_dataset.records)
        rc = main(["run", str(path), "--fine-bins", "200", "--window", "2",
                   "--chunk", "2000", "--report", "maximal"])
        assert rc == 0
        assert "(1, 3, 5, 7)" in capsys.readouterr().out

    def test_tree_collectives_flag(self, tmp_path, one_cluster_dataset,
                                   capsys):
        from repro.cli import main
        path = tmp_path / "d.bin"
        write_records(path, one_cluster_dataset.records)
        rc = main(["run", str(path), "--procs", "2", "--fine-bins", "200",
                   "--window", "2", "--chunk", "2000",
                   "--collectives", "tree"])
        assert rc == 0
        assert "clusters: 1" in capsys.readouterr().out


class TestExportMaximalMode:
    def test_roundtrip_preserves_report_mode(self, one_cluster_dataset,
                                             small_params):
        from repro import mafia
        from repro.core.export import result_from_dict, result_to_dict
        res = mafia(one_cluster_dataset.records,
                    small_params.with_(report="maximal"),
                    domains=DOMAINS_10D)
        back = result_from_dict(result_to_dict(res))
        assert back.params.report == "maximal"
