"""Tests for the multi-process SPMD backend (repro.parallel.process).

Kept small: each test forks real OS processes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MafiaParams, mafia, pmafia
from repro.errors import CommError
from repro.parallel import run_spmd
from tests.conftest import DOMAINS_10D

# module-level so they pickle for the child processes


def _echo_rank(comm):
    return comm.rank


def _ring(comm):
    nxt = (comm.rank + 1) % comm.size
    prev = (comm.rank - 1) % comm.size
    comm.send(comm.rank * 2, nxt, tag=5)
    return comm.recv(prev, tag=5)


def _collectives(comm):
    total = comm.allreduce(np.array([comm.rank + 1]), op="sum")
    gathered = comm.allgather(comm.rank ** 2)
    root_pick = comm.bcast("hello" if comm.rank == 1 else None, root=1)
    return int(total[0]), gathered, root_pick


def _crash_on_rank_one(comm):
    if comm.rank == 1:
        raise ValueError("child exploded")
    return comm.rank


class TestProcessBackend:
    def test_rank_results_in_order(self):
        results = run_spmd(_echo_rank, 3, backend="process")
        assert [r.value for r in results] == [0, 1, 2]

    def test_point_to_point_ring(self):
        results = run_spmd(_ring, 4, backend="process")
        assert [r.value for r in results] == [6, 0, 2, 4]

    def test_collectives(self):
        results = run_spmd(_collectives, 3, backend="process")
        for total, gathered, root_pick in (r.value for r in results):
            assert total == 6
            assert gathered == [0, 1, 4]
            assert root_pick == "hello"

    def test_tree_collectives(self):
        results = run_spmd(_collectives, 4, backend="process",
                           collectives="tree")
        for total, gathered, root_pick in (r.value for r in results):
            assert total == 10
            assert gathered == [0, 1, 4, 9]

    def test_child_crash_propagates(self):
        with pytest.raises(CommError, match="child exploded"):
            run_spmd(_crash_on_rank_one, 3, backend="process")

    def test_pmafia_process_backend_matches_serial(self, one_cluster_dataset,
                                                   small_params):
        serial = mafia(one_cluster_dataset.records, small_params,
                       domains=DOMAINS_10D)
        run = pmafia(one_cluster_dataset.records, 2, small_params,
                     backend="process", domains=DOMAINS_10D)
        assert [c.describe() for c in run.result.clusters] == \
            [c.describe() for c in serial.clusters]
        assert run.result.dense_per_level() == serial.dense_per_level()

    def test_pmafia_process_backend_from_file(self, tmp_path,
                                              one_cluster_dataset,
                                              small_params):
        """The recommended large-data path: pass a record-file path so
        ranks stage blocks from disk instead of pickling the array."""
        from repro.io import write_records
        shared = tmp_path / "shared.bin"
        write_records(shared, one_cluster_dataset.records)
        run = pmafia(shared, 2, small_params, domains=DOMAINS_10D)
        proc = pmafia(shared, 2, small_params, backend="process",
                      domains=DOMAINS_10D)
        assert [c.describe() for c in proc.result.clusters] == \
            [c.describe() for c in run.result.clusters]

def _crash_on(comm, crasher):
    if comm.rank == crasher:
        raise RuntimeError(f"rank {crasher} exploded")
    comm.allreduce(np.zeros(2))
    return comm.rank


def _silent_peer(comm):
    if comm.rank == 1:
        return comm.recv(0, tag=8)  # rank 0 never sends
    return None


class TestProcessFailures:
    @pytest.mark.parametrize("crasher", [0, 1, 2])
    def test_any_rank_crash_aborts_run(self, crasher):
        """A crash on any child process surfaces as CommError on the
        parent instead of hanging the surviving ranks."""
        import time
        start = time.monotonic()
        with pytest.raises(CommError,
                           match=f"rank {crasher} exploded"):
            run_spmd(_crash_on, 3, backend="process",
                     args=(crasher,))
        assert time.monotonic() - start < 60

    def test_recv_timeout_raises_typed_error(self):
        from repro.errors import CommTimeoutError
        with pytest.raises(CommTimeoutError, match="timed out receiving"):
            run_spmd(_silent_peer, 2, backend="process", recv_timeout=1.0)


class TestProcessBackendZeroCopy:
    @pytest.mark.slow
    def test_large_allreduce_ships_no_pickled_arrays(self):
        from repro.parallel.process import run_processes

        def rankfn(comm):
            histogram = np.full(200_000, comm.rank + 1, dtype=np.int64)
            total = comm.allreduce(histogram, op="sum")   # 1.6 MB payload
            assert int(total[0]) == sum(range(1, comm.size + 1))
            comm.strategy = "tree"
            total2 = comm.allreduce(histogram, op="sum")
            assert np.array_equal(total, total2)
            return comm.serialized_arrays

        assert run_processes(rankfn, 3) == [0, 0, 0]
