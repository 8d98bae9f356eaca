"""Parallel pMAFIA tests: serial/parallel equivalence, backend behaviour,
task-parallel paths, file staging (repro.core.{pmafia,mafia})."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro import MachineSpec, MafiaParams, mafia, pmafia
from repro.io import as_source, block_offsets, write_records
from tests.conftest import DOMAINS_10D

# the driver module (``repro.core.pmafia`` the attribute is the function)
pmafia_module = importlib.import_module("repro.core.pmafia")


def clusters_of(result):
    return [(c.subspace.dims, c.units_bins.tolist()) for c in result.clusters]


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("nprocs", [2, 3, 4, 8])
    def test_same_clusters_any_p(self, one_cluster_dataset, small_params,
                                 nprocs):
        serial = mafia(one_cluster_dataset.records, small_params,
                       domains=DOMAINS_10D)
        run = pmafia(one_cluster_dataset.records, nprocs, small_params,
                     domains=DOMAINS_10D)
        assert clusters_of(run.result) == clusters_of(serial)
        assert run.result.cdus_per_level() == serial.cdus_per_level()
        assert run.result.dense_per_level() == serial.dense_per_level()

    def test_task_parallel_path_exercised(self, one_cluster_dataset):
        """With τ=0 every join/dedup/identify goes through the
        task-partitioned branch; results must not change."""
        params = MafiaParams(fine_bins=200, window_size=2,
                             chunk_records=2000, tau=0)
        serial = mafia(one_cluster_dataset.records, params,
                       domains=DOMAINS_10D)
        run = pmafia(one_cluster_dataset.records, 4, params,
                     domains=DOMAINS_10D)
        assert clusters_of(run.result) == clusters_of(serial)

    def test_redundant_path_exercised(self, one_cluster_dataset):
        """With a huge τ all ranks redundantly process everything."""
        params = MafiaParams(fine_bins=200, window_size=2,
                             chunk_records=2000, tau=10**9)
        serial = mafia(one_cluster_dataset.records, params,
                       domains=DOMAINS_10D)
        run = pmafia(one_cluster_dataset.records, 3, params,
                     domains=DOMAINS_10D)
        assert clusters_of(run.result) == clusters_of(serial)

    def test_two_clusters_parallel(self, two_cluster_dataset):
        run = pmafia(two_cluster_dataset.records, 4,
                     MafiaParams(chunk_records=5000), domains=DOMAINS_10D)
        assert sorted(c.subspace.dims for c in run.result.clusters) == [
            (1, 6, 7, 8), (2, 3, 4, 5)]

    def test_p_larger_than_interesting_work(self, one_cluster_dataset,
                                            small_params):
        """More ranks than dense units: blocks go empty but the result
        stands."""
        run = pmafia(one_cluster_dataset.records, 8,
                     small_params.with_(tau=0), domains=DOMAINS_10D)
        assert [c.subspace.dims for c in run.result.clusters] == [(1, 3, 5, 7)]


def _uneven_view(comm, data):
    """Rank 0 owns no records, rank 1 exactly one, and the remaining
    ranks block-split the rest."""
    source = as_source(data)
    rest = block_offsets(source.n_records - 1, comm.size - 2)
    fences = [0, 0] + [1 + f for f in rest]
    return source, fences[comm.rank], fences[comm.rank + 1]


def trace_of(result):
    return [(t.level, t.n_cdus_raw, t.n_cdus, t.n_dense, t.dense.tobytes(),
             t.dense_counts.tobytes()) for t in result.trace]


class TestDegenerateShards:
    """An empty rank and a single-record rank stage a 0- and a 1-record
    bitmap index; the run must still equal serial MAFIA exactly."""

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    @pytest.mark.parametrize("domains", [DOMAINS_10D, None],
                             ids=["given-domains", "scanned-domains"])
    def test_empty_and_single_record_ranks(self, monkeypatch,
                                           one_cluster_dataset,
                                           small_params, backend, domains):
        records = one_cluster_dataset.records
        serial = mafia(records, small_params, domains=domains)
        monkeypatch.setattr(pmafia_module, "_local_view", _uneven_view)
        run = pmafia(records, 4, small_params, backend=backend,
                     domains=domains)
        assert clusters_of(run.result) == clusters_of(serial)
        assert trace_of(run.result) == trace_of(serial)


class TestFileStagedRuns:
    def test_shared_file_staged_to_rank_locals(self, tmp_path,
                                               one_cluster_dataset,
                                               small_params):
        shared = tmp_path / "shared.bin"
        write_records(shared, one_cluster_dataset.records)
        run = pmafia(shared, 3, small_params, domains=DOMAINS_10D)
        assert [c.subspace.dims for c in run.result.clusters] == [(1, 3, 5, 7)]
        # rank-private local copies exist
        for rank in range(3):
            assert (tmp_path / f"shared.rank{rank}.bin").exists()

    def test_file_and_array_agree(self, tmp_path, one_cluster_dataset,
                                  small_params):
        shared = tmp_path / "shared.bin"
        write_records(shared, one_cluster_dataset.records)
        from_file = pmafia(shared, 2, small_params, domains=DOMAINS_10D)
        from_array = pmafia(one_cluster_dataset.records, 2, small_params,
                            domains=DOMAINS_10D)
        assert clusters_of(from_file.result) == clusters_of(from_array.result)


class TestSimBackend:
    def test_sim_matches_thread_results(self, one_cluster_dataset,
                                        small_params):
        thread = pmafia(one_cluster_dataset.records, 4, small_params,
                        domains=DOMAINS_10D)
        sim = pmafia(one_cluster_dataset.records, 4, small_params,
                     backend="sim", domains=DOMAINS_10D)
        assert clusters_of(sim.result) == clusters_of(thread.result)

    def test_sim_times_positive_and_synchronised(self, one_cluster_dataset,
                                                 small_params):
        run = pmafia(one_cluster_dataset.records, 4, small_params,
                     backend="sim", domains=DOMAINS_10D)
        assert run.makespan > 0
        # the final bcast of the result synchronises every clock
        assert max(run.rank_times) - min(run.rank_times) < 0.2 * run.makespan

    def test_sim_is_deterministic(self, one_cluster_dataset, small_params):
        a = pmafia(one_cluster_dataset.records, 4, small_params,
                   backend="sim", domains=DOMAINS_10D)
        b = pmafia(one_cluster_dataset.records, 4, small_params,
                   backend="sim", domains=DOMAINS_10D)
        assert a.rank_times == b.rank_times

    def test_speedup_with_more_ranks(self, two_cluster_dataset):
        """Virtual time must drop with processor count (near-linearly on
        this data-parallel-dominated workload)."""
        params = MafiaParams(chunk_records=2500)
        times = {}
        for p in (1, 2, 4):
            run = pmafia(two_cluster_dataset.records, p, params,
                         backend="sim", domains=DOMAINS_10D)
            times[p] = run.makespan
        assert times[2] < times[1] and times[4] < times[2]
        assert times[1] / times[4] > 2.5  # near-linear, allow overheads

    def test_counters_recorded_per_rank(self, one_cluster_dataset,
                                        small_params):
        run = pmafia(one_cluster_dataset.records, 2, small_params,
                     backend="sim", domains=DOMAINS_10D)
        for counters in run.counters:
            assert counters is not None
            assert counters.record_cell_ops > 0
            assert counters.io_chunks > 0
            assert counters.messages > 0

    def test_custom_machine(self, one_cluster_dataset, small_params):
        slow = MachineSpec(record_cell_op=1e-5)
        fast = MachineSpec(record_cell_op=1e-8)
        t_slow = pmafia(one_cluster_dataset.records, 2, small_params,
                        backend="sim", machine=slow,
                        domains=DOMAINS_10D).makespan
        t_fast = pmafia(one_cluster_dataset.records, 2, small_params,
                        backend="sim", machine=fast,
                        domains=DOMAINS_10D).makespan
        assert t_slow > t_fast


class TestRunMetadata:
    def test_run_records_backend_and_nprocs(self, one_cluster_dataset,
                                            small_params):
        run = pmafia(one_cluster_dataset.records, 2, small_params,
                     domains=DOMAINS_10D)
        assert run.nprocs == 2 and run.backend == "thread"
        assert run.makespan == 0.0  # untimed backend

    def test_single_rank_uses_serial_backend(self, one_cluster_dataset,
                                             small_params):
        run = pmafia(one_cluster_dataset.records, 1, small_params,
                     domains=DOMAINS_10D)
        assert run.backend == "serial"
