"""The persistent bitmap index and the prefix-AND population engine.

The load-bearing property: a population pass served from a
:class:`~repro.io.bitmap_index.BitmapIndex` — resident or spilled, at
any row width and popcount batch size, and on every backend — produces
exactly the counts of a brute-force recount, and clusters and simulated
virtual times that do not depend on where the index lives.  The index
is a pure cache; any observable difference is a bug.  A pass runs in
fixed memory and keeps nothing between passes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_result
from repro.core.mafia import mafia, pmafia, pmafia_resumable
from repro.core import population
from repro.core.population import (IndexedPopulator, count_units,
                                   populate_global, populate_local)
from repro.core.units import UnitTable
from repro.datagen import ClusterSpec, generate
from repro.errors import (ChecksumError, DataError, GridError,
                          RecordFileError)
from repro.io import ArraySource, write_records
from repro.io.bitmap_index import (BitmapIndex, bitmap_cache_path,
                                   build_bitmap_index, edges_fingerprint,
                                   grid_fingerprint, index_nbytes,
                                   load_bitmap_cache, stage_bitmap_index)
from repro.parallel import SerialComm
from repro.params import MafiaParams
from repro.types import DimensionGrid, Grid
from tests.conftest import DOMAINS_10D
from tests.test_population import brute_force_counts

PARAMS = MafiaParams(fine_bins=100, window_size=2, chunk_records=1000)


def uniform_grid(d: int, nbins: int) -> Grid:
    dims = []
    for j in range(d):
        dims.append(DimensionGrid(dim=j, lo=0.0, hi=100.0, n_fine=nbins,
                                  cuts=tuple(range(nbins + 1)),
                                  thresholds=(1.0,) * nbins))
    return Grid(dims=tuple(dims))


def random_units(rng, d: int, nbins: int, level: int,
                 n_units: int) -> UnitTable:
    units = []
    for _ in range(n_units):
        dims = sorted(rng.choice(d, size=level, replace=False).tolist())
        units.append([(dim, int(rng.integers(0, nbins))) for dim in dims])
    return UnitTable.from_pairs(units).unique()


def cluster_signature(result):
    return [
        (tuple(c.subspace.dims), c.units_bins.tolist(), c.point_count)
        for c in result.clusters
    ]


def expected_bitmap(records, grid, dim, bin_):
    return np.packbits(grid.locate_records(records)[:, dim] == bin_)


def make_populator(source, grid, chunk=64, *, budget=1 << 24, comm=None):
    index = stage_bitmap_index(source, comm or SerialComm(), grid, chunk,
                               budget=budget)
    return IndexedPopulator(index)


class TestIndexFormat:
    def test_resident_round_trip(self):
        rng = np.random.default_rng(0)
        records = rng.random((500, 4)) * 100.0
        grid = uniform_grid(4, 7)
        index = build_bitmap_index(ArraySource(records), grid, 128)
        assert index.resident
        assert index.n_records == 500
        assert index.n_pairs == 4 * 7
        assert index.row_bytes == -(-500 // 8)
        for dim in range(4):
            for b in range(7):
                assert np.array_equal(index.bitmap(index.pair_id(dim, b)),
                                      expected_bitmap(records, grid, dim, b))

    def test_disk_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        records = rng.random((777, 3)) * 100.0
        grid = uniform_grid(3, 9)
        path = tmp_path / "data.bmx"
        built = build_bitmap_index(ArraySource(records), grid, 100,
                                   path=path)
        assert not built.resident
        reopened = BitmapIndex.open(path, expected_key=built.key)
        for index in (built, reopened):
            for dim in range(3):
                for b in range(9):
                    assert np.array_equal(
                        index.bitmap(index.pair_id(dim, b)),
                        expected_bitmap(records, grid, dim, b))

    def test_grid_fingerprint_sensitivity(self):
        a = uniform_grid(3, 5)
        b = uniform_grid(3, 6)
        assert grid_fingerprint(a) == grid_fingerprint(uniform_grid(3, 5))
        assert grid_fingerprint(a) != grid_fingerprint(b)
        # equal edges over another fine grid: membership follows the fine
        # codes, so the key must tell the two apart
        coarse = Grid((DimensionGrid(0, 0.0, 10.0, 10, (0, 5, 10),
                                     (1.0, 1.0)),))
        finer = Grid((DimensionGrid(0, 0.0, 10.0, 20, (0, 10, 20),
                                    (1.0, 1.0)),))
        assert coarse[0].edges == finer[0].edges
        assert edges_fingerprint(coarse) != edges_fingerprint(finer)
        assert grid_fingerprint(coarse) != grid_fingerprint(finer)

    def test_crc_detects_corruption(self, tmp_path):
        rng = np.random.default_rng(3)
        records = rng.random((400, 3)) * 100.0
        grid = uniform_grid(3, 5)
        path = tmp_path / "corrupt.bmx"
        build_bitmap_index(ArraySource(records), grid, 100, path=path)
        index = BitmapIndex.open(path)
        raw = bytearray(path.read_bytes())
        raw[index._data_offset + 3] ^= 0xFF    # flip a bit in pair 0's tile
        path.write_bytes(bytes(raw))
        corrupted = BitmapIndex.open(path)
        with pytest.raises(ChecksumError):
            corrupted.bitmap(0)
        # other tiles still verify
        assert corrupted.bitmap(1) is not None

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        records = rng.random((100, 2)) * 100.0
        grid = uniform_grid(2, 5)
        path = tmp_path / "trunc.bmx"
        build_bitmap_index(ArraySource(records), grid, 50, path=path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(RecordFileError):
            BitmapIndex.open(path)

    def test_grid_hash_mismatch_is_stale(self, tmp_path):
        rng = np.random.default_rng(5)
        records = rng.random((100, 2)) * 100.0
        grid = uniform_grid(2, 5)
        other = uniform_grid(2, 6)
        path = tmp_path / "stale.bmx"
        digest = b"\x05" * 32
        build_bitmap_index(ArraySource(records), grid, 50, path=path,
                           records_digest=digest)
        with pytest.raises(RecordFileError, match="stale"):
            BitmapIndex.open(path,
                             expected_key=edges_fingerprint(other) + digest)
        # the cache loader invalidates instead of raising
        assert load_bitmap_cache(path, other, digest) is None
        assert load_bitmap_cache(path, grid, b"\x06" * 32) is None
        assert load_bitmap_cache(path, grid, digest) is not None

    def test_empty_record_range(self):
        grid = uniform_grid(3, 4)
        records = np.zeros((10, 3))
        index = build_bitmap_index(ArraySource(records), grid, 8,
                                   start=5, stop=5)
        assert index.n_records == 0 and index.row_bytes == 0
        assert index.bitmap(0).shape == (0,)

    def test_validation_errors(self):
        rng = np.random.default_rng(6)
        records = rng.random((64, 2)) * 100.0
        grid = uniform_grid(2, 4)
        index = build_bitmap_index(ArraySource(records), grid, 32)
        with pytest.raises(DataError):
            index.bitmap(index.n_pairs)
        with pytest.raises(DataError):
            index.pair_id(2, 0)
        with pytest.raises(DataError):
            index.pair_id(0, 4)
        units = UnitTable.from_pairs([[(0, 1), (1, 3)]])
        assert index.pair_ids(units.dims, units.bins).tolist() == [[1, 7]]
        bad = UnitTable.from_pairs([[(0, 1), (1, 5)]])  # bin 5 of 4
        with pytest.raises(DataError):
            index.pair_ids(bad.dims, bad.bins)
        with pytest.raises(DataError):     # records narrower than grid
            build_bitmap_index(ArraySource(records[:, :1]), grid, 32)
        with pytest.raises(DataError):
            build_bitmap_index(ArraySource(records), grid, 0)
        with pytest.raises(GridError):     # byte bins: at most 256
            uniform_grid(2, 300)
        with pytest.raises(DataError):
            build_bitmap_index(ArraySource(records), grid, 32, 10, 65)

    def test_resident_bitmaps_are_read_only(self):
        rng = np.random.default_rng(7)
        records = rng.random((64, 2)) * 100.0
        grid = uniform_grid(2, 4)
        index = build_bitmap_index(ArraySource(records), grid, 32)
        with pytest.raises(ValueError):
            index.bitmap(0)[0] = 0xFF


class TestSpillPolicy:
    def test_auto_respects_budget(self, tmp_path):
        rng = np.random.default_rng(8)
        records = rng.random((2000, 3)) * 100.0
        grid = uniform_grid(3, 6)
        source = ArraySource(records)
        comm = SerialComm()
        nbytes = index_nbytes(grid, 2000)
        resident = stage_bitmap_index(source, comm, grid, 256,
                                      budget=nbytes)
        assert resident.resident
        spilled = stage_bitmap_index(source, comm, grid, 256,
                                     budget=nbytes - 1)
        assert not spilled.resident
        assert spilled.path is not None and spilled.path.exists()
        for p in range(resident.n_pairs):
            assert np.array_equal(resident.bitmap(p), spilled.bitmap(p))

    def test_record_file_sibling_cache_reused(self, tmp_path):
        rng = np.random.default_rng(10)
        records = rng.random((300, 3)) * 100.0
        grid = uniform_grid(3, 5)
        shared = tmp_path / "data.bin"
        write_records(shared, records)
        from repro.io.records import RecordFile
        source = RecordFile(shared)
        comm = SerialComm()
        first = stage_bitmap_index(source, comm, grid, 64, budget=1)
        cache = bitmap_cache_path(shared)
        assert first.path == cache and cache.exists()
        mtime = cache.stat().st_mtime_ns
        again = stage_bitmap_index(source, comm, grid, 64, budget=1)
        assert cache.stat().st_mtime_ns == mtime   # reused, not rebuilt
        for p in range(first.n_pairs):
            assert np.array_equal(first.bitmap(p), again.bitmap(p))
        # a stale cache (different grid) is rebuilt in place
        other = uniform_grid(3, 6)
        rebuilt = stage_bitmap_index(source, comm, other, 64, budget=1)
        assert rebuilt.nbins == (6, 6, 6)
        assert cache.stat().st_mtime_ns != mtime

    def test_record_file_slices_spill_apart(self, tmp_path):
        """Two ranks reading equal-sized slices of one shared record
        file must not share its sibling cache: the second slice's index
        holds its own records, not the first slice's."""
        rng = np.random.default_rng(11)
        records = rng.random((300, 3)) * 100.0
        grid = uniform_grid(3, 5)
        shared = tmp_path / "data.bin"
        write_records(shared, records)
        from repro.io.records import RecordFile
        source = RecordFile(shared)
        units = random_units(rng, 3, 5, 2, 12)
        for start, stop in ((0, 150), (150, 300)):
            spilled = stage_bitmap_index(source, SerialComm(), grid, 64,
                                         start, stop, budget=1)
            assert not spilled.resident
            resident = build_bitmap_index(source, grid, 64, start, stop)
            assert np.array_equal(count_units(spilled, units),
                                  count_units(resident, units))
        assert not bitmap_cache_path(shared).exists()

    def test_threaded_ranks_over_one_record_file_spill_apart(
            self, tmp_path, one_cluster_dataset, small_params):
        """Both thread ranks slice the same record file; with a spilled
        index each must build its own file instead of racing on one
        shared ``.bmx``."""
        from repro.io.records import RecordFile
        records = one_cluster_dataset.records
        shared = tmp_path / "data.bin"
        write_records(shared, records)
        resident = mafia(records, small_params, domains=DOMAINS_10D)
        run = pmafia(RecordFile(shared), 2,
                     small_params.with_(bitmap_budget=1),
                     domains=DOMAINS_10D)
        assert cluster_signature(run.result) == cluster_signature(resident)
        assert ([lvl.dense_counts.tolist() for lvl in run.result.trace]
                == [lvl.dense_counts.tolist() for lvl in resident.trace])
        assert verify_result(run.result, records).ok
        assert not bitmap_cache_path(shared).exists()

    def test_full_run_spill_budget_respected(self, one_cluster_dataset,
                                             small_params):
        records = one_cluster_dataset.records
        baseline = mafia(records, small_params, domains=DOMAINS_10D)
        # one byte of budget: the index must spill, yet the result is
        # unchanged and recounts clean
        spilled = mafia(records, small_params.with_(bitmap_budget=1),
                        domains=DOMAINS_10D)
        assert cluster_signature(spilled) == cluster_signature(baseline)
        assert verify_result(spilled, records).ok

    def test_spilled_run_reuses_sibling_cache(self, tmp_path,
                                              one_cluster_dataset,
                                              small_params):
        """A spilled index over a staged record file lands beside it
        and is reused, not rebuilt, by the next run."""
        shared = tmp_path / "data.bin"
        write_records(shared, one_cluster_dataset.records)
        params = small_params.with_(bitmap_budget=1)
        first = mafia(str(shared), params, domains=DOMAINS_10D)
        cache = bitmap_cache_path(tmp_path / "data.rank0.bin")
        assert cache.exists()
        mtime = cache.stat().st_mtime_ns
        second = mafia(str(shared), params, domains=DOMAINS_10D)
        assert cache.stat().st_mtime_ns == mtime   # reused, not rebuilt
        resident = mafia(str(shared), small_params, domains=DOMAINS_10D)
        assert (cluster_signature(first) == cluster_signature(second)
                == cluster_signature(resident))


class TestIndexedCountsIdentical:
    """The indexed engine against :func:`brute_force_counts`, on the
    inputs that used to pick between population engines (tiny and
    byte-unaligned chunks, radix products past ``2**62``, wide unit
    tables) — one engine must count them all exactly."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_indexed_matches_brute_force(self, data):
        d = data.draw(st.integers(2, 5))
        nbins = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(1, 300))
        level = data.draw(st.integers(1, min(3, d)))
        chunk = data.draw(st.integers(1, 128))
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        records = rng.random((n, d)) * 100.0
        grid = uniform_grid(d, nbins)
        units = random_units(rng, d, nbins, level,
                             data.draw(st.integers(1, 20)))
        source = ArraySource(records)
        comm = SerialComm()
        ref = brute_force_counts(records, grid, units)
        # a per-call staged index, then a run-long populator passed
        # twice over the same units (identical, not additive)
        assert np.array_equal(
            populate_local(source, comm, grid, units, chunk), ref)
        pop = make_populator(source, grid, chunk)
        for _ in range(2):
            assert np.array_equal(
                populate_local(source, comm, grid, units, chunk,
                               indexed=pop), ref)
        assert np.array_equal(count_units(pop.index, units), ref)

    def test_mixed_radix_overflow_path_matches(self):
        """d=9 x 200 bins: a mixed-radix key over the subspace would
        overflow int64; the index has no keys and must still match the
        brute-force recount bit for bit."""
        rng = np.random.default_rng(11)
        d, nbins, n = 9, 200, 400
        records = rng.random((n, d)) * 100.0
        grid = uniform_grid(d, nbins)
        # force matched records so counts are non-trivial
        bins = grid.locate_records(records[:50])
        units = UnitTable.from_pairs(
            [[(dim, int(bins[i, dim])) for dim in range(d)]
             for i in range(10)]).unique()
        source = ArraySource(records)
        comm = SerialComm()
        ref = brute_force_counts(records, grid, units)
        assert int(ref.sum()) > 0
        assert np.array_equal(
            populate_local(source, comm, grid, units, 64,
                           indexed=make_populator(source, grid, 64)), ref)

    def test_empty_chunk_edge(self):
        """A chunk size larger than the record count (single partial
        chunk) and a single-record index both count correctly."""
        rng = np.random.default_rng(12)
        grid = uniform_grid(3, 4)
        comm = SerialComm()
        for n in (1, 5, 8, 9):
            records = rng.random((n, 3)) * 100.0
            source = ArraySource(records)
            units = random_units(rng, 3, 4, 2, 8)
            assert np.array_equal(
                populate_local(source, comm, grid, units, 1000,
                               indexed=make_populator(source, grid, 1000)),
                brute_force_counts(records, grid, units))

    def test_many_units_match_brute_force(self):
        """200 level-3 units over 3000 records: shared prefixes, and a
        second pass that counts exactly like the first."""
        rng = np.random.default_rng(13)
        records = rng.random((3000, 5)) * 100.0
        grid = uniform_grid(5, 6)
        units = random_units(rng, 5, 6, 3, 200)
        source = ArraySource(records)
        comm = SerialComm()
        ref = brute_force_counts(records, grid, units)
        pop = make_populator(source, grid, 512)
        for _ in range(2):
            assert np.array_equal(
                populate_local(source, comm, grid, units, 512,
                               indexed=pop), ref)

    @pytest.mark.parametrize("batch_rows", [None, 1, 3],
                             ids=["default-batch", "one-row-batch",
                                  "three-row-batch"])
    @pytest.mark.parametrize("spilled", [False, True],
                             ids=["resident", "spilled"])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 127, 1000,
                                   4097])
    def test_awkward_widths_match_brute_force(self, tmp_path, monkeypatch,
                                              n, spilled, batch_rows):
        """Row widths around every byte and 8-byte boundary (the
        popcount batch pads rows to whole ``uint64`` words), empty and
        single-record shards, levels 1-4, and batches that flush after
        every leaf or leave a partial batch at the end of the pass."""
        if batch_rows is not None:
            padded_row = -(-n // 64) * 8
            monkeypatch.setattr(population, "_BATCH_BYTES",
                                batch_rows * padded_row)
        rng = np.random.default_rng(n)
        records = rng.random((n, 5)) * 100.0
        grid = uniform_grid(5, 3)
        path = tmp_path / "index.bmx" if spilled else None
        index = build_bitmap_index(ArraySource(records), grid, 64,
                                   path=path)
        assert index.resident == (path is None or n == 0)
        for level in (1, 2, 3, 4):
            units = random_units(rng, 5, 3, level, 40)
            assert np.array_equal(count_units(index, units),
                                  brute_force_counts(records, grid, units))

    def test_pass_memory_is_fixed(self):
        """A run-long populator holds no array between passes, and a
        pass peaks at the popcount batch, its per-word popcounts and a
        few row widths however many CDUs it counts."""
        rng = np.random.default_rng(14)
        n = 200_000
        records = rng.random((n, 8)) * 100.0
        grid = uniform_grid(8, 10)
        source = ArraySource(records)
        comm = SerialComm()
        pop = make_populator(source, grid, 50_000)
        del records, source
        row_bytes = -(-n // 8)
        tables = [random_units(rng, 8, 10, level, 1500)
                  for level in (2, 3, 4) for _ in range(2)]
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

        def array_bytes() -> int:
            snap = tracemalloc.take_snapshot().filter_traces(arrays)
            return sum(trace.size for trace in snap.traces)

        tracemalloc.start()
        try:
            for units in tables:
                held = array_bytes()
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                pop.populate_local(comm, grid, units, 50_000)
                peak = tracemalloc.get_traced_memory()[1]
                assert array_bytes() == held
                assert peak - before <= population._BATCH_BYTES * 9 // 8 \
                    + 10 * row_bytes
        finally:
            tracemalloc.stop()

    def test_stale_grid_rejected(self):
        rng = np.random.default_rng(15)
        records = rng.random((100, 3)) * 100.0
        grid = uniform_grid(3, 4)
        units = random_units(rng, 3, 4, 2, 5)
        source = ArraySource(records)
        pop = make_populator(source, grid, 64)
        with pytest.raises(DataError):
            populate_local(source, SerialComm(), uniform_grid(3, 5),
                           units, 64, indexed=pop)

    def test_block_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        records = rng.random((100, 3)) * 100.0
        grid = uniform_grid(3, 4)
        units = random_units(rng, 3, 4, 2, 5)
        source = ArraySource(records)
        index = build_bitmap_index(source, grid, 64, 0, 60)
        with pytest.raises(DataError):
            populate_local(source, SerialComm(), grid, units, 64,
                           indexed=IndexedPopulator(index))


@st.composite
def workloads(draw):
    n_dims = draw(st.integers(3, 6))
    n_clusters = draw(st.integers(0, 2))
    specs = []
    for _ in range(n_clusters):
        k = draw(st.integers(1, min(3, n_dims)))
        dims = draw(st.lists(st.integers(0, n_dims - 1), min_size=k,
                             max_size=k, unique=True))
        extents = []
        for _ in dims:
            lo = draw(st.integers(5, 70))
            width = draw(st.integers(8, 20))
            extents.append((float(lo), float(lo + width)))
        specs.append(ClusterSpec.box(sorted(dims), extents))
    n_records = draw(st.integers(1500, 4000))
    noise = draw(st.floats(0.0, 0.3))
    seed = draw(st.integers(0, 10_000))
    return generate(n_records, n_dims, specs, noise_fraction=noise,
                    seed=seed)


def _signature(result):
    """Everything that must be bit-identical between indexed and
    streaming runs: lattice counts, dense unit tables, clusters."""
    sig = [result.cdus_per_level(), result.dense_per_level()]
    for t in result.trace:
        sig.append(t.dense.dims.tobytes())
        sig.append(t.dense.bins.tobytes())
        sig.append(t.dense_counts.tobytes())
    for c in result.clusters:
        sig.append((c.subspace.dims, c.units_bins.tolist(),
                    c.point_count, c.dnf))
    return sig


class TestConformanceProperty:
    """Hypothesis sweep mirroring ``tests/test_observability.py``: where
    the index lives must be invisible in results and virtual times on
    every backend, and the results must recount clean."""

    @given(workloads())
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_indexed_runs_bit_identical(self, dataset):
        domains = np.array([[0.0, 100.0]] * dataset.n_dims)
        baseline = mafia(dataset.records, PARAMS, domains=domains)
        assert verify_result(baseline, dataset.records).ok
        spilled = mafia(dataset.records, PARAMS.with_(bitmap_budget=1),
                        domains=domains)
        assert _signature(spilled) == _signature(baseline)
        threaded = pmafia(dataset.records, 2, PARAMS, domains=domains)
        assert _signature(threaded.result) == _signature(baseline)

    @given(workloads())
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_sim_virtual_times_bit_identical(self, dataset):
        domains = np.array([[0.0, 100.0]] * dataset.n_dims)
        resident = pmafia(dataset.records, 2, PARAMS, backend="sim",
                          domains=domains)
        spilled = pmafia(dataset.records, 2,
                         PARAMS.with_(bitmap_budget=1),
                         backend="sim", domains=domains)
        assert spilled.rank_times == resident.rank_times
        assert spilled.makespan == resident.makespan
        assert _signature(spilled.result) == _signature(resident.result)

    def test_process_backend_bit_identical(self, one_cluster_dataset):
        baseline = mafia(one_cluster_dataset.records, PARAMS,
                         domains=DOMAINS_10D)
        indexed = pmafia(one_cluster_dataset.records, 2, PARAMS,
                         backend="process", domains=DOMAINS_10D)
        assert _signature(indexed.result) == _signature(baseline)

    def test_resume_crosses_index_policy(self, tmp_path,
                                         one_cluster_dataset,
                                         small_params):
        """A checkpointed run may resume under a different
        ``bitmap_budget`` — residency is an engine detail, not an
        algorithm parameter."""
        records = one_cluster_dataset.records
        ckpt = tmp_path / "ckpt"
        baseline = mafia(records, small_params, domains=DOMAINS_10D)
        pmafia_resumable(records, 1, small_params.with_(bitmap_budget=1),
                         checkpoint_dir=ckpt, resume=False,
                         domains=DOMAINS_10D)
        resumed = pmafia_resumable(
            records, 1, small_params.with_(bitmap_budget=1 << 20),
            checkpoint_dir=ckpt, resume=True, domains=DOMAINS_10D)
        assert (cluster_signature(resumed.result)
                == cluster_signature(baseline))
        assert all(np.array_equal(a.dense_counts, b.dense_counts)
                   for a, b in zip(resumed.result.trace, baseline.trace))

    def test_index_metrics_exported(self, one_cluster_dataset,
                                    small_params):
        result = mafia(one_cluster_dataset.records,
                       small_params.with_(metrics=True),
                       domains=DOMAINS_10D)
        m = result.obs.metrics
        assert m["index.pairs"]["value"] > 0
        assert m["index.resident"]["value"] == 1
        assert m["index.units_counted"]["value"] == \
            sum(t.n_cdus for t in result.trace)
        assert m["index.and_ops"]["value"] > 0
