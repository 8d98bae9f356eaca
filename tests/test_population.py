"""Tests for the CDU population pass (repro.core.population)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.population import populate_global, populate_local
from repro.core.units import UnitTable
from repro.errors import DataError
from repro.io import ArraySource, block_range
from repro.parallel import SerialComm, run_spmd
from repro.types import DimensionGrid, Grid


def uniform_grid(d, nbins, width=100.0):
    dims = []
    for j in range(d):
        dims.append(DimensionGrid(dim=j, lo=0.0, hi=float(width),
                                  n_fine=nbins, cuts=tuple(range(nbins + 1)),
                                  thresholds=(1.0,) * nbins))
    return Grid(dims=tuple(dims))


def brute_force_counts(records, grid, units):
    idx = grid.locate_records(records)
    counts = np.zeros(units.n_units, dtype=np.int64)
    for i in range(units.n_units):
        mask = np.ones(len(records), dtype=bool)
        for d, b in units.unit(i):
            mask &= idx[:, d] == b
        counts[i] = mask.sum()
    return counts


@pytest.fixture
def records():
    rng = np.random.default_rng(12)
    return rng.random((3000, 5)) * 100.0


class TestPopulateLocal:
    def test_matches_brute_force_level1(self, records):
        grid = uniform_grid(5, 4)
        units = UnitTable.from_pairs(
            [[(d, b)] for d in range(5) for b in range(4)])
        got = populate_local(ArraySource(records), SerialComm(), grid,
                             units, 700)
        np.testing.assert_array_equal(
            got, brute_force_counts(records, grid, units))

    def test_matches_brute_force_multidim(self, records):
        grid = uniform_grid(5, 4)
        rng = np.random.default_rng(3)
        units = []
        for _ in range(40):
            dims = sorted(rng.choice(5, size=3, replace=False).tolist())
            units.append([(d, int(rng.integers(0, 4))) for d in dims])
        table = UnitTable.from_pairs(units).unique()
        got = populate_local(ArraySource(records), SerialComm(), grid,
                             table, 512)
        np.testing.assert_array_equal(
            got, brute_force_counts(records, grid, table))

    def test_level1_counts_sum_to_records_per_dim(self, records):
        grid = uniform_grid(5, 4)
        units = UnitTable.from_pairs([[(0, b)] for b in range(4)])
        got = populate_local(ArraySource(records), SerialComm(), grid,
                             units, 1000)
        assert got.sum() == len(records)

    def test_chunk_size_invariant(self, records):
        grid = uniform_grid(5, 4)
        units = UnitTable.from_pairs([[(0, 0), (1, 1)], [(2, 2), (4, 3)]])
        a = populate_local(ArraySource(records), SerialComm(), grid, units, 37)
        b = populate_local(ArraySource(records), SerialComm(), grid, units,
                           10_000)
        np.testing.assert_array_equal(a, b)

    def test_mixed_subspaces_in_one_table(self, records):
        grid = uniform_grid(5, 4)
        table = UnitTable.from_pairs([
            [(0, 0), (1, 0)], [(0, 0), (2, 0)], [(3, 1), (4, 2)]])
        got = populate_local(ArraySource(records), SerialComm(), grid,
                             table, 900)
        np.testing.assert_array_equal(
            got, brute_force_counts(records, grid, table))

    def test_empty_units(self, records):
        grid = uniform_grid(5, 4)
        got = populate_local(ArraySource(records), SerialComm(), grid,
                             UnitTable.empty(2), 100)
        assert got.size == 0

    def test_unit_beyond_grid_rejected(self, records):
        grid = uniform_grid(5, 4)
        units = UnitTable.from_pairs([[(7, 0)]])
        with pytest.raises(DataError):
            populate_local(ArraySource(records), SerialComm(), grid,
                           units, 100)


class TestPopulateGlobal:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_parallel_sum_equals_serial(self, records, nprocs):
        grid = uniform_grid(5, 4)
        units = UnitTable.from_pairs(
            [[(d, b)] for d in range(5) for b in range(4)])
        serial = populate_global(ArraySource(records), SerialComm(), grid,
                                 units, 700)

        def prog(comm):
            start, stop = block_range(len(records), comm.size, comm.rank)
            return populate_global(ArraySource(records), comm, grid, units,
                                   700, start, stop)

        for r in run_spmd(prog, nprocs):
            np.testing.assert_array_equal(r.value, serial)

    def test_sim_backend_charges_per_cdu_cost(self, records):
        """The virtual clock pays rows x Ncdu x k cells (the paper's
        per-record scan cost), independent of our grouped implementation."""
        grid = uniform_grid(5, 4)
        units = UnitTable.from_pairs([[(0, 0), (1, 1)], [(2, 0), (3, 1)]])

        def prog(comm):
            populate_local(ArraySource(records), comm, grid, units, 1000)
            return comm.counters.record_cell_ops

        [r] = run_spmd(prog, 1, backend="sim")
        assert r.value == len(records) * units.n_units * units.level


class TestOverflowFallback:
    """Subspaces with more cells than an int64 key can number, checked
    against the brute-force recount."""

    def test_huge_radix_product_uses_row_matching(self):
        """A subspace with > 2^62 possible cells (too many for an int64
        mixed-radix key) still counts exactly."""
        d = 9
        nbins = 200
        grid = uniform_grid(d, nbins)
        rng = np.random.default_rng(8)
        records = rng.random((500, d)) * 100.0
        dims = list(range(d))
        units = UnitTable.from_pairs([
            [(j, int(rng.integers(0, nbins))) for j in dims]
            for _ in range(5)])
        got = populate_local(ArraySource(records), SerialComm(), grid,
                             units, 100)
        np.testing.assert_array_equal(
            got, brute_force_counts(records, grid, units))

    def test_overflow_with_guaranteed_hits(self):
        d = 9
        nbins = 200
        grid = uniform_grid(d, nbins)
        # all records in the first cell of every dimension
        records = np.full((50, d), 0.1)
        units = UnitTable.from_pairs([[(j, 0) for j in range(d)]])
        got = populate_local(ArraySource(records), SerialComm(), grid,
                             units, 25)
        assert got.tolist() == [50]
