"""Tests for repeat elimination, dense identification and the
equation-(1) task partition (repro.core.{dedup,identify,partition})."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dedup import drop_repeats, repeat_flags_block
from repro.core.identify import (dense_flags_block, dense_units,
                                 unit_thresholds)
from repro.core.partition import (even_splits, prefix_work, row_work,
                                  split_range, triangular_splits)
from repro.core.units import UnitTable
from repro.errors import DataError, ParameterError
from repro.types import DimensionGrid, Grid


def table(*units):
    return UnitTable.from_pairs(list(units))


class TestDedup:
    def test_blockwise_flags_or_to_full_mask(self):
        t = table([(0, 1)], [(1, 1)], [(0, 1)], [(1, 1)], [(0, 1)])
        full = t.repeat_mask()
        merged = np.zeros(t.n_units, dtype=bool)
        offsets = triangular_splits(t.n_units, 3)
        for i in range(3):
            merged |= repeat_flags_block(t, offsets[i], offsets[i + 1])
        np.testing.assert_array_equal(merged, full)

    def test_first_occurrence_survives(self):
        t = table([(1, 1)], [(0, 0)], [(1, 1)])
        u = drop_repeats(t, t.repeat_mask())
        assert list(u) == [((1, 1),), ((0, 0),)]

    def test_no_repeats_is_identity(self):
        t = table([(0, 0)], [(1, 1)])
        assert drop_repeats(t, t.repeat_mask()) == t

    def test_mask_shape_checked(self):
        t = table([(0, 0)])
        with pytest.raises(DataError):
            drop_repeats(t, np.array([True, False]))

    def test_block_bounds_checked(self):
        with pytest.raises(DataError):
            repeat_flags_block(table([(0, 0)]), 0, 5)


def make_grid():
    """2-d grid: dim 0 has bins with thresholds (10, 50); dim 1 (30,)."""
    return Grid(dims=(
        DimensionGrid(dim=0, lo=0.0, hi=2.0, n_fine=2, cuts=(0, 1, 2),
                      thresholds=(10.0, 50.0)),
        DimensionGrid(dim=1, lo=0.0, hi=5.0, n_fine=1, cuts=(0, 1),
                      thresholds=(30.0,)),
    ))


class TestIdentify:
    def test_threshold_is_max_of_bins(self):
        """§4.4: a CDU's count is compared against the thresholds of ALL
        its bins — i.e. it must exceed their maximum."""
        grid = make_grid()
        units = table([(0, 0), (1, 0)], [(0, 1), (1, 0)])
        thr = unit_thresholds(grid, units)
        np.testing.assert_allclose(thr, [30.0, 50.0])

    def test_dense_is_strictly_greater(self):
        grid = make_grid()
        units = table([(0, 0)], [(0, 1)])
        thr = unit_thresholds(grid, units)
        flags = dense_flags_block(np.array([10, 51]), thr)
        assert flags.tolist() == [False, True]

    def test_min_points_filter(self):
        grid = make_grid()
        units = table([(0, 0)], [(0, 0)])
        thr = unit_thresholds(grid, units)
        flags = dense_flags_block(np.array([20, 20]), thr, min_points=21)
        assert not flags.any()

    def test_blockwise_flags_or_correctly(self):
        grid = make_grid()
        units = table([(0, 0)], [(0, 1)], [(1, 0)], [(0, 0)])
        thr = unit_thresholds(grid, units)
        counts = np.array([100, 100, 100, 5])
        full = dense_flags_block(counts, thr)
        merged = np.zeros(4, dtype=bool)
        offsets = even_splits(4, 2)
        for i in range(2):
            merged |= dense_flags_block(counts, thr, offsets[i],
                                        offsets[i + 1])
        np.testing.assert_array_equal(merged, full)

    def test_dense_units_subsets(self):
        units = table([(0, 0)], [(0, 1)], [(1, 0)])
        counts = np.array([5, 100, 7])
        mask = np.array([False, True, False])
        sub, sub_counts = dense_units(units, counts, mask)
        assert list(sub) == [((0, 1),)]
        assert sub_counts.tolist() == [100]

    def test_unknown_dims_or_bins_rejected(self):
        grid = make_grid()
        with pytest.raises(DataError):
            unit_thresholds(grid, table([(2, 0)]))
        with pytest.raises(DataError):
            unit_thresholds(grid, table([(1, 1)]))

    def test_empty_table(self):
        assert unit_thresholds(make_grid(), UnitTable.empty(1)).size == 0


class TestTriangularPartition:
    def test_row_and_prefix_work(self):
        assert row_work(10, 0) == 10 and row_work(10, 9) == 1
        assert prefix_work(10, 10) == 55
        assert prefix_work(10, 0) == 0
        assert prefix_work(10, 3) == 10 + 9 + 8

    def test_offsets_monotone_and_cover(self):
        for n in (0, 1, 7, 100, 1000):
            for p in (1, 2, 4, 16):
                offsets = triangular_splits(n, p)
                assert offsets[0] == 0 and offsets[-1] == n
                assert all(a <= b for a, b in zip(offsets, offsets[1:]))

    def test_work_balanced_within_one_row(self):
        """Equation (1): every rank's work is Ndu(Ndu+1)/2p up to the
        granularity of a single row."""
        n, p = 1000, 8
        offsets = triangular_splits(n, p)
        ideal = n * (n + 1) / (2 * p)
        for i in range(p):
            work = prefix_work(n, offsets[i + 1]) - prefix_work(n, offsets[i])
            assert abs(work - ideal) <= n  # one row's worth of slack

    def test_first_rank_gets_fewest_rows(self):
        """Early rows carry more comparisons, so rank 0's row range must
        be the smallest."""
        offsets = triangular_splits(1000, 4)
        sizes = np.diff(offsets)
        assert sizes[0] < sizes[-1]

    def test_split_range(self):
        assert split_range(100, 4, 0)[0] == 0
        assert split_range(100, 4, 3)[1] == 100

    def test_even_splits(self):
        assert even_splits(10, 3) == [0, 4, 7, 10]
        assert even_splits(0, 3) == [0, 0, 0, 0]

    def test_validation(self):
        with pytest.raises(ParameterError):
            triangular_splits(-1, 2)
        with pytest.raises(ParameterError):
            triangular_splits(10, 0)
        with pytest.raises(ParameterError):
            row_work(5, 5)
        with pytest.raises(ParameterError):
            split_range(10, 2, 2)


class TestSplitProperties:
    """Property-based invariants for equation (1)'s fences: every output
    must be a valid fence-post vector (monotone, spanning [0, n]) and
    balance the triangular work to within one row's worth."""

    hyp = pytest.importorskip("hypothesis")

    from hypothesis import given, settings
    from hypothesis import strategies as st

    ranks_st = st.integers(min_value=1, max_value=32)

    @staticmethod
    def _check_fences(offsets, n, n_ranks):
        assert len(offsets) == n_ranks + 1
        assert offsets[0] == 0 and offsets[-1] == n
        assert all(a <= b for a, b in zip(offsets, offsets[1:]))
        assert all(isinstance(o, int) for o in offsets)

    @given(n=st.integers(min_value=0, max_value=500), n_ranks=ranks_st)
    @settings(max_examples=100, deadline=None)
    def test_triangular_weights_match_triangular_splits(self, n, n_ranks):
        """Rows weighted [n, n-1, ..., 1] (each row's comparisons) are
        balanced by the closed form to within one row."""
        weights = np.arange(n, 0, -1, dtype=np.float64)
        fences = triangular_splits(n, n_ranks)
        self._check_fences(fences, n, n_ranks)
        tri = n * (n + 1) / 2
        for lo, hi in zip(fences, fences[1:]):
            assert float(weights[lo:hi].sum()) == prefix_work(n, hi) \
                - prefix_work(n, lo)
            assert float(weights[lo:hi].sum()) <= tri / n_ranks + n + 1e-6

    def test_more_ranks_than_units(self):
        """16 ranks over a 3-row lattice: trailing ranks get empty but
        valid ranges."""
        offsets = triangular_splits(3, 16)
        self._check_fences(offsets, 3, 16)

    def test_single_unit_lattice(self):
        """One row: exactly one rank gets it."""
        offsets = triangular_splits(1, 4)
        self._check_fences(offsets, 1, 4)
        widths = [b - a for a, b in zip(offsets, offsets[1:])]
        assert sum(widths) == 1 and max(widths) == 1
