"""Tests for Algorithm 1 — adaptive grid computation
(repro.core.adaptive_grid)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive_grid import (build_dimension_grid, build_grid,
                                      merge_windows, window_maxima)
from repro.errors import GridError
from repro.params import MafiaParams


class TestWindowMaxima:
    def test_exact_division(self):
        counts = np.array([1, 5, 2, 9, 0, 3])
        assert window_maxima(counts, 2).tolist() == [5, 9, 3]

    def test_ragged_tail(self):
        counts = np.array([1, 5, 2, 9, 7])
        assert window_maxima(counts, 2).tolist() == [5, 9, 7]

    def test_window_of_one_is_identity(self):
        counts = np.array([3, 1, 4])
        assert window_maxima(counts, 1).tolist() == [3, 1, 4]

    def test_validation(self):
        with pytest.raises(GridError):
            window_maxima(np.array([]), 2)
        with pytest.raises(GridError):
            window_maxima(np.array([1]), 0)


class TestMergeWindows:
    def test_flat_profile_merges_to_one(self):
        values = np.array([100, 104, 98, 101, 99])
        assert merge_windows(values, 0.25) == [(0, 5)]

    def test_step_profile_splits_at_the_step(self):
        values = np.array([10, 10, 10, 500, 500, 10])
        ranges = merge_windows(values, 0.25)
        assert ranges == [(0, 3), (3, 5), (5, 6)]

    def test_empty_windows_merge_freely(self):
        values = np.array([0, 0, 0, 50, 50])
        assert merge_windows(values, 0.25) == [(0, 3), (3, 5)]

    def test_running_value_is_max(self):
        """A slow ramp within β of the running max keeps merging; the
        comparison is against the merged bin's max, not its last member."""
        values = np.array([100, 120, 140, 165])  # each step < 25% of max
        assert merge_windows(values, 0.25) == [(0, 4)]

    def test_beta_zero_like_splits_everything(self):
        values = np.array([10, 11, 12])
        assert len(merge_windows(values, 1e-9)) == 3

    def test_beta_near_one_merges_everything(self):
        values = np.array([10, 500, 3, 9999])
        assert merge_windows(values, 0.999999) == [(0, 4)]

    def test_single_window(self):
        assert merge_windows(np.array([7]), 0.5) == [(0, 1)]

    def test_empty_input_rejected(self):
        with pytest.raises(GridError):
            merge_windows(np.array([]), 0.5)


class TestBuildDimensionGrid:
    def params(self, **kw):
        defaults = dict(fine_bins=100, window_size=5, uniform_split=5)
        defaults.update(kw)
        return MafiaParams(**defaults)

    def test_cluster_step_gets_own_bin(self):
        """A dense plateau in [40, 60) of a [0, 100) domain becomes one
        bin with edges on the plateau boundaries."""
        fine = np.full(100, 10)
        fine[40:60] = 500
        dg = build_dimension_grid(0, fine, (0.0, 100.0), 10_000, self.params())
        assert not dg.uniform
        assert 40.0 in dg.edges and 60.0 in dg.edges

    def test_uniform_dimension_resplit(self):
        """Equi-distributed dimension merges to one bin, then is re-split
        into `uniform_split` equal partitions (Algorithm 1)."""
        fine = np.full(100, 50)
        dg = build_dimension_grid(0, fine, (0.0, 100.0), 5000, self.params())
        assert dg.uniform
        assert dg.nbins == 5
        np.testing.assert_allclose(dg.edges, [0, 20, 40, 60, 80, 100])

    def test_threshold_formula(self):
        """Threshold of a bin of size a is α·N·a/|D| (§3.1)."""
        fine = np.full(100, 50)
        n = 5000
        p = self.params(alpha=2.0)
        dg = build_dimension_grid(0, fine, (0.0, 100.0), n, p)
        for b in dg.bins():
            assert b.threshold == pytest.approx(2.0 * n * b.width / 100.0)

    def test_uniform_alpha_boost(self):
        fine = np.full(100, 50)
        base = build_dimension_grid(0, fine, (0.0, 100.0), 1000, self.params())
        boosted = build_dimension_grid(
            0, fine, (0.0, 100.0), 1000, self.params(uniform_alpha_boost=3.0))
        assert boosted.thresholds[0] == pytest.approx(3 * base.thresholds[0])

    def test_edges_span_domain_exactly(self):
        fine = np.zeros(100)
        fine[13:77] = 40
        dg = build_dimension_grid(0, fine, (-3.0, 7.0), 100, self.params())
        assert dg.lo == -3.0 and dg.hi == 7.0
        assert dg.edges[0] == -3.0 and dg.edges[-1] == 7.0

    def test_too_many_windows_rejected(self):
        p = MafiaParams(fine_bins=1000, window_size=1)
        with pytest.raises(GridError):
            build_dimension_grid(0, np.arange(1000) % 97 * 100,
                                 (0.0, 1.0), 100, p)

    def test_empty_domain_rejected(self):
        with pytest.raises(GridError):
            build_dimension_grid(0, np.ones(10), (1.0, 1.0), 10,
                                 self.params())


class TestBuildGrid:
    def test_one_dimension_grid_each(self):
        fine = np.stack([np.full(100, 10), np.full(100, 10)])
        fine[0, 20:40] = 900
        domains = np.array([[0.0, 100.0], [0.0, 100.0]])
        grid = build_grid(fine, domains, 1000, MafiaParams(
            fine_bins=100, window_size=5))
        assert grid.ndim == 2
        assert not grid[0].uniform and grid[1].uniform

    def test_shape_validation(self):
        with pytest.raises(GridError):
            build_grid(np.ones(10), np.zeros((1, 2)), 10, MafiaParams())
        with pytest.raises(GridError):
            build_grid(np.ones((2, 10)), np.zeros((3, 2)), 10,
                       MafiaParams(fine_bins=10))
