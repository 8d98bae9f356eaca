"""Tests for cluster merging and DNF construction
(repro.core.{merge,dnf})."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dnf import (dnf_terms, greedy_cover, grow_box, maximal_mask,
                            projections)
from repro.core.merge import UnionFind, face_adjacent_components
from repro.core.units import UnitTable
from repro.errors import DataError
from repro.types import DimensionGrid, Grid, Subspace


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert len(set(uf.labels().tolist())) == 4

    def test_union_and_find(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.union(3, 4)
        assert not uf.union(1, 0)  # already joined
        labels = uf.labels()
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3] != labels[2]

    def test_transitive(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(2, 3)
        assert len(set(uf.labels().tolist())) == 1

    def test_labels_first_appearance_order(self):
        uf = UnionFind(3)
        uf.union(1, 2)
        assert uf.labels().tolist() == [0, 1, 1]

    def test_negative_size_rejected(self):
        with pytest.raises(DataError):
            UnionFind(-1)


class TestFaceAdjacency:
    def test_adjacent_bins_connect(self):
        bins = np.array([[0, 0], [1, 0], [2, 0]])
        assert len(set(face_adjacent_components(bins).tolist())) == 1

    def test_diagonal_is_not_a_face(self):
        """§3: connectivity needs a common face — diagonal neighbours
        (differing in two coordinates) are separate."""
        bins = np.array([[0, 0], [1, 1]])
        assert len(set(face_adjacent_components(bins).tolist())) == 2

    def test_gap_disconnects(self):
        bins = np.array([[0], [1], [3], [4]])
        labels = face_adjacent_components(bins)
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_connected_through_common_cell(self):
        """Two cells connected transitively via a middle cell."""
        bins = np.array([[0, 0], [0, 1], [1, 1]])
        assert len(set(face_adjacent_components(bins).tolist())) == 1

    def test_l_shape_single_component(self):
        bins = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [2, 2]])
        assert len(set(face_adjacent_components(bins).tolist())) == 1

    def test_single_and_empty(self):
        assert face_adjacent_components(np.array([[3, 3]])).tolist() == [0]
        assert face_adjacent_components(np.empty((0, 2))).size == 0

    def test_shape_validation(self):
        with pytest.raises(DataError):
            face_adjacent_components(np.array([1, 2, 3]))


class TestGrowBoxAndCover:
    def test_grow_full_rectangle(self):
        cells = {(i, j) for i in range(2, 5) for j in range(1, 3)}
        assert grow_box(cells, (3, 1)) == ((2, 4), (1, 2))

    def test_grow_blocked_by_missing_cell(self):
        cells = {(0, 0), (1, 0), (0, 1)}  # L-shape
        box = grow_box(cells, (0, 0))
        assert box in (((0, 1), (0, 0)), ((0, 0), (0, 1)))

    def test_seed_must_be_member(self):
        with pytest.raises(DataError):
            grow_box({(0, 0)}, (5, 5))

    def test_cover_covers_all_cells(self):
        bins = np.array([[0, 0], [1, 0], [0, 1], [2, 2]])
        boxes = greedy_cover(bins)
        covered = set()
        from itertools import product
        for box in boxes:
            covered |= set(product(*(range(lo, hi + 1) for lo, hi in box)))
        assert covered >= {tuple(r) for r in bins.tolist()}

    def test_rectangle_covered_by_one_box(self):
        bins = np.array([[i, j] for i in range(3) for j in range(4)])
        assert greedy_cover(bins) == [((0, 2), (0, 3))]

    def test_1d_runs(self):
        bins = np.array([[0], [1], [2], [7], [8]])
        assert sorted(greedy_cover(bins)) == [((0, 2),), ((7, 8),)]


class TestDnfTerms:
    def make_grid(self):
        return Grid(dims=(
            DimensionGrid(dim=0, lo=0., hi=30., n_fine=3, cuts=(0, 1, 2, 3),
                          thresholds=(1., 1., 1.)),
            DimensionGrid(dim=1, lo=0., hi=50., n_fine=10, cuts=(0, 1, 10),
                          thresholds=(1., 1.)),
        ))

    def test_intervals_map_through_grid_edges(self):
        grid = self.make_grid()
        terms = dnf_terms(grid, Subspace((0, 1)), np.array([[1, 0], [2, 0]]))
        assert len(terms) == 1
        assert terms[0].intervals == ((10.0, 30.0), (0.0, 5.0))

    def test_disjoint_regions_give_multiple_terms(self):
        grid = self.make_grid()
        terms = dnf_terms(grid, Subspace((0,)), np.array([[0], [2]]))
        assert len(terms) == 2


class TestProjectionsAndMaximal:
    def test_projections_drop_each_dim(self):
        t = UnitTable.from_pairs([[(0, 1), (2, 3), (5, 7)]])
        proj = projections(t)
        got = set(proj)
        assert got == {((0, 1), (2, 3)), ((0, 1), (5, 7)), ((2, 3), (5, 7))}

    def test_projections_level1_rejected(self):
        with pytest.raises(DataError):
            projections(UnitTable.from_pairs([[(0, 1)]]))

    def test_maximal_mask_filters_covered_units(self):
        lower = UnitTable.from_pairs([[(0, 1), (2, 3)],   # covered
                                      [(0, 9), (2, 9)]])  # not covered
        higher = UnitTable.from_pairs([[(0, 1), (2, 3), (5, 7)]])
        np.testing.assert_array_equal(maximal_mask(lower, higher),
                                      [False, True])

    def test_maximal_mask_none_higher(self):
        lower = UnitTable.from_pairs([[(0, 1)]])
        assert maximal_mask(lower, None).all()
        assert maximal_mask(lower, UnitTable.empty(2)).all()

    def test_level_mismatch_rejected(self):
        lower = UnitTable.from_pairs([[(0, 1)]])
        higher = UnitTable.from_pairs([[(0, 1), (1, 1), (2, 2)]])
        with pytest.raises(DataError):
            maximal_mask(lower, higher)
