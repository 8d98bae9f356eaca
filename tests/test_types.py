"""Unit tests for the core value types (repro.types)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DataError, GridError
from repro.types import (BinInterval, Cluster, DimensionGrid, DNFTerm, Grid,
                         Subspace)


def make_dim(dim=0, cuts=(0, 1, 3, 10), thresholds=(5.0, 5.0, 5.0),
             uniform=False):
    """Ten unit-wide fine intervals over [0, 10): edges (0, 1, 3, 10)."""
    return DimensionGrid(dim=dim, lo=0.0, hi=10.0, n_fine=10, cuts=cuts,
                         thresholds=thresholds, uniform=uniform)


class TestBinInterval:
    def test_width(self):
        assert BinInterval(2.0, 5.0, 10.0).width == 3.0

    def test_empty_interval_rejected(self):
        with pytest.raises(GridError):
            BinInterval(3.0, 3.0, 1.0)
        with pytest.raises(GridError):
            BinInterval(5.0, 3.0, 1.0)


class TestDimensionGrid:
    def test_basic_properties(self):
        dg = make_dim()
        assert dg.nbins == 3
        assert dg.edges == (0.0, 1.0, 3.0, 10.0)
        assert dg.lut.tolist() == [0, 1, 1, 2, 2, 2, 2, 2, 2, 2]
        assert dg.bin(1) == BinInterval(1.0, 3.0, 5.0)
        assert len(list(dg.bins())) == 3

    def test_thresholds_length_checked(self):
        with pytest.raises(GridError):
            make_dim(cuts=(0, 10), thresholds=(1.0, 2.0))

    def test_edges_must_increase(self):
        with pytest.raises(GridError):
            make_dim(cuts=(0, 2, 2, 10), thresholds=(1.0,) * 3)
        with pytest.raises(GridError):      # must end at n_fine
            make_dim(cuts=(0, 2, 9), thresholds=(1.0,) * 2)

    def test_single_bin_minimum(self):
        with pytest.raises(GridError):
            make_dim(cuts=(0,), thresholds=())

    def test_locate_maps_values_to_bins(self):
        dg = make_dim()
        values = np.array([0.0, 0.5, 1.0, 2.9, 3.0, 9.99])
        assert dg.locate(values).tolist() == [0, 0, 1, 1, 2, 2]

    def test_locate_clips_out_of_domain(self):
        dg = make_dim()
        assert dg.locate(np.array([-5.0, 100.0])).tolist() == [0, 2]


class TestGrid:
    def test_dimension_labels_enforced(self):
        with pytest.raises(GridError):
            Grid(dims=(make_dim(dim=1),))

    def test_locate_records(self):
        g = Grid(dims=(make_dim(dim=0), make_dim(dim=1)))
        recs = np.array([[0.5, 5.0], [2.0, 0.2]])
        idx = g.locate_records(recs)
        assert idx.tolist() == [[0, 2], [1, 0]]

    def test_locate_records_shape_checked(self):
        g = Grid(dims=(make_dim(dim=0),))
        with pytest.raises(DataError):
            g.locate_records(np.zeros((3, 2)))

    def test_nbins(self):
        g = Grid(dims=(make_dim(dim=0), make_dim(dim=1)))
        assert g.nbins() == (3, 3)


class TestSubspace:
    def test_sorted_unique_enforced(self):
        with pytest.raises(DataError):
            Subspace((3, 1))
        with pytest.raises(DataError):
            Subspace((1, 1))
        with pytest.raises(DataError):
            Subspace((-1, 2))

    def test_subset_and_contains(self):
        a, b = Subspace((1, 3)), Subspace((1, 2, 3))
        assert a.issubset(b) and not b.issubset(a)
        assert 3 in a and 2 not in a
        assert list(b) == [1, 2, 3] and len(b) == 3


class TestDNFTermAndCluster:
    def test_term_validation(self):
        with pytest.raises(DataError):
            DNFTerm(subspace=Subspace((1,)), intervals=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(DataError):
            DNFTerm(subspace=Subspace((1,)), intervals=((1.0, 1.0),))

    def test_cluster_shape_validation(self):
        sub = Subspace((0, 2))
        term = DNFTerm(subspace=sub, intervals=((0.0, 1.0), (0.0, 1.0)))
        Cluster(subspace=sub, units_bins=np.zeros((2, 2), int), dnf=(term,))
        with pytest.raises(DataError):
            Cluster(subspace=sub, units_bins=np.zeros((2, 3), int),
                    dnf=(term,))

    def test_cluster_describe(self):
        sub = Subspace((0,))
        t1 = DNFTerm(subspace=sub, intervals=((0.0, 1.0),))
        t2 = DNFTerm(subspace=sub, intervals=((5.0, 6.0),))
        c = Cluster(subspace=sub, units_bins=np.array([[0], [5]]),
                    dnf=(t1, t2), point_count=10)
        assert "d0:[0,1)" in c.describe() and "|" in c.describe()
        assert c.n_units == 2 and c.dimensionality == 1
