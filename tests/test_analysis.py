"""Tests for quality metrics, the complexity model and report
formatting (repro.analysis)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MafiaParams, mafia
from repro.analysis import (Workload, assign_records, expected_cdus,
                            format_table, match_clusters,
                            paper_vs_measured, points_in_cluster,
                            predicted_seconds, predicted_speedup,
                            speedup_series, subspace_scores)
from repro.core.dnf import dnf_terms
from repro.core.result import ClusteringResult
from repro.errors import DataError, ParameterError
from repro.parallel import MachineSpec
from repro.serve import ClusterServer
from repro.types import Cluster, DimensionGrid, DNFTerm, Grid, Subspace
from tests.conftest import DOMAINS_10D


def simple_cluster(dims, intervals):
    sub = Subspace(tuple(dims))
    term = DNFTerm(subspace=sub, intervals=tuple(intervals))
    return Cluster(subspace=sub, units_bins=np.zeros((1, len(dims)), int),
                   dnf=(term,))


def make_grid(ndim, hi, n_fine, cuts):
    """``ndim`` identical dimensions over ``[0, hi)``."""
    return Grid(dims=tuple(
        DimensionGrid(dim=j, lo=0.0, hi=hi, n_fine=n_fine, cuts=cuts,
                      thresholds=(1.0,) * (len(cuts) - 1))
        for j in range(ndim)))


def unit_cluster(grid, dims, units):
    """A cluster of the given dense units, described as a clustering
    describes it."""
    sub = Subspace(tuple(dims))
    bins = np.array(units, dtype=np.int64)
    return Cluster(subspace=sub, units_bins=bins,
                   dnf=dnf_terms(grid, sub, bins), point_count=1)


def fake_result(grid, clusters):
    return ClusteringResult(grid=grid, clusters=tuple(clusters), trace=(),
                            params=MafiaParams(), n_records=1)


class TestPointsInCluster:
    def test_union_of_terms(self):
        # bins [0, 1) [1, 5) [5, 6) [6, 10); the cluster is bins 0 and 2
        grid = make_grid(1, 10.0, 10, (0, 1, 5, 6, 10))
        c = unit_cluster(grid, [0], [[0], [2]])
        assert len(c.dnf) == 2
        recs = np.array([[0.5], [3.0], [5.5]])
        assert points_in_cluster(grid, c, recs).tolist() == \
            [True, False, True]

    def test_only_subspace_dims_constrain(self):
        grid = make_grid(3, 100.0, 10, (0, 1, 2, 10))
        c = unit_cluster(grid, [1], [[1]])      # [10, 20) in dim 1
        recs = np.array([[999.0, 15.0, -999.0], [15.0, 25.0, 15.0]])
        assert points_in_cluster(grid, c, recs).tolist() == [True, False]


class TestSubspaceScores:
    def test_perfect_match(self, one_cluster_dataset, small_params):
        res = mafia(one_cluster_dataset.records, small_params,
                    domains=DOMAINS_10D)
        assert subspace_scores(res, one_cluster_dataset.clusters) == (1.0, 1.0)

    def test_spurious_clusters_hit_precision(self):
        # hand-built result with one right and one wrong subspace
        from repro.datagen import ClusterSpec
        specs = [ClusterSpec.box([0, 1], [(0, 1), (0, 1)])]
        clusters = (simple_cluster([0, 1], [(0.0, 1.0), (0.0, 1.0)]),
                    simple_cluster([2, 3], [(0.0, 1.0), (0.0, 1.0)]))
        fake = ClusteringResult(
            grid=mafia(np.random.default_rng(0).random((100, 4)),
                       MafiaParams(fine_bins=20, window_size=2,
                                   chunk_records=100)).grid,
            clusters=clusters, trace=(), params=MafiaParams(), n_records=100)
        precision, recall = subspace_scores(fake, specs)
        assert precision == 0.5 and recall == 1.0


class TestMatchClusters:
    def test_full_pipeline(self, two_cluster_dataset):
        res = mafia(two_cluster_dataset.records,
                    MafiaParams(chunk_records=5000), domains=DOMAINS_10D)
        matches = match_clusters(res, two_cluster_dataset)
        assert len(matches) == 2
        for m in matches:
            assert m.subspace_exact
            assert m.recall > 0.9
            assert m.precision > 0.8
            assert m.boundary_error < 0.1


class TestComplexityModel:
    def test_expected_cdus_binomials(self):
        w = Workload(n_records=1000, n_dims=10, cluster_dim=4)
        cdus = expected_cdus(w)
        assert cdus[2] == 6 and cdus[3] == 4 and cdus[4] == 1 and cdus[5] == 0

    def test_time_monotone_in_records(self):
        m = MachineSpec.ibm_sp2()
        small = Workload(n_records=10**5, n_dims=10, cluster_dim=4)
        big = Workload(n_records=10**6, n_dims=10, cluster_dim=4)
        assert predicted_seconds(m, big) > predicted_seconds(m, small)

    def test_time_exponential_in_cluster_dim(self):
        """Fig 7 shape: growth between consecutive k accelerates."""
        m = MachineSpec.ibm_sp2()
        times = [predicted_seconds(m, Workload(
            n_records=10**5, n_dims=20, cluster_dim=k)) for k in (4, 6, 8, 10)]
        ratios = [b / a for a, b in zip(times, times[1:])]
        assert ratios[-1] > ratios[0] > 1.0

    def test_speedup_near_linear(self):
        m = MachineSpec.ibm_sp2()
        w = Workload(n_records=4 * 10**6, n_dims=20, cluster_dim=5)
        s16 = predicted_speedup(m, w, 16)
        assert 10 < s16 <= 16.5

    def test_validation(self):
        with pytest.raises(ParameterError):
            Workload(n_records=0, n_dims=5, cluster_dim=2)
        with pytest.raises(ParameterError):
            Workload(n_records=10, n_dims=5, cluster_dim=7)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "b"], [[1, 2.5], ["xx", 0.00001]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "---" in lines[2]
        assert len(lines) == 5

    def test_format_table_width_checked(self):
        with pytest.raises(DataError):
            format_table(["a"], [[1, 2]])

    def test_paper_vs_measured_keys_union(self):
        text = paper_vs_measured("X", "p", {1: 10, 2: 20}, {2: 19, 4: 9},
                                 note="shape only")
        assert "paper" in text and "measured" in text
        assert "shape only" in text
        assert "4" in text and "-" in text

    def test_speedup_series(self):
        s = speedup_series({1: 100.0, 2: 50.0, 4: 30.0})
        assert s[1] == pytest.approx(1.0)
        assert s[2] == pytest.approx(2.0)
        assert s[4] == pytest.approx(100 / 30)

    def test_speedup_series_empty(self):
        assert speedup_series({}) == {}


class TestAssignRecords:
    def test_labels_match_truth(self, two_cluster_dataset):
        res = mafia(two_cluster_dataset.records,
                    MafiaParams(chunk_records=5000), domains=DOMAINS_10D)
        labels = assign_records(res, two_cluster_dataset.records)
        # translate cluster index -> spec index via subspace identity
        for spec_index, spec in enumerate(two_cluster_dataset.clusters):
            [cluster_index] = [i for i, c in enumerate(res.clusters)
                               if c.subspace.dims == spec.dims]
            truth = two_cluster_dataset.labels == spec_index
            got = labels == cluster_index
            agreement = (truth & got).sum() / truth.sum()
            assert agreement > 0.95

    def test_outliers_stay_unlabelled(self, two_cluster_dataset):
        res = mafia(two_cluster_dataset.records,
                    MafiaParams(chunk_records=5000), domains=DOMAINS_10D)
        corner = np.full((5, 10), 99.5)
        labels = assign_records(res, corner)
        assert (labels == -1).all()

    def test_higher_cluster_wins_ties(self):
        grid = make_grid(3, 100.0, 20, (0, 10, 20))    # [0, 50) [50, 100)
        low = unit_cluster(grid, [0], [[0]])
        high = unit_cluster(grid, [0, 1], [[0, 0]])
        fake = fake_result(grid, (high, low))
        labels = assign_records(fake, np.array([[10.0, 10.0, 0.0],
                                                [10.0, 90.0, 0.0]]))
        assert labels.tolist() == [0, 1]

    def test_edges_and_domain_top_agree_with_the_server(self):
        # over [0, 100) with 100 fine intervals the codes of 29.0, 57.0
        # and 58.0 truncate one interval low, and 100.0 (the domain's hi)
        # clips into the last bin: the located cells, not the float
        # bounds, decide membership, as in serving
        grid = make_grid(2, 100.0, 100, (0, 29, 57, 58, 100))
        high = unit_cluster(grid, [0, 1], [[1, 1]])      # [29, 57)^2
        low = unit_cluster(grid, [0], [[3]])             # [58, 100)
        fake = fake_result(grid, (high, low))
        recs = np.array([[29.0, 40.0], [57.0, 57.0], [100.0, 0.0],
                         [58.0, 29.0], [40.0, 29.0], [99.0, 100.0]])
        labels = assign_records(fake, recs)
        served = ClusterServer(fake).score_batch(recs).membership
        assert labels.tolist() == [int(np.argmax(row)) if row.any()
                                   else -1 for row in served]
        assert labels.tolist() == [-1, 0, 1, -1, -1, 1]

    def test_tie_break_validation(self, two_cluster_dataset):
        res = mafia(two_cluster_dataset.records,
                    MafiaParams(chunk_records=5000), domains=DOMAINS_10D)
        with pytest.raises(DataError):
            assign_records(res, two_cluster_dataset.records,
                           tie_break="random")
