"""End-to-end tests on non-rectangular (union-of-box) clusters.

The paper's generator supports "arbitrary shapes instead of just
hyper-rectangular regions" (§5.1) and Figure 1.2 shows pMAFIA covering
such a cluster with a multi-rectangle minimal DNF.  These tests verify
the whole pipeline on an L-shaped cluster — including the density
physics: an arm is recoverable only while its *1-D projection* stays
α-fold above uniform, which is exactly how a density/grid method is
supposed to behave.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MafiaParams, mafia
from repro.analysis import points_in_cluster
from repro.datagen import ClusterSpec, generate

DOMS = np.array([[0.0, 100.0]] * 6)
PARAMS = MafiaParams(fine_bins=200, window_size=2, chunk_records=6000)


@pytest.fixture(scope="module")
def compact_L():
    """A compact L in dims (2, 5): both arms project densely."""
    spec = ClusterSpec(dims=(2, 5), boxes=(
        ((10.0, 30.0), (10.0, 16.0)),   # horizontal arm
        ((10.0, 16.0), (10.0, 30.0)),   # vertical arm
    ))
    return generate(30_000, 6, [spec], seed=13)


class TestCompactL:
    def test_single_cluster_right_subspace(self, compact_L):
        res = mafia(compact_L.records, PARAMS, domains=DOMS)
        assert [c.subspace.dims for c in res.clusters] == [(2, 5)]

    def test_multi_unit_connected_cluster(self, compact_L):
        res = mafia(compact_L.records, PARAMS, domains=DOMS)
        [cluster] = res.clusters
        # corner + two arms = at least 3 face-connected dense units
        assert cluster.n_units >= 3

    def test_dnf_is_multi_rectangle(self, compact_L):
        """Figure 1.2(b): the cluster reports as a DNF of more than one
        rectangle — one per arm — with boundaries near the truth."""
        res = mafia(compact_L.records, PARAMS, domains=DOMS)
        [cluster] = res.clusters
        assert len(cluster.dnf) >= 2
        # the union of rectangles covers the arms' far ends (horizontal
        # and vertical tip), but not the empty quadrant diagonal from
        # the corner
        probes = np.array([[0, 0, 28.0, 0, 0, 12.0],
                           [0, 0, 12.0, 0, 0, 28.0],
                           [0, 0, 28.0, 0, 0, 28.0]])
        assert points_in_cluster(res.grid, cluster, probes).tolist() == \
            [True, True, False]

    def test_point_recall(self, compact_L):
        res = mafia(compact_L.records, PARAMS, domains=DOMS)
        [cluster] = res.clusters
        member = points_in_cluster(res.grid, cluster, compact_L.records)
        truth = compact_L.labels == 0
        recall = (member & truth).sum() / truth.sum()
        assert recall > 0.95

    def test_parallel_agrees(self, compact_L):
        from repro import pmafia
        serial = mafia(compact_L.records, PARAMS, domains=DOMS)
        run = pmafia(compact_L.records, 4, PARAMS, domains=DOMS)
        assert [c.describe() for c in run.result.clusters] == \
            [c.describe() for c in serial.clusters]


class TestDilutedL:
    def test_long_thin_arms_reduce_to_dense_core(self):
        """An L whose long arms dilute their own 1-D projections below
        α x uniform: the density-based method keeps only the region
        that is actually dense in projection (the corner).  This is the
        documented limitation of *any* grid/density subspace method,
        not an implementation artefact."""
        spec = ClusterSpec(dims=(2, 5), boxes=(
            ((10.0, 50.0), (10.0, 24.0)),
            ((10.0, 24.0), (10.0, 60.0)),
        ))
        ds = generate(30_000, 6, [spec], seed=13)
        res = mafia(ds.records, PARAMS, domains=DOMS)
        assert len(res.clusters) == 1
        [cluster] = res.clusters
        assert cluster.subspace.dims == (2, 5)
        # the dense corner survives, the diluted arm tips do not
        probes = np.array([[0, 0, 15.0, 0, 0, 15.0],
                           [0, 0, 45.0, 0, 0, 15.0]])
        assert points_in_cluster(res.grid, cluster, probes).tolist() == \
            [True, False]
