"""Clustering quality metrics (paper §5.8, Table 3).

The paper judges quality by (a) whether the *subspaces* of the embedded
clusters are recovered, (b) whether each cluster's *records* are fully
captured rather than "thrown away as outliers", and (c) how close the
reported boundaries are to the defined extents.  These metrics quantify
all three against the ground truth carried by a
:class:`~repro.datagen.generator.SyntheticDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.result import ClusteringResult
from ..datagen.generator import SyntheticDataset
from ..datagen.spec import ClusterSpec
from ..errors import DataError
from ..serve.engine import score_batch_naive
from ..types import Cluster, Grid


def subspace_scores(result: ClusteringResult,
                    specs: tuple[ClusterSpec, ...] | list[ClusterSpec]
                    ) -> tuple[float, float]:
    """(precision, recall) of the discovered cluster *subspaces* against
    the true embedded subspaces."""
    truth = {tuple(s.dims) for s in specs}
    found = {c.subspace.dims for c in result.clusters}
    if not found:
        return (1.0 if not truth else 0.0, 0.0 if truth else 1.0)
    hit = truth & found
    precision = len(hit) / len(found)
    recall = len(hit) / len(truth) if truth else 1.0
    return precision, recall


def assign_records(result: ClusteringResult, records: np.ndarray,
                   tie_break: str = "highest") -> np.ndarray:
    """Label each record with the index of a cluster containing it, or
    -1 for outliers.

    Membership is the serving rule: a record is in a cluster when the
    result's grid locates it in one of the cluster's dense units.
    Clusters constrain only their own subspace dimensions, so a record
    can fall inside several; ``tie_break`` picks ``"highest"``
    (highest-dimensionality cluster — clusters are sorted that way) or
    ``"first"`` (first match in report order — identical here, kept for
    clarity of intent).
    """
    if tie_break not in ("highest", "first"):
        raise DataError(f"unknown tie_break {tie_break!r}")
    member = score_batch_naive(result.grid, result.clusters, records)
    labels = np.full(len(member), -1, dtype=np.int64)
    # result.clusters is sorted highest dimensionality first; assign in
    # reverse so earlier (higher) clusters overwrite later ones
    for index in range(member.shape[1] - 1, -1, -1):
        labels[member[:, index]] = index
    return labels


def points_in_cluster(grid: Grid, cluster: Cluster,
                      records: np.ndarray) -> np.ndarray:
    """Boolean membership of full-dimensional records in a discovered
    cluster: True where ``grid`` locates the record in one of the
    cluster's dense units (the rule training and serving share)."""
    return score_batch_naive(grid, [cluster], records)[:, 0]


@dataclass(frozen=True)
class ClusterMatch:
    """How well one discovered cluster reproduces one true cluster."""

    spec_index: int
    cluster_index: int
    subspace_exact: bool
    #: fraction of the true cluster's records inside the discovered cluster
    recall: float
    #: fraction of the discovered cluster's records that belong to the truth
    precision: float
    #: worst per-dimension boundary deviation, as a fraction of the true
    #: extent (only for single-box specs on exact-subspace matches)
    boundary_error: float


def _boundary_error(cluster: Cluster, spec: ClusterSpec) -> float:
    if len(spec.boxes) != 1 or cluster.subspace.dims != spec.dims:
        return float("nan")
    worst = 0.0
    box = spec.boxes[0]
    for j, (true_lo, true_hi) in enumerate(box):
        extent = true_hi - true_lo
        los = [t.intervals[j][0] for t in cluster.dnf]
        his = [t.intervals[j][1] for t in cluster.dnf]
        worst = max(worst,
                    abs(min(los) - true_lo) / extent,
                    abs(max(his) - true_hi) / extent)
    return worst


def match_clusters(result: ClusteringResult, dataset: SyntheticDataset
                   ) -> list[ClusterMatch]:
    """Best discovered cluster for every true cluster of the data set.

    Each true cluster is matched to the discovered cluster maximising
    record recall among those sharing (a superset of) its subspace, or
    any cluster if none overlaps.
    """
    matches: list[ClusterMatch] = []
    member_of = score_batch_naive(result.grid, result.clusters,
                                  dataset.records)
    for spec_index, spec in enumerate(dataset.clusters):
        truth_mask = dataset.labels == spec_index
        n_truth = int(truth_mask.sum())
        if n_truth == 0:
            raise DataError(f"true cluster {spec_index} has no records")
        best: ClusterMatch | None = None
        for ci, cluster in enumerate(result.clusters):
            member = member_of[:, ci]
            inter = int((member & truth_mask).sum())
            recall = inter / n_truth
            precision = inter / int(member.sum()) if member.any() else 0.0
            candidate = ClusterMatch(
                spec_index=spec_index, cluster_index=ci,
                subspace_exact=cluster.subspace.dims == spec.dims,
                recall=recall, precision=precision,
                boundary_error=_boundary_error(cluster, spec))
            if best is None or (candidate.subspace_exact, candidate.recall) > (
                    best.subspace_exact, best.recall):
                best = candidate
        if best is None:
            best = ClusterMatch(spec_index=spec_index, cluster_index=-1,
                                subspace_exact=False, recall=0.0,
                                precision=0.0, boundary_error=float("nan"))
        matches.append(best)
    return matches
