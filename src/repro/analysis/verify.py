"""Independent verification of a clustering result against its data.

``verify_result`` re-derives, with fresh passes over the records and
none of the driver's code paths, every invariant a correct
(p)MAFIA run must satisfy:

1. **Counts** — each dense unit's stored count equals a brute-force
   recount of records falling in its bins (per chunk: locate every
   record, then one AND over ``==`` masks per unit — no bitmaps, no
   prefix sharing);
2. **Density** — each dense unit's count strictly exceeds the max of
   its bins' thresholds;
3. **Closure** — every projection of a dense unit appears among the
   dense units one level down (count monotonicity makes the lattice
   downward closed);
4. **Clusters** — every cluster's units are dense units of its level,
   its point count is the sum of their counts, and its DNF covers
   exactly its units' cells.

Any violation is reported as a human-readable finding; an empty report
means the result is internally consistent with the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from ..core.result import ClusteringResult
from ..core.units import UnitTable
from ..core.identify import unit_thresholds
from ..core.dnf import projections
from ..io.chunks import DataSource, as_source


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_result`."""

    findings: list[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, message: str) -> None:
        """Record one violated invariant."""
        self.findings.append(message)

    def summary(self) -> str:
        """Human-readable report, one line per finding."""
        status = "OK" if self.ok else f"{len(self.findings)} problem(s)"
        lines = [f"verification: {status} ({self.checks_run} checks)"]
        lines.extend(f"  - {f}" for f in self.findings)
        return "\n".join(lines)


def _recount(source: DataSource, result: ClusteringResult,
             chunk_records: int) -> dict[int, np.ndarray]:
    """Brute-force counts of every level's dense units, one chunked
    pass over the records."""
    levels = [t for t in result.trace if t.n_dense]
    counts = {t.level: np.zeros(t.n_dense, dtype=np.int64) for t in levels}
    for chunk in source.iter_chunks(chunk_records):
        idx = result.grid.locate_records(chunk)
        for trace in levels:
            dims = trace.dense.dims.astype(np.intp)
            bins = trace.dense.bins
            for i in range(trace.n_dense):
                mask = idx[:, dims[i, 0]] == bins[i, 0]
                for j in range(1, dims.shape[1]):
                    mask &= idx[:, dims[i, j]] == bins[i, j]
                counts[trace.level][i] += int(mask.sum())
    return counts


def _check_counts(report: VerificationReport, result: ClusteringResult,
                  source: DataSource, chunk_records: int) -> None:
    recounts = _recount(source, result, chunk_records)
    for trace in result.trace:
        if trace.n_dense == 0:
            continue
        recounted = recounts[trace.level]
        report.checks_run += trace.n_dense
        bad = np.flatnonzero(recounted != np.asarray(trace.dense_counts))
        for i in bad[:5]:
            report.add(
                f"level {trace.level} unit {trace.dense.unit(int(i))}: "
                f"stored count {trace.dense_counts[int(i)]} != recount "
                f"{recounted[int(i)]}")


def _check_density(report: VerificationReport,
                   result: ClusteringResult) -> None:
    for trace in result.trace:
        if trace.n_dense == 0:
            continue
        thresholds = unit_thresholds(result.grid, trace.dense)
        report.checks_run += trace.n_dense
        bad = np.flatnonzero(
            np.asarray(trace.dense_counts) <= thresholds)
        for i in bad[:5]:
            report.add(
                f"level {trace.level} unit {trace.dense.unit(int(i))}: "
                f"count {trace.dense_counts[int(i)]} does not exceed "
                f"threshold {thresholds[int(i)]:.1f}")


def _check_closure(report: VerificationReport,
                   result: ClusteringResult) -> None:
    by_level = {t.level: t.dense for t in result.trace}
    for trace in result.trace:
        if trace.level < 2 or trace.n_dense == 0:
            continue
        lower = by_level.get(trace.level - 1)
        if lower is None or lower.n_units == 0:
            report.add(f"level {trace.level} has dense units but level "
                       f"{trace.level - 1} has none")
            continue
        proj = projections(trace.dense).unique()
        report.checks_run += proj.n_units
        missing = ~lower.contains_rows(proj)
        for i in np.flatnonzero(missing)[:5]:
            report.add(
                f"projection {proj.unit(int(i))} of a level-{trace.level} "
                f"dense unit is not dense at level {trace.level - 1}")


def _check_clusters(report: VerificationReport,
                    result: ClusteringResult) -> None:
    by_level = {t.level: t for t in result.trace}
    for ci, cluster in enumerate(result.clusters):
        k = cluster.dimensionality
        trace = by_level.get(k)
        if trace is None:
            report.add(f"cluster {ci} lives at level {k} which the "
                       f"search never reached")
            continue
        dims = np.tile(np.asarray(cluster.subspace.dims, dtype=np.uint8),
                       (cluster.n_units, 1))
        table = UnitTable(dims=dims,
                          bins=cluster.units_bins.astype(np.uint8))
        report.checks_run += cluster.n_units + 1
        member = trace.dense.contains_rows(table)
        if not member.all():
            report.add(f"cluster {ci}: {int((~member).sum())} unit(s) are "
                       f"not dense units of level {k}")
            continue
        # point count = sum of its units' stored counts
        mask = table.contains_rows(trace.dense)
        expected = int(np.asarray(trace.dense_counts)[mask].sum())
        if expected != cluster.point_count:
            report.add(f"cluster {ci}: point_count {cluster.point_count} "
                       f"!= sum of unit counts {expected}")
        # DNF covers exactly the cluster's cells; an interval's bins are
        # found by exact lookup of its endpoints among the grid's edges
        # (locating them as values is off by a bin once an edge's ulp
        # exceeds any fixed nudge)
        cells = {tuple(r) for r in cluster.units_bins.tolist()}
        covered = set()
        try:
            for term in cluster.dnf:
                ranges = []
                for d, (lo, hi) in zip(cluster.subspace.dims,
                                       term.intervals):
                    edges = result.grid[d].edges
                    ranges.append(range(edges.index(lo), edges.index(hi)))
                covered |= set(iter_product(*ranges))
        except ValueError:
            report.add(f"cluster {ci}: a DNF interval endpoint is not a "
                       f"grid edge")
            continue
        if covered != cells:
            report.add(f"cluster {ci}: DNF covers {len(covered)} cells, "
                       f"units occupy {len(cells)}")


def verify_result(result: ClusteringResult, data,
                  chunk_records: int = 50_000) -> VerificationReport:
    """Re-derive and check every invariant of ``result`` against
    ``data`` (array, DataSource or anything :func:`repro.io.as_source`
    accepts).  Returns a :class:`VerificationReport`."""
    source = as_source(np.asarray(data, dtype=np.float64)
                       if not isinstance(data, DataSource) else data)
    report = VerificationReport()
    _check_counts(report, result, source, chunk_records)
    _check_density(report, result)
    _check_closure(report, result)
    _check_clusters(report, result)
    return report
