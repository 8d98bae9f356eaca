"""Tests for the independent result verifier (repro.analysis.verify)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import MafiaParams, mafia, pmafia
from repro.analysis import verify_result
from repro.clique import clique
from repro.core.result import ClusteringResult, LevelTrace
from repro.params import CliqueParams
from tests.conftest import DOMAINS_10D


@pytest.fixture(scope="module")
def result(one_cluster_dataset, small_params):
    return mafia(one_cluster_dataset.records, small_params,
                 domains=DOMAINS_10D)


class TestCleanRunsVerify:
    def test_serial_mafia_passes(self, result, one_cluster_dataset):
        report = verify_result(result, one_cluster_dataset.records,
                               chunk_records=2000)
        assert report.ok, report.summary()
        assert report.checks_run > 20

    def test_parallel_mafia_passes(self, two_cluster_dataset):
        run = pmafia(two_cluster_dataset.records, 4,
                     MafiaParams(chunk_records=5000), domains=DOMAINS_10D)
        report = verify_result(run.result, two_cluster_dataset.records,
                               chunk_records=5000)
        assert report.ok, report.summary()

    def test_clique_passes(self, two_cluster_dataset):
        res = clique(two_cluster_dataset.records,
                     CliqueParams(bins=10, threshold=0.01,
                                  chunk_records=5000), domains=DOMAINS_10D)
        report = verify_result(res, two_cluster_dataset.records,
                               chunk_records=5000)
        assert report.ok, report.summary()

    def test_summary_format(self, result, one_cluster_dataset):
        text = verify_result(result, one_cluster_dataset.records,
                             chunk_records=2000).summary()
        assert text.startswith("verification: OK")


def _tamper_trace(result, level_index, **changes) -> ClusteringResult:
    trace = list(result.trace)
    trace[level_index] = replace(trace[level_index], **changes)
    return ClusteringResult(grid=result.grid, clusters=result.clusters,
                            trace=tuple(trace), params=result.params,
                            n_records=result.n_records)


class TestTamperedRunsFlagged:
    def test_wrong_counts_detected(self, result, one_cluster_dataset):
        bad_counts = result.trace[0].dense_counts.copy()
        bad_counts[0] += 17
        tampered = _tamper_trace(result, 0, dense_counts=bad_counts)
        report = verify_result(tampered, one_cluster_dataset.records,
                               chunk_records=2000)
        assert not report.ok
        assert any("recount" in f for f in report.findings)

    def test_one_tampered_deep_count_reported_independently(
            self, result, one_cluster_dataset, monkeypatch):
        """One count off by one on the top level is the only finding,
        and the recount uses none of the population engine's code."""
        import repro.core.population as population

        def forbidden(*args, **kwargs):
            raise AssertionError("verify must not call the engine")

        for name in ("populate_local", "count_units", "IndexedPopulator"):
            monkeypatch.setattr(population, name, forbidden)
        level = len(result.trace) - 1
        while result.trace[level].n_dense == 0:
            level -= 1
        bad_counts = result.trace[level].dense_counts.copy()
        bad_counts[-1] += 1
        tampered = _tamper_trace(result, level, dense_counts=bad_counts)
        report = verify_result(tampered, one_cluster_dataset.records,
                               chunk_records=777)
        recounts = [f for f in report.findings if "recount" in f]
        assert len(recounts) == 1
        unit = tampered.trace[level].dense.unit(
            tampered.trace[level].n_dense - 1)
        assert str(unit) in recounts[0]
        assert f"level {tampered.trace[level].level} " in recounts[0]

    def test_non_dense_unit_detected(self, result, one_cluster_dataset):
        """A stored count at the threshold (not above) must be flagged
        by the density check."""
        bad_counts = result.trace[0].dense_counts.copy()
        bad_counts[0] = 1  # clearly below any threshold
        tampered = _tamper_trace(result, 0, dense_counts=bad_counts)
        report = verify_result(tampered, one_cluster_dataset.records,
                               chunk_records=2000)
        assert any("threshold" in f for f in report.findings)

    def test_broken_closure_detected(self, result, one_cluster_dataset):
        """Removing a level-1 dense unit orphans the level-2 units that
        project onto it."""
        lvl1 = result.trace[0]
        pruned_dense = lvl1.dense.select(np.arange(1, lvl1.dense.n_units))
        tampered = _tamper_trace(
            result, 0, dense=pruned_dense,
            dense_counts=lvl1.dense_counts[1:],
            n_dense=lvl1.n_dense - 1)
        report = verify_result(tampered, one_cluster_dataset.records,
                               chunk_records=2000)
        assert any("projection" in f for f in report.findings)

    def test_wrong_cluster_point_count_detected(self, result,
                                                one_cluster_dataset):
        from dataclasses import replace as dc_replace
        bad_cluster = replace(result.clusters[0],
                              point_count=result.clusters[0].point_count + 5)
        tampered = ClusteringResult(
            grid=result.grid, clusters=(bad_cluster,), trace=result.trace,
            params=result.params, n_records=result.n_records)
        report = verify_result(tampered, one_cluster_dataset.records,
                               chunk_records=2000)
        assert any("point_count" in f for f in report.findings)

    def test_cluster_at_unreached_level_detected(self, result,
                                                 one_cluster_dataset):
        tampered = ClusteringResult(
            grid=result.grid, clusters=result.clusters,
            trace=result.trace[:2],  # drop levels 3-4
            params=result.params, n_records=result.n_records)
        report = verify_result(tampered, one_cluster_dataset.records,
                               chunk_records=2000)
        assert any("never reached" in f for f in report.findings)

    def test_dnf_endpoint_off_the_grid_detected(self, result,
                                                one_cluster_dataset):
        cluster = result.clusters[0]
        term = cluster.dnf[0]
        (lo, hi), *rest = term.intervals
        moved = replace(term, intervals=((lo, hi + 0.5), *rest))
        tampered = ClusteringResult(
            grid=result.grid,
            clusters=(replace(cluster, dnf=(moved, *cluster.dnf[1:])),),
            trace=result.trace, params=result.params,
            n_records=result.n_records)
        report = verify_result(tampered, one_cluster_dataset.records,
                               chunk_records=2000)
        assert any("not a grid edge" in f for f in report.findings)


class TestLargeDomains:
    def test_dnf_cells_on_a_large_domain(self):
        """Above ~16384 an edge's ulp exceeds 1e-12, so an interval's
        top nudged down by 1e-12 is the top edge itself and locates one
        bin too far; endpoints are looked up among the edges exactly."""
        rng = np.random.default_rng(0)
        records = rng.random((20_000, 6)) * 100.0
        records[:5000, 1:4] = rng.random((5000, 3)) * 10.0 + 40.0
        records *= 1e5
        result = mafia(records, MafiaParams(fine_bins=200, window_size=2,
                                            chunk_records=5000),
                       domains=np.array([[0.0, 1e7]] * 6))
        assert [c.subspace.dims for c in result.clusters] == [(1, 2, 3)]
        report = verify_result(result, records)
        assert report.ok, report.summary()
