"""Tests for the CLIQUE baseline (repro.clique)."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro import MafiaParams, mafia
from repro.clique import (apriori_prune, clique, clique_rank, pclique,
                          prefix_join_all, uniform_grid)
from repro.clique.clique import _canonical_join
from repro.core.candidates import join_all
from repro.core.units import UnitTable
from repro.errors import DataError, GridError
from repro.params import CliqueParams
from repro.parallel import CrashPoint, FaultPlan, InjectedFailure, run_spmd
from tests.conftest import DOMAINS_10D


def table(*units):
    return UnitTable.from_pairs(list(units))


class TestUniformGrid:
    def test_equal_bins_and_global_threshold(self):
        grid = uniform_grid(np.array([[0.0, 100.0], [0.0, 10.0]]),
                            (10, 5), 1000, 0.02)
        assert grid[0].nbins == 10 and grid[1].nbins == 5
        np.testing.assert_allclose(np.diff(grid[0].edges), 10.0)
        for dg in grid:
            assert all(t == pytest.approx(20.0) for t in dg.thresholds)

    def test_validation(self):
        with pytest.raises(GridError):
            uniform_grid(np.zeros((2, 2)), (10,), 100, 0.01)
        with pytest.raises(GridError):
            uniform_grid(np.array([[0.0, 1.0]]), (10,), 100, 1.5)
        with pytest.raises(GridError):
            uniform_grid(np.array([[1.0, 1.0]]), (10,), 100, 0.01)


class TestPrefixJoin:
    def test_joins_on_shared_prefix(self):
        dense = table([(0, 1), (1, 2)], [(0, 1), (2, 3)]).sort()
        jr = prefix_join_all(dense)
        assert list(jr.cdus) == [((0, 1), (1, 2), (2, 3))]

    def test_misses_non_prefix_overlap(self):
        """The paper's §3 counter-example: prefix join cannot combine
        {a1,b7,c8} with {b7,c8,d9}, but MAFIA's join can."""
        dense = table([(0, 1), (6, 7), (7, 8)],
                      [(6, 7), (7, 8), (8, 9)]).sort()
        assert prefix_join_all(dense).cdus.n_units == 0
        assert join_all(dense).cdus.n_units == 1

    def test_level1_pairs_all_dimensions(self):
        dense = table([(0, 0)], [(1, 0)], [(2, 0)]).sort()
        jr = prefix_join_all(dense)
        assert jr.cdus.unique().n_units == 3

    def test_prefix_bins_must_match(self):
        dense = table([(0, 1), (1, 2)], [(0, 2), (2, 3)]).sort()
        assert prefix_join_all(dense).cdus.n_units == 0

    def test_no_duplicates_generated(self):
        dense = table([(0, 0), (1, 0)], [(0, 0), (2, 0)],
                      [(0, 0), (3, 0)]).sort()
        jr = prefix_join_all(dense)
        assert jr.cdus.n_units == jr.cdus.unique().n_units == 3


class TestCanonicalJoin:
    @pytest.mark.parametrize("modified", [False, True])
    def test_combined_mask_in_the_tables_own_order(self, modified):
        """CLIQUE's walk joins the dense table in canonical order and
        reads the combined-mask back in the table's own row order."""
        dense = table([(0, 1), (2, 3)], [(3, 0), (4, 4)], [(0, 1), (1, 2)])
        jr = _canonical_join(dense, 0, dense.n_units, modified=modified)
        assert jr.combined.tolist() == [True, False, True]
        assert list(jr.cdus) == [((0, 1), (1, 2), (2, 3))]


class TestAprioriPrune:
    def test_candidate_with_nondense_subset_dropped(self):
        dense = table([(0, 0), (1, 0)], [(0, 0), (2, 0)]).sort()
        candidates = table([(0, 0), (1, 0), (2, 0)])
        keep = apriori_prune(candidates, dense)
        # subset {(1,0),(2,0)} is not dense -> pruned
        assert not keep.any()

    def test_candidate_with_all_subsets_kept(self):
        dense = table([(0, 0), (1, 0)], [(0, 0), (2, 0)],
                      [(1, 0), (2, 0)]).sort()
        candidates = table([(0, 0), (1, 0), (2, 0)])
        assert apriori_prune(candidates, dense).all()


class TestCliqueEndToEnd:
    def test_finds_cluster_subspaces(self, two_cluster_dataset):
        res = clique(two_cluster_dataset.records,
                     CliqueParams(bins=10, threshold=0.01,
                                  chunk_records=5000),
                     domains=DOMAINS_10D)
        found = {c.subspace.dims for c in res.clusters}
        assert (1, 6, 7, 8) in found and (2, 3, 4, 5) in found

    def test_explodes_relative_to_mafia(self, two_cluster_dataset):
        """Fig 4 / Table 2 shape: uniform grids generate far more CDUs
        than adaptive grids on the same data."""
        c = clique(two_cluster_dataset.records,
                   CliqueParams(bins=10, threshold=0.01, chunk_records=5000),
                   domains=DOMAINS_10D)
        m = mafia(two_cluster_dataset.records,
                  MafiaParams(chunk_records=5000), domains=DOMAINS_10D)
        c_total = sum(c.cdus_per_level().values())
        m_total = sum(m.cdus_per_level().values())
        assert c_total > 10 * m_total

    def test_boundaries_snap_to_fixed_grid(self, two_cluster_dataset):
        """Fig 1.2a: CLIQUE cluster edges land on multiples of the grid
        pitch, losing the true boundary (truth starts at 5)."""
        res = clique(two_cluster_dataset.records,
                     CliqueParams(bins=10, threshold=0.01,
                                  chunk_records=5000),
                     domains=DOMAINS_10D)
        target = [c for c in res.clusters if c.subspace.dims == (2, 3, 4, 5)]
        assert target
        for term in target[0].dnf:
            for lo, hi in term.intervals:
                assert lo % 10.0 == pytest.approx(0.0)
                assert hi % 10.0 == pytest.approx(0.0)

    def test_modified_join_at_least_as_many_cdus(self, two_cluster_dataset):
        """§5.5: the any-(k−2) join explores a superset of the prefix
        join's candidates."""
        base = CliqueParams(bins=5, threshold=0.02, chunk_records=5000,
                            apriori_prune=False)
        plain = clique(two_cluster_dataset.records, base, domains=DOMAINS_10D)
        modified = clique(two_cluster_dataset.records,
                          base.with_(modified_join=True), domains=DOMAINS_10D)
        for level, n in plain.cdus_per_level().items():
            assert modified.cdus_per_level().get(level, 0) >= n

    def test_apriori_prune_reduces_candidates(self, two_cluster_dataset):
        base = CliqueParams(bins=10, threshold=0.012, chunk_records=5000)
        pruned = clique(two_cluster_dataset.records, base,
                        domains=DOMAINS_10D)
        unpruned = clique(two_cluster_dataset.records,
                          base.with_(apriori_prune=False),
                          domains=DOMAINS_10D)
        p_total = sum(pruned.cdus_per_level().values())
        u_total = sum(unpruned.cdus_per_level().values())
        assert p_total <= u_total
        # pruning must not change which units are dense
        assert pruned.dense_per_level() == unpruned.dense_per_level()

    def test_mdl_prune_reduces_or_keeps_subspaces(self, two_cluster_dataset):
        base = CliqueParams(bins=10, threshold=0.01, chunk_records=5000)
        full = clique(two_cluster_dataset.records, base, domains=DOMAINS_10D)
        mdl = clique(two_cluster_dataset.records, base.with_(mdl_prune=True),
                     domains=DOMAINS_10D)
        assert len(mdl.clusters) <= len(full.clusters)

    def test_threshold_supervision_matters(self, two_cluster_dataset):
        """The paper's point: CLIQUE's output hinges on the user's τ."""
        low = clique(two_cluster_dataset.records,
                     CliqueParams(bins=10, threshold=0.005,
                                  chunk_records=5000), domains=DOMAINS_10D)
        high = clique(two_cluster_dataset.records,
                      CliqueParams(bins=10, threshold=0.2,
                                   chunk_records=5000), domains=DOMAINS_10D)
        assert sum(low.dense_per_level().values()) > \
            sum(high.dense_per_level().values())


class TestSharedDriverHelpers:
    def test_too_many_dimensions_is_a_data_error(self):
        """CLIQUE seeds its lattice with the driver's level-one CDUs, so
        past the byte-array dimension limit it refuses the data the way
        ``mafia()`` does, not with a raw numpy overflow."""
        records = np.random.default_rng(3).random((64, 260))
        for run in (lambda: clique(records, CliqueParams(bins=4)),
                    lambda: mafia(records)):
            with pytest.raises(DataError, match="260 dimensions"):
                run()

    def test_pclique_rejects_disagreeing_ranks(self, monkeypatch,
                                               two_cluster_dataset):
        """``pclique`` bundles its ranks through the driver's
        cross-check, which refuses ranks that disagree."""
        # ``repro.clique``'s ``clique`` function shadows the module
        clique_module = importlib.import_module("repro.clique.clique")
        real = clique_module.clique_rank

        def skewed(comm, *args):
            result = real(comm, *args)
            if comm.rank == 1:
                result = result.__class__(
                    grid=result.grid, clusters=result.clusters[1:],
                    trace=result.trace, params=result.params,
                    n_records=result.n_records)
            return result

        monkeypatch.setattr(clique_module, "clique_rank", skewed)
        with pytest.raises(DataError, match="disagree"):
            pclique(two_cluster_dataset.records, 2,
                    CliqueParams(bins=8, threshold=0.01,
                                 chunk_records=5000),
                    domains=DOMAINS_10D)


class TestParallelClique:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_matches_serial(self, two_cluster_dataset, nprocs):
        params = CliqueParams(bins=8, threshold=0.01, chunk_records=5000)
        serial = clique(two_cluster_dataset.records, params,
                        domains=DOMAINS_10D)
        run = pclique(two_cluster_dataset.records, nprocs, params,
                      domains=DOMAINS_10D)
        assert run.result.cdus_per_level() == serial.cdus_per_level()
        assert run.result.dense_per_level() == serial.dense_per_level()
        assert [c.subspace.dims for c in run.result.clusters] == \
            [c.subspace.dims for c in serial.clusters]

    def test_sim_backend_times(self, two_cluster_dataset):
        params = CliqueParams(bins=8, threshold=0.01, chunk_records=5000)
        t1 = pclique(two_cluster_dataset.records, 1, params, backend="sim",
                     domains=DOMAINS_10D).makespan
        t4 = pclique(two_cluster_dataset.records, 4, params, backend="sim",
                     domains=DOMAINS_10D).makespan
        assert 0 < t4 < t1


class TestCliqueFaultSites:
    def test_join_crash_point_fires(self, two_cluster_dataset):
        """CLIQUE runs the shared level walk, so it announces the walk's
        fault sites (``populate``, ``join``, ``dedup``)."""
        plan = FaultPlan(crashes=(CrashPoint(rank=1, site="join",
                                             level=2),))
        with pytest.raises(InjectedFailure,
                           match="rank 1 at site 'join'"):
            run_spmd(clique_rank, 2, faults=plan, recv_timeout=10.0,
                     args=(two_cluster_dataset.records,
                           CliqueParams(bins=8, threshold=0.01,
                                        chunk_records=5000),
                           DOMAINS_10D))
