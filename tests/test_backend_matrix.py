"""Cross-backend/equivalence matrix and order-invariance guarantees.

The strongest correctness statement the substrate can make: the same
data produces byte-identical clusterings across every execution mode
(serial / threads / processes / simulated time, flat or tree
collectives, in-memory or staged-from-disk), and independent of record
order — pMAFIA is a counting algorithm, so §5.1's record permutation
must never change the result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MafiaParams, mafia, pmafia
from repro.core.pmafia import pmafia_rank
from repro.io import write_records
from repro.parallel import run_spmd
from tests.conftest import DOMAINS_10D


def fingerprint(result):
    return (
        result.cdus_per_level(),
        result.dense_per_level(),
        tuple(c.describe() for c in result.clusters),
        tuple(c.point_count for c in result.clusters),
    )


@pytest.fixture(scope="module")
def reference(one_cluster_dataset, small_params):
    return fingerprint(mafia(one_cluster_dataset.records, small_params,
                             domains=DOMAINS_10D))


class TestBackendMatrix:
    @pytest.mark.parametrize("backend,nprocs", [
        ("thread", 2), ("thread", 5), ("sim", 3), ("process", 2)])
    @pytest.mark.parametrize("collectives", ["flat", "tree"])
    def test_all_modes_identical(self, one_cluster_dataset, small_params,
                                 reference, backend, nprocs, collectives):
        ranks = run_spmd(pmafia_rank, nprocs, backend=backend,
                         collectives=collectives,
                         args=(one_cluster_dataset.records, small_params,
                               DOMAINS_10D))
        for rank in ranks:
            assert fingerprint(rank.value) == reference

    def test_file_vs_array_identical(self, tmp_path, one_cluster_dataset,
                                     small_params, reference):
        shared = tmp_path / "m.bin"
        write_records(shared, one_cluster_dataset.records)
        run = pmafia(shared, 3, small_params, domains=DOMAINS_10D)
        assert fingerprint(run.result) == reference

    def test_chunk_size_invariant(self, one_cluster_dataset, small_params,
                                  reference):
        for chunk in (137, 999, 10**6):
            res = mafia(one_cluster_dataset.records,
                        small_params.with_(chunk_records=chunk),
                        domains=DOMAINS_10D)
            assert fingerprint(res) == reference


class TestOrderInvariance:
    def test_record_permutation_changes_nothing(self, one_cluster_dataset,
                                                small_params, reference):
        rng = np.random.default_rng(99)
        for _ in range(3):
            shuffled = one_cluster_dataset.records[
                rng.permutation(one_cluster_dataset.n_records)]
            res = mafia(shuffled, small_params, domains=DOMAINS_10D)
            assert fingerprint(res) == reference

    def test_sorted_input_changes_nothing(self, one_cluster_dataset,
                                          small_params, reference):
        """Adversarial order: records sorted by the first cluster
        dimension (each rank's block sees a skewed value range)."""
        ordered = one_cluster_dataset.records[
            np.argsort(one_cluster_dataset.records[:, 1])]
        res = mafia(ordered, small_params, domains=DOMAINS_10D)
        assert fingerprint(res) == reference
        run = pmafia(ordered, 4, small_params, domains=DOMAINS_10D)
        assert fingerprint(run.result) == reference


#: a 6-dim planted cluster in 12 dims: eight levels of sparse lattice
DEEP_PARAMS = MafiaParams(alpha=1.5, beta=0.35, chunk_records=1000)

#: (tau, p) -> (per-rank virtual seconds, total unit-pair operations) of
#: the deep lattice on the sim backend, recorded from the pairwise
#: Algorithm 3 sweep over equation (1) fences — the paper's cost model,
#: which the hash join must charge unchanged
DEEP_SIM_COSTS = {
    (64, 1): ([1.2641803999999992], 972),
    (64, 4): ([0.3352168666666667, 0.3350815411764706,
               0.33514920392156866, 0.3352168666666667], 14638),
    (64, 8): ([0.2635697843137257, 0.2631638078431373,
               0.2632314705882354, 0.26329913333333343,
               0.2633667960784315, 0.26343445882352956,
               0.2635021215686276, 0.2635697843137257], 17678),
    (1, 1): ([1.2641803999999992], 972),
    (1, 4): ([0.3383872490196081, 0.33825192352941197,
              0.33831958627451003, 0.3383872490196081], 16006),
    (1, 8): ([0.2693851313725494, 0.268979154901961,
              0.26904681764705907, 0.26911448039215713,
              0.2691821431372552, 0.26924980588235325,
              0.2693174686274513, 0.2693851313725494], 16010),
}


def deep_fingerprint(result):
    """Clusters plus every level's dense table and counts."""
    sig = [result.cdus_per_level(), result.dense_per_level()]
    for t in result.trace:
        sig.append(t.dense.tobytes())
        sig.append(t.dense_counts.tobytes())
    for c in result.clusters:
        sig.append((c.subspace.dims, c.units_bins.tolist(),
                    c.point_count, c.dnf))
    return sig


class TestDeepLattice:
    """A sparse deep lattice, task-parallel at every level (τ = 1), so
    every join and dedup runs fenced across ranks."""

    @pytest.fixture(scope="class")
    def deep_dataset(self):
        rng = np.random.default_rng(7)
        data = rng.random((4000, 12))
        members = rng.choice(4000, 1200, replace=False)
        for j in range(6):
            data[members, j] = 0.15 + 0.02 * rng.random(1200)
        return data

    @pytest.fixture(scope="class")
    def deep_reference(self, deep_dataset):
        result = mafia(deep_dataset, DEEP_PARAMS)
        assert len(result.trace) >= 6          # the walk really goes deep
        return deep_fingerprint(result)

    @pytest.mark.parametrize("backend,nprocs", [
        ("serial", 1), ("thread", 2), ("thread", 5), ("process", 2)])
    def test_deep_lattice(self, deep_dataset, deep_reference, backend,
                          nprocs):
        ranks = run_spmd(pmafia_rank, nprocs, backend=backend,
                         args=(deep_dataset, DEEP_PARAMS.with_(tau=1)))
        for rank in ranks:
            assert deep_fingerprint(rank.value) == deep_reference

    def test_deep_lattice_per_rank_pairs(self, deep_dataset):
        """Per-rank ``pairs_examined`` is a pure function of the
        equation (1) fences: identical on the thread and process
        backends."""
        def per_rank(backend):
            params = DEEP_PARAMS.with_(tau=1, metrics=True)
            run = pmafia(deep_dataset, 3, params, backend=backend)
            return [(r.metrics["join.pairs_examined"]["value"],
                     r.metrics["dedup.pairs_examined"]["value"])
                    for r in run.obs.ranks]

        threads = per_rank("thread")
        assert per_rank("process") == threads
        assert all(join > 0 and dedup > 0 for join, dedup in threads)

    def test_deep_lattice_sim_times(self, deep_dataset, deep_reference):
        """Virtual clocks and pair charges are pinned to the paper's
        pairwise cost model, below τ and fenced above it."""
        for (tau, p), (rank_times, unit_pair_ops) in DEEP_SIM_COSTS.items():
            run = pmafia(deep_dataset, p, DEEP_PARAMS.with_(tau=tau),
                         backend="sim")
            assert list(run.rank_times) == rank_times, (tau, p)
            assert run.makespan == max(rank_times)
            assert sum(c.unit_pair_ops for c in run.counters) \
                == unit_pair_ops
            assert deep_fingerprint(run.result) == deep_reference
