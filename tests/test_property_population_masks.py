"""Property-based tests: population counting, prefix join semantics,
and the cluster-report masks (maximal / merged)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique.join import prefix_join_all
from repro.core.dnf import maximal_mask, merged_mask, projections
from repro.core.mafia import mafia
from repro.core.pmafia import registrations_for_report
from repro.core.population import populate_local
from repro.core.units import UnitTable
from repro.datagen import ClusterSpec, generate
from repro.io import ArraySource
from repro.params import MafiaParams
from repro.parallel import SerialComm
from repro.types import DimensionGrid, Grid


def uniform_grid(d: int, nbins: int) -> Grid:
    dims = []
    for j in range(d):
        dims.append(DimensionGrid(dim=j, lo=0.0, hi=100.0, n_fine=nbins,
                                  cuts=tuple(range(nbins + 1)),
                                  thresholds=(1.0,) * nbins))
    return Grid(dims=tuple(dims))


@st.composite
def records_and_units(draw):
    d = draw(st.integers(2, 5))
    nbins = draw(st.integers(2, 5))
    n = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    records = rng.random((n, d)) * 100.0
    level = draw(st.integers(1, min(3, d)))
    n_units = draw(st.integers(1, 15))
    units = []
    for _ in range(n_units):
        dims = sorted(rng.choice(d, size=level, replace=False).tolist())
        units.append([(dim, int(rng.integers(0, nbins))) for dim in dims])
    return records, uniform_grid(d, nbins), UnitTable.from_pairs(units).unique()


class TestPopulationProperties:
    @given(records_and_units(), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_for_any_chunking(self, setup, chunk):
        records, grid, units = setup
        got = populate_local(ArraySource(records), SerialComm(), grid,
                             units, chunk)
        idx = grid.locate_records(records)
        for i in range(units.n_units):
            mask = np.ones(len(records), dtype=bool)
            for d, b in units.unit(i):
                mask &= idx[:, d] == b
            assert got[i] == mask.sum()

    @given(records_and_units())
    @settings(max_examples=40, deadline=None)
    def test_counts_bounded_by_records(self, setup):
        records, grid, units = setup
        got = populate_local(ArraySource(records), SerialComm(), grid,
                             units, 50)
        assert (got >= 0).all() and (got <= len(records)).all()


@st.composite
def level_tables(draw, level, max_dim=6, max_bin=3, max_units=12):
    n = draw(st.integers(0, max_units))
    units = []
    for _ in range(n):
        dims = draw(st.lists(st.integers(0, max_dim - 1), min_size=level,
                             max_size=level, unique=True))
        units.append([(d, draw(st.integers(0, max_bin))) for d in sorted(dims)])
    if not units:
        return UnitTable.empty(level)
    return UnitTable.from_pairs(units).unique()


class TestPrefixJoinProperties:
    @given(level_tables(level=2))
    @settings(max_examples=50, deadline=None)
    def test_prefix_join_subset_of_mafia_join(self, dense):
        from repro.core.candidates import join_all
        dense = dense.sort()
        prefix = prefix_join_all(dense).cdus.unique()
        full = join_all(dense).cdus.unique()
        if prefix.n_units:
            assert full.contains_rows(prefix).all()

    @given(level_tables(level=2))
    @settings(max_examples=50, deadline=None)
    def test_prefix_join_matches_definition(self, dense):
        """Candidates are exactly the unions of unit pairs sharing their
        first k−2 (dim, bin) coordinates with distinct last dims."""
        dense = dense.sort()
        got = set(prefix_join_all(dense).cdus.unique()) \
            if dense.n_units else set()
        expected = set()
        units = list(dense)
        for i in range(len(units)):
            for j in range(len(units)):
                if i >= j:
                    continue
                u, v = units[i], units[j]
                if u[:-1] == v[:-1] and u[-1][0] != v[-1][0]:
                    expected.add(tuple(sorted(set(u) | set(v))))
        assert got == expected


class TestReportMaskProperties:
    @given(level_tables(level=3))
    @settings(max_examples=50, deadline=None)
    def test_merged_mask_implies_maximal_mask(self, higher):
        """merged suppresses a superset of what maximal suppresses."""
        if higher.n_units == 0:
            return
        lower = projections(higher).unique()
        maximal = maximal_mask(lower, higher)
        merged = merged_mask(lower, higher)
        assert (~maximal | ~merged | (maximal & merged)).all()
        assert (merged <= maximal).all()  # merged True -> maximal True

    @given(level_tables(level=3))
    @settings(max_examples=50, deadline=None)
    def test_projections_never_maximal(self, higher):
        if higher.n_units == 0:
            return
        lower = projections(higher).unique()
        assert not maximal_mask(lower, higher).any()

    @given(level_tables(level=2))
    @settings(max_examples=50, deadline=None)
    def test_unrelated_subspaces_survive_merged(self, higher):
        """A unit in dimensions disjoint from every higher unit is kept
        by both policies."""
        if higher.n_units == 0:
            return
        lower = UnitTable.from_pairs([[(200, 0)]])
        assert maximal_mask(lower, higher).all()
        assert merged_mask(lower, higher).all()


def naive_report_mask(lower: UnitTable, higher: UnitTable,
                      reach: int) -> list[bool]:
    """Brute-force report mask: a lower unit is kept unless some unique
    projection of a higher unit lies in the same dims with every bin
    within ``reach`` (0 = ``maximal``, 1 = ``merged``'s Chebyshev ball).
    Checks every (lower unit, projection) pair; no packing, no sorting."""
    projs = {unit[:drop] + unit[drop + 1:]
             for unit in higher for drop in range(len(unit))}
    keep = []
    for unit in lower:
        dims = [d for d, _ in unit]
        suppressed = any(
            [d for d, _ in proj] == dims
            and max(abs(b - c) for (_, b), (_, c) in zip(unit, proj)) <= reach
            for proj in projs)
        keep.append(not suppressed)
    return keep


@st.composite
def report_mask_cases(draw, level):
    """``(lower, higher)``: ``higher`` at ``level`` over a few subspaces
    (or one, all units sharing their first bin) with bins at both byte
    edges; ``lower`` mixes the higher table's
    projections shifted by −2..+2 per bin (clipped to the byte range)
    with unrelated units."""
    n_dims = level + 2
    subspace = st.lists(st.integers(0, n_dims - 1), min_size=level,
                        max_size=level, unique=True).map(sorted)
    edge_bins = st.sampled_from([0, 1, 2, 127, 128, 253, 254, 255])
    # some draws put every higher unit in one subspace with one shared
    # first bin, so the join's first-bin band holds the whole subspace
    one_band = draw(st.booleans())
    subspaces = draw(st.lists(subspace, min_size=1,
                              max_size=1 if one_band else 3))
    n = draw(st.integers(1, 12 if one_band else 8))
    bins = np.array([draw(st.lists(edge_bins, min_size=level,
                                   max_size=level)) for _ in range(n)],
                    dtype=np.uint8)
    if one_band:
        bins[:, 0] = draw(edge_bins)
    higher = UnitTable(
        dims=np.array([draw(st.sampled_from(subspaces)) for _ in range(n)],
                      dtype=np.uint8),
        bins=bins).unique()
    proj = projections(higher)
    picks = draw(st.lists(st.integers(0, proj.n_units - 1), max_size=16))
    shifts = draw(st.lists(
        st.lists(st.sampled_from([-2, -1, 0, 0, 1, 2]), min_size=level - 1,
                 max_size=level - 1),
        min_size=len(picks), max_size=len(picks)))
    idx = np.asarray(picks, dtype=np.int64)
    shifted = proj.bins[idx].astype(np.int16) + np.asarray(
        shifts, dtype=np.int16).reshape(len(picks), level - 1)
    near = UnitTable(dims=proj.dims[idx],
                     bins=np.clip(shifted, 0, 255).astype(np.uint8))
    n_stray = draw(st.integers(0, 4))
    stray_sub = st.lists(st.integers(0, n_dims - 1), min_size=level - 1,
                         max_size=level - 1, unique=True).map(sorted)
    stray = UnitTable(
        dims=np.array([draw(stray_sub) for _ in range(n_stray)],
                      dtype=np.uint8).reshape(n_stray, level - 1),
        bins=np.array([draw(st.lists(edge_bins, min_size=level - 1,
                                     max_size=level - 1))
                       for _ in range(n_stray)],
                      dtype=np.uint8).reshape(n_stray, level - 1))
    return near.concat(stray), higher


class TestReportMasksAgainstNaiveOracle:
    """``maximal_mask``/``merged_mask`` against :func:`naive_report_mask`
    for higher levels 2–6, with bins at 0 and 255 so the byte-range
    clipping of the join's first-bin band runs."""

    @pytest.mark.parametrize("level", range(2, 7))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_maximal_mask(self, level, data):
        lower, higher = data.draw(report_mask_cases(level))
        assert maximal_mask(lower, higher).tolist() == naive_report_mask(
            lower, higher, reach=0)

    @pytest.mark.parametrize("level", range(2, 7))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_merged_mask(self, level, data):
        lower, higher = data.draw(report_mask_cases(level))
        assert merged_mask(lower, higher).tolist() == naive_report_mask(
            lower, higher, reach=1)

    def test_merged_mask_exact_past_old_expansion_limit(self):
        """A level-12 unit's Chebyshev ball has 3^11 cells per
        projection, past the 2M rows where a neighbour expansion once
        stopped early and kept units whose last bin was one off."""
        higher = UnitTable(dims=np.arange(12, dtype=np.uint8)[None, :],
                           bins=np.full((1, 12), 100, dtype=np.uint8))
        proj = projections(higher)
        bins = proj.bins.copy()
        bins[:, -1] += 1
        lower = UnitTable(dims=proj.dims, bins=bins)
        assert naive_report_mask(lower, higher, reach=1) == [False] * 12
        assert merged_mask(lower, higher).tolist() == [False] * 12
        assert maximal_mask(lower, higher).tolist() == naive_report_mask(
            lower, higher, reach=0) == [True] * 12


def _grid_report_mask(lower: UnitTable, higher: UnitTable,
                      reach: int) -> np.ndarray:
    """Report mask for level-2 ``lower`` units: mark each subspace's
    projections in a dense 256 x 256 grid, dilate it by ``reach`` and
    look every lower unit up."""
    marked: dict[tuple[int, ...], np.ndarray] = {}
    for drop in range(higher.level):
        keep = [j for j in range(higher.level) if j != drop]
        for dims, bins in zip(higher.dims[:, keep].tolist(),
                              higher.bins[:, keep].tolist()):
            grid = marked.setdefault(tuple(dims),
                                     np.zeros((256, 256), dtype=bool))
            grid[tuple(bins)] = True
    keep = np.ones(lower.n_units, dtype=bool)
    for dims, grid in marked.items():
        padded = np.pad(grid, reach)
        near = np.zeros_like(grid)
        for di in range(2 * reach + 1):
            for dj in range(2 * reach + 1):
                near |= padded[di:di + 256, dj:dj + 256]
        rows = (lower.dims == np.asarray(dims, dtype=np.uint8)).all(axis=1)
        keep[rows] = ~near[lower.bins[rows, 0], lower.bins[rows, 1]]
    return keep


class TestReportMaskJoinBounds:
    def test_wide_single_subspace(self):
        """20k level-3 units in one subspace, all on first bin 100: two
        projected subspaces hold one first bin each, the third 20k
        cells.  Every cell of the three subspaces is a lower unit, so
        the first-bin bands hold millions of candidate pairs; the join
        must stay exact and compare them in bounded memory."""
        rng = np.random.default_rng(0)
        cells = rng.choice(256 * 256, size=20_000, replace=False)
        higher = UnitTable(
            dims=np.tile(np.array([3, 7, 9], dtype=np.uint8), (20_000, 1)),
            bins=np.column_stack([np.full(20_000, 100), cells // 256,
                                  cells % 256]).astype(np.uint8))
        every = np.arange(256 * 256)
        square = np.column_stack([every // 256, every % 256])
        lower = UnitTable.concat_all([
            UnitTable(dims=np.tile(np.array(dims, dtype=np.uint8),
                                   (len(square), 1)), bins=square)
            for dims in ((3, 7), (3, 9), (7, 9))])
        for mask_fn, reach in ((maximal_mask, 0), (merged_mask, 1)):
            tracemalloc.start()
            try:
                got = mask_fn(lower, higher)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(
                got, _grid_report_mask(lower, higher, reach))
            assert peak <= 64 << 20

    def test_deep_planted_lattice(self):
        """An eight-level lattice from a planted 8-d cluster: the
        registrations of both report policies equal the ones rebuilt
        level by level from the naive oracle."""
        spec = ClusterSpec.box(
            [0, 2, 3, 5, 6, 8, 9, 11],
            [(10.3 + 10 * i, 20.6 + 10 * i + i % 3) for i in range(8)])
        side = ClusterSpec.box([1, 4, 7, 10], [(30.2, 45.1), (5.4, 17.3),
                                               (60.1, 74.7), (40.8, 52.2)])
        data = generate(30_000, 12, [spec, side], seed=0)
        trace = mafia(data.records,
                      MafiaParams(fine_bins=200, window_size=2,
                                  chunk_records=5000),
                      domains=np.array([[0.0, 100.0]] * 12)).trace
        assert len(trace) == 8
        got = {}
        for report, reach in (("maximal", 0), ("merged", 1)):
            expected = []
            for i, level in enumerate(trace):
                if level.n_dense == 0:
                    continue
                keep = (np.asarray(naive_report_mask(
                    level.dense, trace[i + 1].dense, reach), dtype=bool)
                    if i + 1 < len(trace)
                    else np.ones(level.n_dense, dtype=bool))
                if keep.any():
                    expected.append((level.dense.select(keep),
                                     level.dense_counts[keep]))
            got[report] = registrations_for_report(trace, [], report)
            assert len(got[report]) == len(expected)
            for (table, counts), (want, want_counts) in zip(got[report],
                                                            expected):
                assert table == want
                np.testing.assert_array_equal(counts, want_counts)
        # a level-1 sliver beside the 8-d cluster: the policies differ
        assert (sum(t.n_units for t, _ in got["maximal"])
                > sum(t.n_units for t, _ in got["merged"]))
