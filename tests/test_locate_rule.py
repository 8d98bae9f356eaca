"""The one locate rule: a record's bin is ``lut[fine_code]``.

Every bin is a run of fine histogram intervals, so bin membership and
the fine histogram are one computation.  Staging packs the bitmaps by
range comparison of the fine codes against the cuts, with no lookup
table; two oracles hold it to the rule — each level-1 bitmap's popcount
equals the sum of its bin's fine-histogram counts, and every bit of
every bitmap equals ``DimensionGrid.locate(x) == b`` — for records on
edges, outside the domain, infinite or NaN.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import MafiaParams, mafia
from repro.core.adaptive_grid import build_dimension_grid
from repro.core.histogram import block_histogram, code_dtype, fine_codes
from repro.errors import ParameterError
from repro.io import ArraySource
from repro.io.bitmap_index import build_bitmap_index, index_nbytes
from repro.types import DimensionGrid, Grid

#: fine-interval counts on both sides of the uint8/uint16 code split
FINE_BINS = (1, 7, 200, 256, 257, 1000)

#: values that stress the rule: NaN, both infinities, the extremes of
#: float64 and both zeros
SPECIALS = (np.nan, np.inf, -np.inf, 1e308, -1e308, -0.0, 0.0)

#: (lo, hi) domains, including one whose edges are inexact binary
DOMAINS = ((0.0, 100.0), (-3.0, 7.0), (0.0, 0.7), (1e5, 1e7))


def popcount(bitmap: np.ndarray) -> int:
    return int(np.unpackbits(bitmap).sum())


@st.composite
def grids_and_records(draw):
    """A grid with uneven cuts per dimension plus records drawn from its
    edges, their float neighbours, the specials and values in and
    around the domain."""
    d = draw(st.integers(1, 3))
    # production grids share one n_fine (so one code dtype); mixed
    # widths stress per-dimension cut dtypes
    shared = draw(st.one_of(st.none(), st.sampled_from(FINE_BINS)))
    dims = []
    for j in range(d):
        lo, hi = draw(st.sampled_from(DOMAINS))
        n_fine = shared or draw(st.sampled_from(FINE_BINS))
        one_bin = draw(st.integers(0, 3)) == 0
        inner = set() if one_bin else draw(
            st.sets(st.integers(1, max(1, n_fine - 1)),
                    max_size=min(12, n_fine - 1)))
        cuts = (0, *sorted(inner), n_fine)
        dims.append(DimensionGrid(dim=j, lo=lo, hi=hi, n_fine=n_fine,
                                  cuts=cuts,
                                  thresholds=(1.0,) * (len(cuts) - 1)))
    grid = Grid(dims=tuple(dims))
    edges = np.array([e for dg in grid for e in dg.edges])
    near = np.concatenate([np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf)])
    span = max(dg.hi - dg.lo for dg in grid)
    low = min(dg.lo for dg in grid) - span / 10
    pool = st.one_of(st.sampled_from(SPECIALS),
                     st.sampled_from(edges.tolist()),
                     st.sampled_from(near.tolist()),
                     st.floats(low, low + span * 1.2, allow_nan=False))
    n = draw(st.sampled_from([0, 1, 7, 8, 9, 23, 64, 130]))
    records = np.array(
        draw(st.lists(st.lists(pool, min_size=d, max_size=d),
                      min_size=n, max_size=n)),
        dtype=np.float64).reshape(n, d)
    chunk = draw(st.sampled_from([1, 3, 9, 17, 100]))
    return grid, records, chunk


def dimension_histogram(records: np.ndarray, dg: DimensionGrid
                        ) -> np.ndarray:
    """The fine histogram of one dimension, as the batch pass builds it."""
    domain = np.array([[dg.lo, dg.hi]])
    return block_histogram(records[:, [dg.dim]], domain, dg.n_fine)[0]


class TestInvariant:
    @given(grids_and_records())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_level1_popcount_is_fine_histogram_sum(self, case):
        grid, records, chunk = case
        n = len(records)
        codes = kept_codes(grid, records)
        source = ArraySource(records)
        from_records = build_bitmap_index(source, grid, chunk)
        from_codes = build_bitmap_index(source, grid, chunk, codes=codes)
        for dg in grid:
            hist = dimension_histogram(records, dg)
            assert int(hist.sum()) == n
            for b in range(dg.nbins):
                expected = int(hist[dg.cuts[b]:dg.cuts[b + 1]].sum())
                pair = from_records.pair_id(dg.dim, b)
                assert popcount(from_records.bitmap(pair)) == expected, \
                    (dg.dim, b)
                assert np.array_equal(from_codes.bitmap(pair),
                                      from_records.bitmap(pair)), (dg.dim, b)


def kept_codes(grid: Grid, records: np.ndarray) -> np.ndarray:
    """The ``(d, n)`` codes the histogram pass keeps, in its dtype
    (``code_dtype`` of the widest dimension: ``uint8`` up to 256 fine
    intervals)."""
    dtype = code_dtype(max(dg.n_fine for dg in grid))
    codes = np.empty((grid.ndim, len(records)), dtype=dtype)
    for dg in grid:
        codes[dg.dim] = fine_codes(records[:, dg.dim], dg.lo,
                                   dg.hi - dg.lo, dg.n_fine)
    return codes


def assert_bits_follow_locate(index, grid: Grid, records: np.ndarray,
                              what: str) -> None:
    """Every bit of every (dim, bin) bitmap — padding included — is
    ``locate(x) == b``."""
    assert index.n_records == len(records)
    for dg in grid:
        located = dg.locate(records[:, dg.dim])
        for b in range(dg.nbins):
            expected = np.packbits(located == b)
            got = np.asarray(index.bitmap(index.pair_id(dg.dim, b)))
            assert np.array_equal(got, expected), (what, dg.dim, b)


class TestBitLevelOracle:
    @given(grids_and_records())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_every_bit_is_the_locate_rule(self, case):
        """Kept codes in the production dtype, codes-only staging (no
        record source) and codes recomputed from the floats, each
        resident and spilled, at chunk sizes off the byte grid."""
        grid, records, chunk = case
        codes = kept_codes(grid, records)
        source = ArraySource(records)
        with tempfile.TemporaryDirectory() as tmp:
            for spilled in (False, True):
                path = Path(tmp) / "index.bmx" if spilled else None
                for what, kwargs in (
                        ("kept", dict(source=source, codes=codes)),
                        ("codes-only", dict(source=None, codes=codes)),
                        ("recomputed", dict(source=source))):
                    index = build_bitmap_index(
                        grid=grid, chunk_records=chunk, path=path,
                        **kwargs)
                    assert index.resident == (not spilled or not records.size)
                    assert_bits_follow_locate(index, grid, records,
                                              (what, spilled))
                    del index

    @given(grids_and_records())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_locate_records_is_locate_per_column(self, case):
        """The block path (one ``block_codes`` call per distinct
        ``n_fine``, then each dimension's lookup table) is byte for
        byte one ``DimensionGrid.locate`` per column, on grids that mix
        fine-interval counts across the uint8/uint16 code split."""
        grid, records, _ = case
        located = grid.locate_records(records)
        assert located.dtype == np.uint8
        for dg in grid:
            assert np.array_equal(located[:, dg.dim],
                                  dg.locate(records[:, dg.dim])), dg.dim

    def test_top_cut_does_not_wrap_in_uint8_codes(self):
        """At 256 fine intervals the codes are ``uint8`` and the top
        cut (256) does not fit them: the last bin must still hold every
        record at or above its lower cut."""
        grid = Grid(dims=(DimensionGrid(dim=0, lo=0.0, hi=256.0,
                                        n_fine=256, cuts=(0, 255, 256),
                                        thresholds=(1.0, 1.0)),))
        records = np.array([[0.0], [254.9], [255.0], [255.5], [256.0],
                            [np.inf], [np.nan], [-1.0], [300.0]])
        codes = kept_codes(grid, records)
        assert codes.dtype == np.uint8
        index = build_bitmap_index(None, grid, 8, codes=codes)
        assert_bits_follow_locate(index, grid, records, "uint8")
        assert np.unpackbits(index.bitmap(1))[:9].tolist() == \
            [0, 0, 1, 1, 1, 1, 1, 0, 1]


class TestFineCodes:
    def test_nan_gets_the_last_fine_code(self):
        """NaN lands in the last fine interval — the last bin, where the
        bitmap puts it — with no undefined float-to-int cast."""
        block = np.array([[np.nan, 5.0], [1.0, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = block_histogram(block, np.array([[0.0, 10.0]] * 2), 10)
        assert counts[0, 9] == 1 and counts[1, 9] == 1
        assert counts[0, 1] == 1 and counts[1, 5] == 1

    def test_clip_rule(self):
        values = np.array([-np.inf, -1e308, -5.0, -0.0, 0.0, 9.99, 10.0,
                           1e308, np.inf, np.nan])
        assert fine_codes(values, 0.0, 10.0, 10).tolist() == \
            [0, 0, 0, 0, 0, 9, 9, 9, 9, 9]

    @pytest.mark.parametrize("fine_bins, dtype",
                             [(1, np.uint8), (256, np.uint8),
                              (257, np.uint16), (1000, np.uint16)])
    def test_code_width(self, fine_bins, dtype):
        assert code_dtype(fine_bins) == dtype
        codes = fine_codes(np.array([0.0, 1.0]), 0.0, 1.0, fine_bins)
        assert codes.dtype == dtype
        assert codes.tolist() == [0, fine_bins - 1]

    def test_kept_codes_stage_the_same_clusters(self, one_cluster_dataset,
                                                small_params):
        """The histogram pass's kept codes and codes recomputed from
        the records (a budget too small to hold the codes beside the
        index) stage the same index, so the runs agree exactly."""
        records = one_cluster_dataset.records.copy()
        records[::97, 2] = np.nan
        records[::89, 4] = 100.0
        domains = np.array([[0.0, 100.0]] * records.shape[1])
        kept = mafia(records, small_params, domains=domains)
        budget = index_nbytes(kept.grid, len(records))
        recomputed = mafia(records,
                           small_params.with_(bitmap_budget=budget),
                           domains=domains)
        assert recomputed.summary() == kept.summary()
        for a, b in zip(kept.trace, recomputed.trace):
            assert a.dense.tobytes() == b.dense.tobytes()
            assert np.array_equal(a.dense_counts, b.dense_counts)


class TestUniformResplit:
    def params(self, fine_bins, uniform_split, window_size=1):
        return MafiaParams(fine_bins=fine_bins, window_size=window_size,
                           uniform_split=uniform_split)

    def test_uneven_split_snaps_to_fine_intervals(self):
        """Cut k is k * n_fine // uniform_split: widths differ by at most
        one fine interval, and thresholds follow the actual widths."""
        dg = build_dimension_grid(0, np.full(7, 50), (0.0, 7.0), 350,
                                  self.params(7, 3))
        assert dg.uniform
        assert dg.cuts == (0, 2, 4, 7)
        assert dg.edges == (0.0, 2.0, 4.0, 7.0)
        boost = MafiaParams().uniform_alpha_boost
        alpha = MafiaParams().alpha * boost
        assert dg.thresholds == pytest.approx(
            [alpha * 350 * w / 7.0 for w in (2.0, 2.0, 3.0)])

    @pytest.mark.parametrize("fine_bins, window_size",
                             [(1000, 5), (200, 2)])
    def test_dividing_split_keeps_equal_edges(self, fine_bins, window_size):
        for lo, hi in ((0.0, 100.0), (-3.0, 7.0), (0.0, 1e7)):
            dg = build_dimension_grid(
                0, np.full(fine_bins, 50), (lo, hi), 1000,
                self.params(fine_bins, 5, window_size))
            assert dg.uniform
            assert dg.edges == tuple(np.linspace(lo, hi, 6))

    def test_split_cannot_exceed_fine_bins(self):
        with pytest.raises(ParameterError, match="uniform_split"):
            self.params(4, 5)
        self.params(5, 5)


def test_no_float_search_in_the_locate_path():
    """Bins are found by fine code only; a ``searchsorted`` over float
    edges is a second rule that can disagree with the histogram near
    an edge.  Staging has one rule, codes against cuts: the bitmap
    index and the stream engine use neither the lookup table nor
    ``locate``, which stay the oracle.  Serving compiles its terms to
    fine-code lookup tables, so it searches no floats either."""
    package = Path(repro.__file__).parent
    staging = [package / "io" / "bitmap_index.py",
               *sorted((package / "stream").rglob("*.py"))]
    sources = [package / "types.py", package / "core" / "histogram.py",
               package / "core" / "adaptive_grid.py",
               package / "serve" / "compile.py", *staging]
    for source in sources:
        assert "searchsorted" not in source.read_text(encoding="utf-8"), \
            source
    for source in staging:
        text = source.read_text(encoding="utf-8")
        assert ".lut" not in text and "locate(" not in text, source
