"""Tests for the histogram / domain passes (repro.core.histogram)."""

from __future__ import annotations

import functools
import gc
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.histogram import (BLOCK_VALUES, block_codes, block_histogram,
                                  code_dtype, domain_tiles,
                                  fine_histogram_global, fine_histogram_local,
                                  global_domains, local_domains)
from repro.errors import DataError
from repro.io import ArraySource
from repro.parallel import SerialComm, run_spmd


@pytest.fixture
def data():
    rng = np.random.default_rng(5)
    return rng.random((2000, 3)) * np.array([100.0, 10.0, 1.0])


class TestDomains:
    def test_local_domains_match_minmax(self, data):
        src = ArraySource(data)
        dom = local_domains(src, SerialComm(), 500)
        np.testing.assert_allclose(dom[:, 0], data.min(axis=0))
        np.testing.assert_allclose(dom[:, 1], data.max(axis=0))

    def test_global_domains_pads_upper_edge(self, data):
        dom = global_domains(ArraySource(data), SerialComm(), 500)
        assert (dom[:, 1] > data.max(axis=0)).all()

    def test_degenerate_dimension_widened(self):
        const = np.full((100, 1), 7.0)
        dom = global_domains(ArraySource(const), SerialComm(), 50)
        assert dom[0, 1] > dom[0, 0]

    def test_parallel_matches_serial(self, data):
        serial = global_domains(ArraySource(data), SerialComm(), 500)

        def prog(comm):
            from repro.io import block_range
            start, stop = block_range(len(data), comm.size, comm.rank)
            return global_domains(ArraySource(data), comm, 500, start, stop)

        for r in run_spmd(prog, 4):
            np.testing.assert_allclose(r.value, serial)

    def test_empty_data_rejected(self):
        with pytest.raises(DataError):
            global_domains(ArraySource(np.empty((0, 2))), SerialComm(), 10)


class TestFineHistogram:
    def test_counts_sum_to_records(self, data):
        dom = global_domains(ArraySource(data), SerialComm(), 500)
        hist = fine_histogram_local(ArraySource(data), SerialComm(), dom,
                                    50, 512)
        assert hist.shape == (3, 50)
        assert (hist.sum(axis=1) == 2000).all()

    def test_matches_numpy_histogram(self, data):
        dom = global_domains(ArraySource(data), SerialComm(), 500)
        hist = fine_histogram_local(ArraySource(data), SerialComm(), dom,
                                    64, 999)
        for j in range(3):
            ref, _ = np.histogram(data[:, j], bins=64,
                                  range=(dom[j, 0], dom[j, 1]))
            np.testing.assert_array_equal(hist[j], ref)

    def test_chunking_invariant(self, data):
        dom = global_domains(ArraySource(data), SerialComm(), 500)
        a = fine_histogram_local(ArraySource(data), SerialComm(), dom, 32, 100)
        b = fine_histogram_local(ArraySource(data), SerialComm(), dom, 32, 2000)
        np.testing.assert_array_equal(a, b)

    def test_global_equals_serial_under_spmd(self, data):
        dom = global_domains(ArraySource(data), SerialComm(), 500)
        serial = fine_histogram_global(ArraySource(data), SerialComm(), dom,
                                       40, 512)

        def prog(comm):
            from repro.io import block_range
            start, stop = block_range(len(data), comm.size, comm.rank)
            return fine_histogram_global(ArraySource(data), comm, dom, 40,
                                         512, start, stop)

        for r in run_spmd(prog, 3):
            np.testing.assert_array_equal(r.value, serial)

    def test_validation(self, data):
        src = ArraySource(data)
        with pytest.raises(DataError):
            fine_histogram_local(src, SerialComm(), np.zeros((2, 2)), 10, 100)
        dom = global_domains(src, SerialComm(), 500)
        with pytest.raises(DataError):
            fine_histogram_local(src, SerialComm(), dom, 0, 100)
        bad = dom.copy()
        bad[0, 1] = bad[0, 0]
        with pytest.raises(DataError):
            fine_histogram_local(src, SerialComm(), bad, 10, 100)


def oracle_code(x, lo: float, hi: float, fine_bins: int) -> int:
    """One value's fine code, written out per value: ``(x - lo) /
    (hi - lo) * fine_bins`` in IEEE doubles, NaN to the last code,
    clipped into ``[0, fine_bins - 1]`` and truncated toward zero."""
    scaled = (float(x) - lo) / (hi - lo) * fine_bins
    if math.isnan(scaled):
        return fine_bins - 1
    return int(max(min(scaled, fine_bins - 1), 0.0))


def column_domain(j: int, kind: str) -> tuple[float, float]:
    if kind == "int64":
        return float(-17 + 3 * j), float(983 + 16 * j)
    return -2.7 + 0.1 * j, 8.6 + 0.37 * j


@functools.lru_cache(maxsize=None)
def column_pool(j: int, fine_bins: int, kind: str) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """The values column ``j`` cycles through and their oracle codes:
    NaN, ±inf, ±0.0, ±1e308, values below the domain, the exact domain
    top and its neighbours, every fine edge and its float neighbours,
    and a few in-domain draws."""
    lo, hi = column_domain(j, kind)
    if kind == "int64":
        top = int(hi)
        values = np.array([int(lo) - 5, int(lo) - 1, 0, top, top - 1,
                           top + 1, 2**62, -2**62, 2**63 - 1, -2**63]
                          + list(range(int(lo), top + 1)), dtype=np.int64)
    else:
        edges = lo + np.arange(fine_bins + 1) * ((hi - lo) / fine_bins)
        values = np.concatenate([
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308,
             lo - 1.0, np.nextafter(lo, -np.inf), hi,
             np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
             hi + 5.0],
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            np.random.default_rng(j).uniform(lo, hi, 32)])
        with np.errstate(over="ignore"):  # ±1e308 is ±inf in float32
            values = values.astype(kind)
    codes = np.array([oracle_code(v, lo, hi, fine_bins) for v in values])
    values.setflags(write=False)        # shared by every cached caller
    codes.setflags(write=False)
    return values, codes


def oracle_block(n: int, d: int, fine_bins: int,
                 kind: str = "float64") -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """An ``(n, d)`` block whose column ``j`` cycles through
    :func:`column_pool`, its ``(d, 2)`` domains and the ``(d, n)``
    oracle codes."""
    block = np.empty((n, d), dtype=kind)
    expected = np.empty((d, n), dtype=np.int64)
    for j in range(d):
        values, codes = column_pool(j, fine_bins, kind)
        pick = (np.arange(n) * 7 + 13 * j) % len(values)
        block[:, j] = values[pick]
        expected[j] = codes[pick]
    domains = np.array([column_domain(j, kind) for j in range(d)])
    return block, domains, expected


class TestBlockCodesOracle:
    """``block_codes`` equals the per-value locate rule bit for bit,
    across block boundaries, the uint8/uint16 switch, hostile values,
    input dtypes and memory layouts."""

    @pytest.mark.parametrize("fine_bins", [255, 256, 257])
    @pytest.mark.parametrize("d", [1, 15, 50])
    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (0, 7),
                                               (1, -1), (1, 0), (1, 1),
                                               (2, 3)],
                             ids=["0", "1", "7", "B-1", "B", "B+1",
                                  "2B+3"])
    def test_equals_the_per_value_rule(self, blocks, extra, d, fine_bins):
        # B records fill one block of the kernel at this d
        n = blocks * (BLOCK_VALUES // d) + extra
        block, domains, expected = oracle_block(n, d, fine_bins)
        with np.errstate(invalid="raise", divide="raise"):
            codes = block_codes(block, domains, fine_bins)
        assert codes.shape == (d, n)
        assert codes.dtype == code_dtype(fine_bins)
        assert codes.dtype == (np.uint8 if fine_bins <= 256 else np.uint16)
        np.testing.assert_array_equal(codes, expected)

    @pytest.mark.parametrize("fine_bins", [255, 256, 257])
    @pytest.mark.parametrize("d", [1, 15, 50])
    @pytest.mark.parametrize("layout", ["float32", "int64", "column_view",
                                        "fortran", "out_slice"])
    def test_dtypes_and_layouts(self, layout, d, fine_bins):
        n = 2 * (BLOCK_VALUES // d) + 3
        kind = layout if layout in ("float32", "int64") else "float64"
        block, domains, expected = oracle_block(n, d, fine_bins, kind)
        out = None
        if layout == "column_view":
            wide = np.full((n, 2 * d + 1), np.nan)
            wide[:, 1::2] = block
            block = wide[:, 1::2]
        elif layout == "fortran":
            block = np.asfortranarray(block)
        elif layout == "out_slice":
            big = np.full((d, n + 9), 0xAB, dtype=code_dtype(fine_bins))
            out = big[:, 4:4 + n]
        codes = block_codes(block, domains, fine_bins, out=out)
        np.testing.assert_array_equal(codes, expected)
        if out is not None:
            assert codes is out
            assert (big[:, :4] == 0xAB).all() and (big[:, 4 + n:] == 0xAB).all()

    def test_out_shape_is_checked(self):
        block, domains, _ = oracle_block(10, 3, 256)
        with pytest.raises(DataError):
            block_codes(block, domains, 256, out=np.empty((3, 9), np.uint8))


class TestBlockCodesHeldTiles:
    """``block_codes(..., tiles=domain_tiles(domains))`` slices tiles a
    caller built once: calls alternating two domain sets and two
    ``fine_bins`` on blocks of one shape — in one thread or four,
    sharing the tiles — code every value by the per-value rule under
    their own domains, as the per-call tiling does."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def case(d: int):
        """One block crossing a run boundary, two domain sets of equal
        shape over it with their tiles and, per (domains, fine_bins),
        the oracle codes."""
        n = BLOCK_VALUES // d + 3
        block, first, _ = oracle_block(n, d, 256)
        domains = {"first": first, "second": first + np.array([0.5, 3.0])}
        tiles = {key: domain_tiles(dom) for key, dom in domains.items()}
        expected = {}
        for key, dom in domains.items():
            for fine_bins in (200, 257):
                expected[key, fine_bins] = np.array([
                    [oracle_code(x, lo, hi, fine_bins) for x in block[:, j]]
                    for j, (lo, hi) in enumerate(dom.tolist())])
        return block, domains, tiles, expected

    @staticmethod
    def alternate(d: int, order: int) -> list[bool]:
        block, domains, tiles, expected = TestBlockCodesHeldTiles.case(d)
        calls = [(key, fine_bins, held) for key in ("first", "second")
                 for fine_bins in (200, 257) for held in (True, False)] * 2
        calls = calls[order:] + calls[:order]
        return [np.array_equal(
            block_codes(block, domains[key], fine_bins,
                        tiles=tiles[key] if held else None),
            expected[key, fine_bins]) for key, fine_bins, held in calls]

    @pytest.mark.parametrize("d", [1, 15, 50])
    def test_alternating_domains_never_use_a_stale_tile(self, d):
        assert all(self.alternate(d, 0))

    def test_threads_share_the_tiles(self):
        for d in (1, 15, 50):
            self.case(d)            # the oracle, outside the threads
        with ThreadPoolExecutor(4) as workers:
            results = list(workers.map(
                lambda i: self.alternate((1, 15, 50)[i % 3], i), range(12),
                timeout=120))
        assert all(all(r) for r in results)

    def test_tiles_are_read_only_and_checked(self):
        lo_run, width_run = domain_tiles(np.array([[0.0, 40.0]] * 3))
        assert not lo_run.flags.writeable and not width_run.flags.writeable
        assert lo_run.shape == width_run.shape == (BLOCK_VALUES // 3, 3)
        block = np.random.default_rng(2).random((100, 4))
        with pytest.raises(DataError, match="tiles"):
            block_codes(block, np.array([[0.0, 40.0]] * 4), 10,
                        tiles=(lo_run, width_run))


class TestHistogramPassMemory:
    """The pass writes codes straight into the caller's buffer through
    one cache-sized float block: no chunk-sized temporary survives."""

    @staticmethod
    def traced_peak(fn) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_kept_codes_pass_holds_no_chunk_temporaries(self):
        # 200k × 50 in 50k-record chunks: one chunk of float temporaries
        # is 20 MB, so the old pass peaked near 24 MiB here
        n, d, fine_bins = 200_000, 50, 200
        records = np.random.default_rng(0).random((n, d))
        domains = np.array([[0.0, 1.0]] * d)
        codes = np.empty((d, n), dtype=code_dtype(fine_bins))
        peak = self.traced_peak(lambda: fine_histogram_local(
            ArraySource(records), SerialComm(), domains, fine_bins, 50_000,
            codes=codes))
        assert peak <= 2 * 2**20, peak
        np.testing.assert_array_equal(codes[:, :1000],
                                      block_codes(records[:1000], domains,
                                                  fine_bins))

    def test_ingest_block_histogram_writes_into_the_buffer(self):
        # a 10k × 15 stream delta: the old kernel's float copy alone is
        # 1.2 MB (1.29 MiB peak with its casts)
        n, d, fine_bins = 10_000, 15, 200
        delta = np.random.default_rng(1).random((n, d))
        domains = np.array([[0.0, 1.0]] * d)
        codes = np.empty((d, n), dtype=code_dtype(fine_bins))
        peak = self.traced_peak(lambda: block_histogram(
            delta, domains, fine_bins, codes=codes))
        assert peak < 2**20, peak
        np.testing.assert_array_equal(
            codes, block_codes(delta, domains, fine_bins))
