"""Tests for the compiled serving engine (repro.serve).

The load-bearing property: a record is served into exactly the
clusters whose dense units hold the cell the histogram pass locates it
in — its fine code per dimension (NaN takes the last code), gathered
through the grid's lookup table.  The hypothesis suite draws grids
(``lo``, ``hi``, ``n_fine``, ``cuts``) and units over them, and checks
every serving path against a literal scalar reference on records that
mix integers, every grid edge and one ulp either side of it, NaN, ±inf
and out-of-domain values; the rest covers the server's cache paths,
the versioned model export and the CLI front door.
"""

from __future__ import annotations

import asyncio
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mafia
from repro.cli import main as cli_main
from repro.core.dnf import dnf_terms, term_arrays
from repro.core.export import (model_from_dict, model_from_json,
                               model_to_dict, model_to_json,
                               result_to_json)
from repro.errors import DataError
from repro.params import MafiaParams
from repro.serve import (BatchScores, ClusterServer, CompiledModel,
                         compile_arrays, compile_clusters, compile_result,
                         engine, score_batch_naive)
from repro.types import Cluster, DimensionGrid, DNFTerm, Grid, Subspace
from tests.conftest import DOMAINS_10D, cache_engaged

DATA = Path(__file__).parent / "data"


def make_grid(*dims: tuple[float, float, int, tuple[int, ...]]) -> Grid:
    """A Grid from ``(lo, hi, n_fine, cuts)`` per dimension."""
    return Grid(dims=tuple(
        DimensionGrid(dim=j, lo=lo, hi=hi, n_fine=n_fine, cuts=cuts,
                      thresholds=(1.0,) * (len(cuts) - 1))
        for j, (lo, hi, n_fine, cuts) in enumerate(dims)))


def unit_grid(ndim: int, nbins: int = 10) -> Grid:
    """``nbins`` equal bins of one fine interval each over [0, 1)."""
    return make_grid(*[(0.0, 1.0, nbins, tuple(range(nbins + 1)))] * ndim)


def box_cluster(grid: Grid, dims, boxes) -> Cluster:
    """A Cluster whose DNF terms are ``boxes`` — per term, a half-open
    ``(first_bin, stop_bin)`` per dim — and whose units are every cell
    of their union."""
    sub = Subspace(tuple(dims))
    cells = set()
    terms = []
    for box in boxes:
        cells.update(product(*(range(a, b) for a, b in box)))
        terms.append(DNFTerm(subspace=sub, intervals=tuple(
            (grid[d].edges[a], grid[d].edges[b])
            for d, (a, b) in zip(dims, box))))
    return Cluster(subspace=sub,
                   units_bins=np.array(sorted(cells), dtype=np.int64),
                   dnf=tuple(terms), point_count=1)


def bypass_threshold(value: float):
    """Patch the server's bypass threshold: ``1.0`` makes every batch
    probe and fill the cache, ``0.0`` makes every batch bypass it."""
    return mock.patch.object(engine, "BYPASS_FRACTION", value)


def scalar_code(x: float, dg: DimensionGrid) -> int:
    """The histogram pass's fine code of one value, in plain Python:
    ``(x - lo) / (hi - lo) * n_fine`` clipped into ``[0, n_fine - 1]``
    and truncated; NaN takes the last code."""
    if x != x:
        return dg.n_fine - 1
    scaled = (x - dg.lo) / (dg.hi - dg.lo) * dg.n_fine
    return int(max(min(scaled, dg.n_fine - 1), 0))


def reference_membership(grid: Grid, clusters, records) -> np.ndarray:
    """Ground truth one value at a time: each record's cell is its
    scalar fine code per dimension gathered through the grid's lookup
    table, and it belongs to the clusters whose units hold that cell."""
    units = [{tuple(row) for row in c.units_bins.tolist()}
             for c in clusters]
    out = np.zeros((len(records), len(clusters)), dtype=bool)
    for i, record in enumerate(np.asarray(records).tolist()):
        cell = [int(dg.lut[scalar_code(x, dg)])
                for x, dg in zip(record, grid)]
        for ci, cluster in enumerate(clusters):
            out[i, ci] = tuple(cell[d] for d in cluster.subspace.dims) \
                in units[ci]
    return out


@pytest.fixture(scope="module")
def clustered(one_cluster_dataset, small_params):
    result = mafia(one_cluster_dataset.records, small_params,
                   domains=DOMAINS_10D)
    assert result.clusters
    return result, one_cluster_dataset.records


# -- hypothesis: every path against the scalar reference ----------------

def hostile_records(grid: Grid, rng: np.random.Generator,
                    n: int) -> np.ndarray:
    """``n`` records over ``grid``, 60% of their values drawn from a
    pool of integers, every grid edge, one ulp either side of each
    edge, NaN, ±inf and out-of-domain values, the rest uniform over the
    domain."""
    records = np.empty((n, grid.ndim))
    for j, dg in enumerate(grid):
        edges = np.array(dg.edges)
        pool = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            np.arange(np.floor(dg.lo) - 1, np.ceil(dg.hi) + 2)[:200],
            [np.nan, np.inf, -np.inf, dg.lo - 1e6, dg.hi + 1e6,
             -1e308, 1e308]])
        inside = rng.uniform(dg.lo, dg.hi, size=n)
        records[:, j] = np.where(rng.random(n) < 0.6,
                                 rng.choice(pool, size=n), inside)
    return records


@st.composite
def serve_problem(draw, fine: tuple[int, ...] | None = None):
    """A random grid, clusters of random units over it (DNF by the
    greedy cover, as a clustering reports them) and
    :func:`hostile_records` over it.  With ``fine``, dimension ``j``
    has ``fine[j % len(fine)]`` fine intervals and the first cluster
    spans dims 0 and 1, so the serve grids mix the first two."""
    ndim = draw(st.integers(2, 5))
    specs = []
    for j in range(ndim):
        if draw(st.booleans()):         # integer domain, integer data
            lo = float(draw(st.integers(-20, 20)))
            hi = lo + draw(st.integers(1, 120))
        else:
            lo = draw(st.floats(-50.0, 50.0))
            hi = lo + draw(st.floats(0.5, 500.0))
        n_fine = fine[j % len(fine)] if fine else \
            draw(st.sampled_from([1, 2, 7, 100, 256, 257, 300]))
        inner = draw(st.sets(st.integers(1, max(1, n_fine - 1)),
                             max_size=min(8, n_fine - 1)))
        specs.append((lo, hi, n_fine, (0, *sorted(inner), n_fine)))
    grid = make_grid(*specs)
    clusters = []
    for i in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, min(3, ndim)))
        dims = draw(st.sets(st.integers(0, ndim - 1), min_size=k,
                            max_size=k))
        if fine and i == 0:
            dims |= {0, 1}
        dims = tuple(sorted(dims))
        cells = draw(st.sets(st.tuples(*(
            st.integers(0, grid[d].nbins - 1) for d in dims)),
            min_size=1, max_size=6))
        units = np.array(sorted(cells), dtype=np.int64)
        clusters.append(Cluster(subspace=Subspace(dims), units_bins=units,
                                dnf=dnf_terms(grid, Subspace(dims), units),
                                point_count=1))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 80))
    records = hostile_records(grid, np.random.default_rng(seed), n)
    return grid, clusters, records


#: serve grids of 200 and 1,000 fine intervals in one model: its fine
#: codes are uint16, and two block_codes groups fill one code matrix
MIXED_FINE = (200, 1000)


def assert_mixed_fine(model: CompiledModel, records: np.ndarray) -> None:
    assert {dg.n_fine for dg in model.grids} == set(MIXED_FINE)
    assert model.digitize(records).dtype == np.uint16


@settings(max_examples=60, deadline=None)
@given(serve_problem(), serve_problem(fine=MIXED_FINE))
def test_compiled_bit_identical_to_located_cells(problem, mixed):
    for grid, clusters, records in (problem, mixed):
        truth = reference_membership(grid, clusters, records)
        model = compile_clusters(grid, clusters)
        np.testing.assert_array_equal(model.score(records), truth)
        np.testing.assert_array_equal(
            score_batch_naive(grid, clusters, records), truth)
    assert_mixed_fine(model, records)


@settings(max_examples=25, deadline=None)
@given(serve_problem(), serve_problem(fine=MIXED_FINE))
def test_server_cache_paths_bit_identical(problem, mixed):
    for grid, clusters, records in (problem, mixed):
        truth = reference_membership(grid, clusters, records)
        model = compile_clusters(grid, clusters)
        # always-probe, always-bypass and cache-off must agree; a
        # second pass over the same records (now cache-warm) must too
        with cache_engaged():
            probing = ClusterServer(model)
            bypassing = ClusterServer(model)
        uncached = ClusterServer(model, cache_size=0)
        for server, fraction in ((probing, 1.0), (bypassing, 0.0),
                                 (uncached, 1.0)):
            with bypass_threshold(fraction):
                np.testing.assert_array_equal(
                    server.score_batch(records).membership, truth)
                np.testing.assert_array_equal(
                    server.score_batch(records).membership, truth)
        assert probing.stats()["cache"]["hits"] > 0
        assert bypassing.stats()["cache_bypasses"] == 2
    assert_mixed_fine(model, records)


@settings(max_examples=25, deadline=None)
@given(serve_problem())
def test_one_word_model_serves_uncached_by_default(problem):
    """A model of a few clusters in one mask word evaluates faster than
    a cache probe: the default server builds no table and every batch,
    repeated or not, equals the naive scorer."""
    grid, clusters, records = problem
    model = compile_clusters(grid, clusters)
    assert model.n_words == 1 and not model.cache_pays
    server = ClusterServer(model)
    truth = score_batch_naive(grid, clusters, records)
    for _ in range(2):
        np.testing.assert_array_equal(
            server.score_batch(records).membership, truth)
    stats = server.stats()
    assert stats["cache"] == {"entries": 0, "maxsize": 65_536, "hits": 0,
                              "misses": 0, "evictions": 0,
                              "engaged": False}
    assert stats["evaluations"] == 2 * len(records)
    assert stats["cache_bypasses"] == 0
    assert server._table is None


# -- deterministic edge semantics ---------------------------------------

class TestBoundarySemantics:
    #: integer edges over [0, 100) with 100 fine intervals: 29, 57 and
    #: 58 are the integers k whose code k / 100 * 100 truncates to k - 1
    GRID = make_grid((0.0, 100.0, 100, (0, 29, 57, 58, 100)))

    def test_record_exactly_on_edges(self):
        cluster = box_cluster(self.GRID, [0], [[(1, 2)]])   # [29, 57)
        model = compile_clusters(self.GRID, [cluster])
        up, down = np.inf, -np.inf
        values = [29.0, np.nextafter(29.0, down), np.nextafter(29.0, up),
                  57.0, np.nextafter(57.0, down), np.nextafter(57.0, up),
                  58.0, 43.0]
        member = model.score(np.array(values)[:, None]).ravel()
        # on an edge the record is where the histogram put it: 29.0 and
        # 57.0 land one bin low, one ulp above 29 is inside
        assert member.tolist() == [False, False, True,
                                   True, True, False, False, True]
        assert self.GRID[0].locate(np.array([29.0, 57.0, 58.0])).tolist() \
            == [0, 1, 2]

    def test_nan_is_served_in_the_last_bin(self):
        grid = unit_grid(2, nbins=4)
        low = box_cluster(grid, [0], [[(0, 1)]])
        top = box_cluster(grid, [1], [[(3, 4)]])
        model = compile_clusters(grid, [low, top])
        records = np.array([[np.nan, np.nan], [-np.inf, np.inf],
                            [np.inf, -np.inf], [-7.0, 1.0], [0.5, 0.5]])
        assert model.score(records).tolist() == [
            [False, True], [True, True], [False, False], [True, True],
            [False, False]]
        np.testing.assert_array_equal(
            model.score(records),
            reference_membership(grid, [low, top], records))

    def test_adjacent_terms_do_not_bridge(self):
        # bins 2 | 3 of a 10-bin grid: the cut between them belongs to
        # whichever bin the histogram puts it in, bin 4 is out
        grid = unit_grid(1)
        cluster = box_cluster(grid, [0], [[(2, 3)], [(3, 4)]])
        model = compile_clusters(grid, [cluster])
        records = np.array([[0.2], [0.3], [0.4], [0.3999999], [0.1999]])
        assert model.score(records).ravel().tolist() == \
            [True, True, False, True, False]


class TestTrainingLocateRule:
    """Integer-valued records clustered over [0, 100] with 100 fine
    bins: edges fall on integers, so the float comparisons against the
    DNF bounds and the histogram's locate rule disagree on thousands of
    records.  Serving follows the histogram."""

    @pytest.fixture(scope="class")
    def trained(self):
        rng = np.random.default_rng(0)
        records = rng.integers(0, 101, size=(40_000, 6)).astype(float)
        boxes = [((0, 1), (29, 39), (57, 67)), ((2, 3), (19, 29), (48, 58)),
                 ((4, 5), (58, 68), (29, 39))]
        for k, (dims, first, second) in enumerate(boxes):
            rows = slice(k * 10_000, (k + 1) * 10_000)
            records[rows, dims[0]] = rng.integers(*first, size=10_000)
            records[rows, dims[1]] = rng.integers(*second, size=10_000)
        params = MafiaParams(fine_bins=100, window_size=1,
                             chunk_records=10_000)
        result = mafia(records, params,
                       domains=np.array([[0.0, 100.0]] * 6))
        return result, records

    def test_every_record_is_served_into_its_cells_clusters(self, trained):
        result, records = trained
        assert {(0, 1), (2, 3), (4, 5)} <= {c.subspace.dims
                                            for c in result.clusters}
        cells = result.grid.locate_records(records)
        truth = np.zeros((len(records), len(result.clusters)), dtype=bool)
        for ci, cluster in enumerate(result.clusters):
            units = {tuple(row) for row in cluster.units_bins.tolist()}
            truth[:, ci] = [tuple(row) in units for row in
                            cells[:, list(cluster.subspace.dims)].tolist()]
        served = ClusterServer(result).score_batch(records).membership
        assert int((served != truth).any(axis=1).sum()) == 0
        np.testing.assert_array_equal(
            score_batch_naive(result, result.clusters, records), truth)
        # the case has teeth: the float rule misplaces thousands
        floats = np.zeros_like(truth)
        for ci, cluster in enumerate(result.clusters):
            for term in cluster.dnf:
                hit = np.ones(len(records), dtype=bool)
                for d, (lo, hi) in zip(term.subspace.dims, term.intervals):
                    hit &= (records[:, d] >= lo) & (records[:, d] < hi)
                floats[:, ci] |= hit
        assert int((floats != truth).any(axis=1).sum()) > 1000


class TestCompile:
    def test_real_result_matches_reference(self, clustered):
        result, records = clustered
        model = compile_result(result)
        sample = records[:3000]
        np.testing.assert_array_equal(
            model.score(sample),
            score_batch_naive(result, result.clusters, sample))

    def test_empty_model(self):
        model = compile_clusters(unit_grid(4), [])
        scores = model.score(np.zeros((3, 4)))
        assert scores.shape == (3, 0)

    def test_term_cap_fails_loudly(self):
        grid = make_grid((0.0, 130.0, 130, tuple(range(131))))
        cluster = box_cluster(grid, [0], [[(2 * i, 2 * i + 1)]
                                          for i in range(65)])
        with pytest.raises(DataError, match="at most 64"):
            compile_clusters(grid, [cluster])

    def test_bound_off_the_grid_refused(self):
        grid = unit_grid(2)
        cluster = box_cluster(grid, [0, 1], [[(0, 1), (3, 5)]])
        terms = term_arrays([cluster])
        edge = grid[1].edges[3]
        for bound in (np.nextafter(edge, 1.0), 0.35, np.nan):
            terms.cond_lo[1] = bound
            with pytest.raises(DataError, match="not an edge"):
                compile_arrays(terms, 2, grids=grid.dims,
                               subspaces=[(0, 1)])
        # an imported table may carry an empty interval, even [lo, lo)
        terms = term_arrays([cluster])
        terms.cond_lo[0] = terms.cond_hi[0] = grid[0].edges[0]
        with pytest.raises(DataError, match="empty term interval"):
            compile_arrays(terms, 2, grids=grid.dims, subspaces=[(0, 1)])

    def test_terms_out_of_cluster_order_refused(self):
        grid = unit_grid(1)
        terms = term_arrays([box_cluster(grid, [0], [[(0, 1)]]),
                             box_cluster(grid, [0], [[(2, 3)]])])
        terms.term_cluster[:] = terms.term_cluster[::-1].copy()
        with pytest.raises(DataError, match="cluster order"):
            compile_arrays(terms, 1, grids=grid.dims,
                           subspaces=[(0,), (0,)])

    def test_needs_the_grid(self):
        cluster = box_cluster(unit_grid(1), [0], [[(0, 1)]])
        with pytest.raises(DataError, match="Grid"):
            compile_clusters([cluster], 1)
        terms = term_arrays([cluster])
        with pytest.raises(DataError, match="no grid"):
            compile_arrays(terms, 1, grids=(), subspaces=[(0,)])

    def test_term_arrays_shape(self, clustered):
        result, _ = clustered
        arrays = term_arrays(result.clusters)
        assert arrays.n_clusters == len(result.clusters)
        assert arrays.n_terms == sum(len(c.dnf) for c in result.clusters)
        assert arrays.n_conditions == sum(
            len(t.subspace.dims) for c in result.clusters for t in c.dnf)

    def test_signatures_group_identical_rows(self):
        grid = unit_grid(2)
        cluster = box_cluster(grid, [0, 1], [[(2, 6), (1, 9)]])
        model = compile_clusters(grid, [cluster])
        records = np.array([[0.3, 0.5], [0.45, 0.75],  # same serve bins
                            [0.7, 0.5]])               # different
        codes = model.digitize(records)
        # the first two differ in every fine code, not in serve bin
        assert codes.tolist() == [[3, 5], [4, 7], [7, 5]]
        sigs = model.signatures(codes)
        assert np.array_equal(sigs[0], sigs[1])
        assert not np.array_equal(sigs[0], sigs[2])
        keys = model.group_keys(codes)
        assert keys[0] == keys[1] != keys[2]

    def test_models_code_by_their_own_held_tiles(self):
        """Two models of one shape over different domains, scored
        alternately from four threads: each codes by its own grid's
        domains (its held tiles are never another model's)."""
        grids = [make_grid(*[(lo, lo + 10.0 * k, 100, (0, 30, 60, 100))] * 15)
                 for k, lo in ((1, 0.0), (3, -5.0))]
        pairs = [(grid, [box_cluster(grid, [0, 7, 14],
                                     [[(0, 1), (1, 2), (1, 3)]])])
                 for grid in grids]
        models = [compile_clusters(grid, clusters) for grid, clusters in pairs]
        rng = np.random.default_rng(9)
        records = rng.uniform(-6.0, 26.0, size=(3000, 15))
        truths = [reference_membership(grid, clusters, records)
                  for grid, clusters in pairs]

        def drive(i):
            return all(np.array_equal(models[k].score(records), truths[k])
                       for k in (i % 2, 1 - i % 2, i % 2))

        with ThreadPoolExecutor(4) as workers:
            assert all(workers.map(drive, range(8), timeout=120))
        assert not np.array_equal(truths[0], truths[1])

    def test_serve_bins_are_the_cells_between_term_cuts(self):
        grid = unit_grid(2)
        cluster = box_cluster(grid, [0, 1], [[(2, 6), (1, 9)]])
        model = compile_clusters(grid, [cluster])
        assert model.n_bins == (3, 3)
        assert model.bin_luts[0].tolist() == [0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        # digitize returns the fine codes; the mask table is read by
        # code, one row per code, equal across each serve bin
        assert model.digitize(np.array([[0.25, 0.95]])).tolist() == [[2, 9]]
        assert model.luts[0].shape == (10, 1)
        assert (model.luts[0][:, 0] & 1).tolist() == \
            [0, 0, 1, 1, 1, 1, 0, 0, 0, 0]


# -- the serving tables, rebuilt from the condition table ---------------

def random_grid(rng: np.random.Generator, *dims: tuple[int, int]) -> Grid:
    """A Grid of ``(n_fine, nbins)`` per dimension: random domains and
    random cuts, so a bin spans a different number of codes each."""
    specs = []
    for n_fine, nbins in dims:
        lo = float(rng.uniform(-50.0, 50.0))
        inner = rng.choice(np.arange(1, n_fine), nbins - 1, replace=False)
        specs.append((lo, lo + float(rng.uniform(1.0, 300.0)), n_fine,
                      (0, *sorted(inner.tolist()), n_fine)))
    return make_grid(*specs)


def random_boxes(rng: np.random.Generator, grid: Grid, dims,
                 k: int) -> list[list[tuple[int, int]]]:
    """``k`` random ``box_cluster`` boxes over ``dims`` of ``grid``."""
    return [[tuple(sorted(rng.choice(grid[d].nbins + 1, 2,
                                     replace=False).tolist()))
             for d in dims] for _ in range(k)]


def table_model(kind: str) -> tuple[CompiledModel, np.ndarray]:
    """A model and hostile records for the table oracles: ``one_word``
    (7 terms), ``four_words`` (4 clusters of 40 terms) or
    ``packed_keys`` (20 dims of 16 serve bins each: 2**80 cells, so
    its keys are packed signature rows)."""
    rng = np.random.default_rng(34)
    if kind == "one_word":
        grid = random_grid(rng, (200, 9), (1000, 12), (200, 5))
        clusters = [box_cluster(grid, dims, random_boxes(rng, grid, dims, k))
                    for dims, k in (([0, 1], 3), ([1, 2], 2), ([2], 2))]
    elif kind == "four_words":
        grid = random_grid(rng, (1000, 12), (200, 12))
        clusters = [box_cluster(grid, [0, 1],
                                random_boxes(rng, grid, [0, 1], 40))
                    for _ in range(4)]
    else:
        grid = random_grid(rng, *[(MIXED_FINE[d % 2], 16)
                                  for d in range(20)])
        clusters = [box_cluster(grid, [d], [[(b, b + 1)]
                                            for b in range(0, 16, 2)])
                    for d in range(20)]
    records = hostile_records(grid, rng, 600)
    # repeat a third of the rows so records share keys
    return (compile_clusters(grid, clusters),
            np.vstack([records, records[::3]]))


def term_bits(model: CompiledModel) -> np.ndarray:
    """Each term's bit in the packed mask: its cluster's terms hold the
    cluster mask's bits, lowest first, in term order."""
    terms = model.terms
    bits = np.empty(terms.n_terms, dtype=np.int64)
    for c in range(model.n_clusters):
        own = np.flatnonzero(terms.term_cluster == c)
        mask = int(model.cluster_mask[c])
        assert mask.bit_count() == len(own)
        first = (mask & -mask).bit_length() - 1
        bits[own] = 64 * int(model.cluster_word[c]) + first + \
            np.arange(len(own))
    return bits


class TestFineCodeTables:
    """Serving reads every per-dimension table by fine code.  Each is
    checked against one built here from the model's ``TermArrays`` and
    grids alone: a term's bit is set in row ``c`` of dim ``j``'s mask
    table iff the term has no condition on the dim or its ``[cond_lo,
    cond_hi)`` there contains the interval of grid bin
    ``dg.lut[c]``; a record's key is the Horner key of its serve bins
    (``bin_luts`` of its codes)."""

    #: per model, its mask words and its keys' dtype kind
    SHAPES = {"one_word": (1, "u"), "four_words": (4, "u"),
              "packed_keys": (3, "V")}

    @pytest.fixture(scope="class", params=sorted(SHAPES))
    def case(self, request):
        return table_model(request.param)

    @pytest.mark.parametrize("kind", sorted(SHAPES))
    def test_model_shapes(self, kind):
        model, records = table_model(kind)
        assert (model.n_words, model.group_keys(
            model.digitize(records)).dtype.kind) == self.SHAPES[kind]
        for dg, bins, masks in zip(model.grids, model.bin_luts,
                                   model.luts):
            assert bins.shape == (dg.n_fine,)
            assert masks.shape == (dg.n_fine, model.n_words)

    def test_mask_rows_are_the_term_intervals_of_each_code(self, case):
        model, _ = case
        terms = model.terms
        bits = term_bits(model)
        word, bit = np.divmod(bits, 64)
        used = np.zeros(model.n_words, dtype=np.uint64)
        for w, b in zip(word.tolist(), bit.tolist()):
            used[w] |= np.uint64(1 << b)
        for j, (dim, dg) in enumerate(zip(model.serve_dims, model.grids)):
            edges = np.array(dg.edges)
            bin_lo, bin_hi = edges[dg.lut], edges[dg.lut.astype(int) + 1]
            want = np.zeros((dg.n_fine, model.n_words), dtype=np.uint64)
            constrained = set()
            for t, lo, hi in zip(terms.cond_term[terms.cond_dim == dim],
                                 terms.cond_lo[terms.cond_dim == dim],
                                 terms.cond_hi[terms.cond_dim == dim]):
                constrained.add(int(t))
                inside = (lo <= bin_lo) & (bin_hi <= hi)
                want[inside, word[t]] |= np.uint64(1 << int(bit[t]))
            for t in set(range(terms.n_terms)) - constrained:
                want[:, word[t]] |= np.uint64(1 << int(bit[t]))
            np.testing.assert_array_equal(model.luts[j] & used, want,
                                          err_msg=f"serve dim {int(dim)}")

    def test_keys_are_the_serve_bins_horner_key(self, case):
        model, records = case
        codes = model.digitize(records)
        bins = [[int(model.bin_luts[j][c]) for j, c in enumerate(row)]
                for row in codes.tolist()]
        assert model.n_bins == tuple(int(lut.max()) + 1
                                     for lut in model.bin_luts)
        keys = model.group_keys(codes)
        if keys.dtype.kind == "u":
            horner = []
            for row in bins:
                key = 0
                for b, radix in zip(row, model.n_bins):
                    key = key * radix + b
                horner.append(key)
            assert keys.tolist() == horner
            return
        # packed keys: four 16-bit serve bins per word, high to low
        packed = [[sum(b << 16 * (3 - s) for s, b in
                       enumerate(row[w:w + 4])) for w in range(0, len(row), 4)]
                  for row in bins]
        assert model.signatures(codes).tolist() == packed
        row_of_key: dict[bytes, tuple[int, ...]] = {}
        for key, row in zip(keys.tolist(), bins):
            assert row_of_key.setdefault(key, tuple(row)) == tuple(row)
        assert len(row_of_key) == len({tuple(row) for row in bins})
        assert len(row_of_key) < len(bins)


# -- the server ----------------------------------------------------------

def two_cluster_model() -> CompiledModel:
    """Two clusters, three terms, over three dims: one mask word."""
    grid = unit_grid(3)
    return compile_clusters(grid, [
        box_cluster(grid, [0, 2], [[(2, 5), (3, 6)],
                                   [(6, 8), (1, 4)]]),
        box_cluster(grid, [1], [[(0, 5)]]),
    ])


class TestClusterServer:
    @pytest.fixture(scope="class")
    def model(self) -> CompiledModel:
        return two_cluster_model()

    def test_hot_trace_hits_cache(self, model):
        rng = np.random.default_rng(3)
        hot = rng.uniform(0, 1, size=(20, 3))
        with cache_engaged():
            server = ClusterServer(model)
        # skewed trace: 5000 records over 20 hot rows -> the first
        # batch evaluates each distinct signature once, the second
        # answers every record from the cache
        trace = hot[rng.integers(0, 20, size=5000)]
        np.testing.assert_array_equal(
            server.score_batch(trace).membership, model.score(trace))
        np.testing.assert_array_equal(
            server.score_batch(trace).membership, model.score(trace))
        stats = server.stats()
        assert stats["cache"]["hits"] > 0
        assert stats["evaluations"] <= 20

    def test_bypassed_batch_counts_as_neither_hit_nor_miss(self, model):
        """The metrics and ``stats()`` count cache traffic one way: a
        bypassed batch is a bypass only, on both sides."""
        from repro.obs import RankObs
        records = np.random.default_rng(4).uniform(0, 1, size=(100, 3))
        obs = RankObs(0)
        with cache_engaged():
            server = ClusterServer(model, obs=obs)
        with bypass_threshold(0.0):
            server.score_batch(records)     # empty cache: bypassed
        with bypass_threshold(1.0):
            server.score_batch(records)     # probed: every record misses
            server.score_batch(records)     # probed: every record hits
        stats = server.stats()
        snap = obs.metrics.snapshot()
        assert stats["cache_bypasses"] == 1
        assert snap["serve.cache_bypasses"]["value"] == 1
        assert stats["cache"]["hits"] == stats["cache"]["misses"] == 100
        assert snap["serve.cache_hits"]["value"] == stats["cache"]["hits"]
        assert snap["serve.cache_misses"]["value"] == \
            stats["cache"]["misses"]

    def test_lru_eviction(self):
        # eight one-bin terms -> eight serve bins, so each value below
        # is a distinct signature
        grid = unit_grid(1, nbins=8)
        model = compile_clusters(grid, [box_cluster(
            grid, [0], [[(b, b + 1)] for b in range(8)])])
        with cache_engaged():
            server = ClusterServer(model, cache_size=2)
        hot, novel = 0.05, (0.2, 0.3, 0.45, 0.55, 0.7, 0.85)
        with bypass_threshold(1.0):
            server.score_one([hot])
            for i, v in enumerate(novel):
                # hot hits in every batch, so each novel value evicts
                # the previous one and hot is never evaluated again
                server.score_batch(np.array([[hot], [v]]))
                stats = server.stats()
                assert stats["evaluations"] == 2 + i
                assert stats["cache"]["entries"] == 2
            # the least recently used entry goes: touch hot, and the
            # next novel value evicts novel[-1], not hot
            server.score_one([hot])
            server.score_one([novel[0]])
            evaluated = server.stats()["evaluations"]
            server.score_one([hot])
            assert server.stats()["evaluations"] == evaluated
            server.score_one([novel[-1]])
            assert server.stats()["evaluations"] == evaluated + 1
            # entries is exactly the number of keys that can hit: one
            # batch of every signature hits on that many records
            before = server.stats()["cache"]
            server.score_batch(np.array([[hot], *([v] for v in novel)]))
        after = server.stats()["cache"]
        assert after["hits"] - before["hits"] == before["entries"] == 2
        assert after["entries"] == 2
        assert after["evictions"] == 12

    def test_threads_share_one_server(self):
        grid = unit_grid(3)
        clusters = [box_cluster(grid, [0, 2], [[(2, 5), (3, 6)],
                                               [(6, 8), (1, 4)]]),
                    box_cluster(grid, [1], [[(0, 5)]])]
        with cache_engaged():
            server = ClusterServer(compile_clusters(grid, clusters),
                                   cache_size=8)
        rng = np.random.default_rng(7)
        pool = rng.uniform(0, 1, size=(60, 3))
        batches = [pool[rng.integers(0, 60, size=rng.integers(1, 200))]
                   for _ in range(240)]

        def drive(part):
            return [np.array_equal(server.score_batch(b).membership,
                                   score_batch_naive(grid, clusters, b))
                    for b in part]

        # a small cache over a larger pool: threads fill and evict
        # while others probe; a short switch interval makes a lost
        # counter update likely if one can happen
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with bypass_threshold(1.0), ThreadPoolExecutor(4) as workers:
                agreed = [ok for part in workers.map(
                    drive, [batches[i::4] for i in range(4)], timeout=120)
                    for ok in part]
        finally:
            sys.setswitchinterval(interval)
        assert len(agreed) == len(batches) and all(agreed)
        stats = server.stats()
        assert stats["batches"] == len(batches)
        assert stats["records"] == sum(len(b) for b in batches)
        cache = stats["cache"]
        assert cache["hits"] + cache["misses"] == stats["records"]
        assert cache["evictions"] > 0
        assert cache["entries"] <= 8

    def test_wide_model_keys_by_signature_rows(self):
        # 20 dims x 16 serve bins: the mixed-radix key would need 80
        # bits, so keys are packed signature rows (void) and the probe
        # snapshot sorts and searches those
        grid = unit_grid(20, nbins=16)
        clusters = [box_cluster(grid, [d], [[(b, b + 1)]
                                            for b in range(0, 16, 2)])
                    for d in range(20)]
        model = compile_clusters(grid, clusters)
        assert model.n_bins == (16,) * 20
        rng = np.random.default_rng(6)
        hot = rng.uniform(0, 1, size=(30, 20))
        records = hot[rng.integers(0, 30, size=400)]
        assert model.group_keys(model.digitize(records)).dtype.kind == "V"
        truth = reference_membership(grid, clusters, records)
        with cache_engaged():
            probing, bypassing = ClusterServer(model), ClusterServer(model)
        for server, fraction in ((probing, 1.0), (bypassing, 0.0),
                                 (ClusterServer(model, cache_size=0), 1.0)):
            with bypass_threshold(fraction):
                for _ in range(2):
                    np.testing.assert_array_equal(
                        server.score_batch(records).membership, truth)
        assert probing.stats()["evaluations"] <= 30
        assert probing.stats()["cache"]["hits"] >= 400

    def test_cache_disabled(self, model):
        server = ClusterServer(model, cache_size=0)
        records = np.random.default_rng(4).uniform(0, 1, (100, 3))
        server.score_batch(records)
        assert server.stats()["cache"] is None
        assert server.stats()["evaluations"] == 100

    def test_score_one(self, model):
        server = ClusterServer(model)
        scores = server.score_one([0.3, 0.9, 0.4])
        assert len(scores) == 1
        assert scores.cluster_ids(0) == [0]

    def test_empty_batch(self, model):
        server = ClusterServer(model)
        scores = server.score_batch(np.empty((0, 3)))
        assert len(scores) == 0
        assert scores.membership.shape == (0, 2)

    def test_negative_cache_size_rejected(self, model):
        with pytest.raises(DataError, match="cache_size"):
            ClusterServer(model, cache_size=-3)

    def test_ascore_batch(self, model):
        server = ClusterServer(model)
        records = np.random.default_rng(5).uniform(0, 1, (64, 3))

        async def drive():
            return await server.ascore_batch(records)

        scores = asyncio.run(drive())
        np.testing.assert_array_equal(scores.membership,
                                      model.score(records))

    def test_from_json_both_formats(self, clustered):
        result, records = clustered
        sample = records[:500]
        truth = compile_result(result).score(sample)
        via_result = ClusterServer.from_json(result_to_json(result))
        np.testing.assert_array_equal(
            via_result.score_batch(sample).membership, truth)
        via_model = ClusterServer.from_json(
            model_to_json(compile_result(result)))
        np.testing.assert_array_equal(
            via_model.score_batch(sample).membership, truth)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(DataError):
            ClusterServer.from_json("{not json")
        with pytest.raises(DataError):
            ClusterServer.from_json("[1, 2]")


class TestCacheRule:
    """The compiled model's shape decides whether the cache engages;
    ``cache_size`` only bounds it."""

    @staticmethod
    def one_term_clusters(n_clusters: int) -> CompiledModel:
        """``n_clusters`` one-term clusters over 15 dims — the sweep's
        replicated-model shape: one mask word up to 64 clusters."""
        grid = unit_grid(15)
        return compile_clusters(grid, [
            box_cluster(grid, [c % 15], [[(c % 10, c % 10 + 1)]])
            for c in range(n_clusters)])

    def test_the_rule_reads_words_dims_and_clusters(self):
        few, many = self.one_term_clusters(64), self.one_term_clusters(100)
        assert (few.n_words, few.n_serve_dims, few.cache_pays) == \
            (1, 15, False)
        assert (many.n_words, many.n_serve_dims, many.cache_pays) == \
            (2, 15, True)
        # packed-signature keys cost a probe about four times as much:
        # 20 dims × 16 serve bins, 20 clusters in three words
        grid = unit_grid(20, nbins=16)
        wide = compile_clusters(grid, [
            box_cluster(grid, [d], [[(b, b + 1)] for b in range(0, 16, 2)])
            for d in range(20)])
        assert not wide._one_word_keys and wide.n_words == 3
        assert not wide.cache_pays
        with cache_engaged(False):
            assert not ClusterServer(many).cache_engaged
        assert ClusterServer(many).cache_engaged
        assert not ClusterServer(many, cache_size=0).cache_engaged

    def test_bench_smoke_model_caches_and_hits_on_its_second_pass(self):
        from benchmarks.run_bench import dnf_clusters, serving_grid
        grid = serving_grid(12, 12, seed=30)
        clusters = dnf_clusters(grid, 32, seed=31)
        model = compile_clusters(grid, clusters)
        assert (model.n_clusters, model.n_terms, model.n_words) == \
            (32, 169, 3)
        rng = np.random.default_rng(32)
        pool = rng.uniform(0.0, 100.0, size=(300, 12))
        records = pool[rng.integers(0, 300, size=3000)]
        truth = score_batch_naive(grid, clusters, records)
        server = ClusterServer(model)
        for _ in range(2):
            np.testing.assert_array_equal(
                server.score_batch(records).membership, truth)
        cache = server.stats()["cache"]
        assert cache["engaged"]
        assert cache["hits"] == cache["misses"] == len(records)
        assert 0 < cache["entries"] <= 300
        assert server.stats()["evaluations"] == cache["entries"]

    def test_metrics_equal_stats_when_not_engaged(self):
        from repro.obs import RankObs
        model = two_cluster_model()
        obs = RankObs(0)
        server = ClusterServer(model, obs=obs)
        records = np.random.default_rng(8).uniform(0, 1, size=(100, 3))
        server.score_batch(records)
        server.score_batch(records)
        stats, snap = server.stats(), obs.metrics.snapshot()
        assert not stats["cache"]["engaged"]
        assert stats["evaluations"] == 200
        assert stats["cache"]["hits"] == stats["cache"]["misses"] == 0
        for metric, value in (
                ("serve.batches", stats["batches"]),
                ("serve.records", stats["records"]),
                ("serve.evaluations", stats["evaluations"]),
                ("serve.cache_hits", stats["cache"]["hits"]),
                ("serve.cache_misses", stats["cache"]["misses"]),
                ("serve.cache_bypasses", stats["cache_bypasses"])):
            # a counter never bumped is absent from the snapshot
            assert snap.get(metric, {"value": 0})["value"] == value, metric
        # engaged or not, the cache stats carry the same keys
        with cache_engaged():
            engaged = ClusterServer(model)
        assert engaged.stats()["cache"].keys() == stats["cache"].keys()


class TestBatchScores:
    @pytest.fixture(scope="class")
    def scores(self) -> BatchScores:
        membership = np.array([[True, False], [True, True],
                               [False, False]])
        return BatchScores(membership=membership,
                           subspaces=((0, 2), (1, 65)))

    def test_cluster_ids(self, scores):
        assert scores.cluster_ids(0) == [0]
        assert scores.cluster_ids(1) == [0, 1]
        assert scores.cluster_ids(2) == []

    def test_record_subspaces(self, scores):
        assert scores.record_subspaces(1) == [(0, 2), (1, 65)]
        assert scores.record_subspaces(2) == []

    def test_subspace_masks(self, scores):
        masks = scores.subspace_masks()
        assert masks.shape == (3, 2)  # dim 65 needs a second word
        assert masks[0, 0] == (1 << 0) | (1 << 2)
        assert masks[1, 0] == (1 << 0) | (1 << 2) | (1 << 1)
        assert masks[1, 1] == 1 << 1  # bit 65 - 64
        assert masks[2].tolist() == [0, 0]

    def test_counts(self, scores):
        assert scores.counts().tolist() == [2, 1]


# -- versioned model export ---------------------------------------------

class TestModelExport:
    def test_roundtrip_scores_identically(self, clustered):
        result, records = clustered
        model = compile_result(result)
        back = model_from_json(model_to_json(model))
        sample = records[:2000]
        np.testing.assert_array_equal(back.score(sample),
                                      model.score(sample))
        assert back.subspaces == model.subspaces
        assert back.point_counts == model.point_counts

    def test_payload_is_versioned(self, clustered):
        result, _ = clustered
        model = compile_result(result)
        payload = model_to_dict(model)
        assert payload["format"] == "pmafia-compiled-model"
        assert payload["version"] == 2
        assert [g["dim"] for g in payload["grids"]] == \
            model.serve_dims.tolist()
        for g in payload["grids"]:
            dg = result.grid[g["dim"]]
            assert (g["lo"], g["hi"], g["n_fine"], tuple(g["cuts"])) == \
                (dg.lo, dg.hi, dg.n_fine, dg.cuts)
        json.dumps(payload)  # JSON-ready throughout

    def test_wrong_format_and_version_rejected(self, clustered):
        result, _ = clustered
        payload = model_to_dict(compile_result(result))
        with pytest.raises(DataError):
            model_from_dict({**payload, "format": "something-else"})
        with pytest.raises(DataError):
            model_from_dict({**payload, "version": 99})
        with pytest.raises(DataError):
            model_from_json("{broken")

    def test_version_1_refused_with_a_reexport_hint(self, clustered):
        result, _ = clustered
        payload = model_to_dict(compile_result(result))
        del payload["grids"]
        with pytest.raises(DataError, match="re-export it from the result"):
            model_from_dict({**payload, "version": 1})

    def test_bound_off_the_exported_grid_refused(self, clustered):
        result, _ = clustered
        payload = model_to_dict(compile_result(result))
        payload["terms"]["cond_hi"][0] = float(np.nextafter(
            payload["terms"]["cond_hi"][0], np.inf))
        with pytest.raises(DataError, match="not an edge"):
            model_from_dict(payload)
        payload = model_to_dict(compile_result(result))
        payload["grids"][0]["cuts"] = [0]
        with pytest.raises(DataError, match="malformed"):
            model_from_dict(payload)

    def test_result_with_retired_join_strategy_still_serves(self,
                                                            clustered):
        """A result exported while ``MafiaParams`` still had a
        ``join_strategy`` field (this one carries ``"auto"``) loads and
        scores exactly like a fresh compile of the same clustering."""
        result, records = clustered
        text = (DATA / "result_join_strategy_auto.json").read_text()
        assert json.loads(text)["params"]["join_strategy"] == "auto"
        legacy = ClusterServer.from_json(text)
        fresh = ClusterServer(result)
        membership = fresh.score_batch(records).membership
        assert membership.any()
        np.testing.assert_array_equal(
            legacy.score_batch(records).membership, membership)
        assert legacy.model.subspaces == fresh.model.subspaces
        assert legacy.model.point_counts == fresh.model.point_counts


# -- the CLI front door --------------------------------------------------

class TestScoreCli:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory, clustered):
        result, records = clustered
        root = tmp_path_factory.mktemp("score_cli")
        model_path = root / "result.json"
        model_path.write_text(result_to_json(result))
        data_path = root / "records.npy"
        np.save(data_path, records[:400])
        return root, model_path, data_path

    def test_summary_json(self, paths, capsys):
        root, model_path, data_path = paths
        rc = cli_main(["score", str(model_path), str(data_path),
                       "--summary-only", "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 400
        assert summary["server"]["batches"] == 1

    def test_per_record_lines(self, paths, capsys):
        root, model_path, data_path = paths
        rc = cli_main(["score", str(model_path), str(data_path),
                       "--batch", "100"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 400
        idx, ids = lines[0].split("\t")
        assert idx == "0"

    def test_summary_says_when_the_cache_is_not_engaged(self, paths,
                                                         capsys):
        root, model_path, data_path = paths
        for flags, says in (([], "cache not engaged"),
                            (["--no-cache"], "cache off")):
            rc = cli_main(["score", str(model_path), str(data_path),
                           "--summary-only", *flags])
            assert rc == 0
            err = capsys.readouterr().err
            assert "400 evaluations" in err and says in err
        with cache_engaged():
            rc = cli_main(["score", str(model_path), str(data_path),
                           "--summary-only"])
        assert rc == 0
        assert "0 cache hits" in capsys.readouterr().err

    def test_cache_size_help_calls_it_an_upper_bound(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["score", "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--cache-size CACHE_SIZE upper bound on signature-cache " \
            "entries" in text

    def test_export_model_then_score_from_it(self, paths, capsys):
        root, model_path, data_path = paths
        compiled_path = root / "model.json"
        rc = cli_main(["score", str(model_path), str(data_path),
                       "--summary-only", "--json",
                       "--export-model", str(compiled_path)])
        assert rc == 0
        first = json.loads(capsys.readouterr().out)
        assert json.loads(
            compiled_path.read_text())["format"] == "pmafia-compiled-model"
        rc = cli_main(["score", str(compiled_path), str(data_path),
                       "--summary-only", "--json"])
        assert rc == 0
        second = json.loads(capsys.readouterr().out)
        assert second["clusters"] == first["clusters"]
        assert second["matched"] == first["matched"]

    def test_export_model_round_trips_per_record_scores(self, paths,
                                                         capsys):
        root, model_path, data_path = paths
        compiled_path = root / "roundtrip.json"
        rc = cli_main(["score", str(model_path), str(data_path),
                       "--export-model", str(compiled_path)])
        assert rc == 0
        from_result = capsys.readouterr().out
        rc = cli_main(["score", str(compiled_path), str(data_path)])
        assert rc == 0
        assert capsys.readouterr().out == from_result
        assert any(line.split("\t")[1] != "-" for line in
                   from_result.splitlines())

    def test_obs_outputs_and_manifest(self, paths, capsys):
        from repro.obs.manifest import MANIFEST_NAME
        root, model_path, data_path = paths
        rc = cli_main(["score", str(model_path), str(data_path),
                       "--summary-only",
                       "--trace-out", str(root / "trace.json"),
                       "--metrics-out", str(root / "metrics.json")])
        assert rc == 0
        capsys.readouterr()
        metrics = json.loads((root / "metrics.json").read_text())
        assert metrics["total"]["serve.records"]["value"] == 400
        trace = json.loads((root / "trace.json").read_text())
        assert any(e.get("name") == "score_batch"
                   for e in trace["traceEvents"])
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["serve"]["records"] == 400
