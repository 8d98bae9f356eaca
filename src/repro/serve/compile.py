"""Compile minimal DNF cluster descriptions into a vectorized evaluator.

A clustering's end product is a set of DNF expressions — per cluster, a
union of hyper-rectangles over adaptive-grid bins.  A record belongs to
a cluster when the histogram pass would put it in one of the cluster's
cells (§3.6).  This module compiles the whole cluster set once, in
bin-index space, into a *packed-interval* evaluator so a batch of
records is scored with a handful of array operations:

1.  **Digitize** — every serving dimension (the union of all cluster
    subspace dims) carries its training grid.  A record's fine codes
    come from :func:`repro.types.fine_codes_matrix`, the path
    :meth:`~repro.types.Grid.locate_records` takes, and are all that
    serving reads of it: every table below is indexed by fine code.
    Every term bound must be a grid edge, so each record is served by
    the cell training located it in — on-edge, infinite, out-of-domain
    and NaN values included.
2.  **Interval masks** — every DNF term owns one bit of a packed uint64
    mask; per serving dimension a lookup table maps each fine code to
    the mask of terms whose interval on that dimension contains the
    code's grid bin (terms without a condition on the dimension are
    don't-care: their bit stays set).  It is composed at compile time
    from the code's *serve bin* — the run of grid bins between two
    consecutive term cuts, the unit a term interval is made of — so a
    batch pays one gather per dimension, not a bin map and a gather.
    ANDing the per-dimension lookups leaves exactly the bits of the
    terms the record satisfies.
3.  **Cluster reduction** — terms of one cluster occupy a contiguous
    bit range padded to never straddle a word, so membership is one
    masked word test per cluster (``hit_words[:, w] & mask != 0``)
    rather than a per-term loop.

A record's serve-bin row doubles as its *bin signature*: collapsed to
one mixed-radix uint64 through per-dimension key tables (again indexed
by fine code), or packed through :func:`repro.core.units.pack_tokens`
when too wide for a word, it keys the serving cache
(:class:`repro.serve.ClusterServer`) — records in the same serve cell
provably score identically, so hot traffic short-circuits evaluation
entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from ..core.dnf import TermArrays, term_arrays
from ..core.histogram import code_dtype
from ..errors import DataError
from ..core.units import pack_tokens
from ..types import (Cluster, DimensionGrid, Grid, fine_code_groups,
                     fine_code_tiles, fine_codes_matrix)

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: the serving cache's break-even, in cluster tests per record (see
#: :attr:`CompiledModel.cache_pays`): one mask word gathered and ANDed
#: per serve dim costs about EVAL_WORD_COST of them, a probe of the
#: cache about PROBE_COST — four times that when the keys are packed
#: signature rows, not one uint64 (docs/PERFORMANCE.md has the fit)
EVAL_WORD_COST = 3
PROBE_COST = 120


@dataclass(frozen=True)
class CompiledModel:
    """One cluster set compiled for batch membership scoring.

    Built by :func:`compile_clusters` / :func:`compile_result`; see the
    module docstring for the evaluation scheme.  All arrays are
    read-only at serve time, so one model may be shared across threads.
    """

    #: data-set dimensionality records must match
    ndim: int
    #: per cluster, its subspace dims (reported alongside membership)
    subspaces: tuple[tuple[int, ...], ...]
    #: per cluster, the training-time record count (metadata)
    point_counts: tuple[int, ...]
    #: the flat condition table the model was compiled from (kept for
    #: versioned export/import — see repro.core.export)
    terms: TermArrays
    #: (s,) sorted dims that actually appear in any term
    serve_dims: np.ndarray
    #: per serve dim, its training grid: the locate rule of serving
    grids: tuple[DimensionGrid, ...]
    #: per serve dim, the (n_fine,) uint8 map from fine code to serve bin
    bin_luts: tuple[np.ndarray, ...]
    #: per serve dim, (n_fine, n_words) uint64 term-mask lookup table,
    #: indexed by fine code
    luts: tuple[np.ndarray, ...]
    #: packed term-mask words per record after the AND-reduction
    n_words: int
    #: per cluster, the word index and mask of its (contiguous) term bits
    cluster_word: np.ndarray
    cluster_mask: np.ndarray

    # -- shapes ----------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        return len(self.subspaces)

    @property
    def n_terms(self) -> int:
        return self.terms.n_terms

    @property
    def n_serve_dims(self) -> int:
        return int(len(self.serve_dims))

    @cached_property
    def n_bins(self) -> tuple[int, ...]:
        """Serve-bin count per serve dim."""
        return tuple(int(lut.max()) + 1 for lut in self.bin_luts)

    @cached_property
    def _one_word_keys(self) -> bool:
        """Whether a serve-bin row collapses to ONE uint64 mixed-radix
        grouping key (the serve-bin count product fits a word); else
        grouping falls back to the packed signature rows.  Adaptive-grid
        DNFs cut a handful of serve bins per dim, so the single-word key
        is the overwhelmingly common case — and sorting uint64 keys is
        several times faster than sorting byte rows."""
        return math.prod(self.n_bins) <= 1 << 64

    @cached_property
    def _key_luts(self) -> tuple[np.ndarray, ...]:
        """Per serve dim, the ``(n_fine,)`` uint64 table of a fine
        code's term in the mixed-radix key: its serve bin times the
        product of the later dims' serve-bin counts, so summing one
        lookup per dim gives the Horner key over serve bins."""
        tables = []
        for j, lut in enumerate(self.bin_luts):
            stride = math.prod(self.n_bins[j + 1:])
            term = np.array([b * stride for b in range(self.n_bins[j])],
                            dtype=np.uint64)
            tables.append(term[lut])
        return tuple(tables)

    @cached_property
    def _code_groups(self) -> dict[int, tuple[list[int], np.ndarray]]:
        """The serve grids grouped by ``n_fine``, with their domains,
        built once per model (read-only, shared by every thread) so
        :meth:`digitize` regroups nothing per batch."""
        return fine_code_groups(self.grids)

    @cached_property
    def _code_tiles(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """The serve grids' domains tiled for
        :func:`~repro.core.histogram.block_codes`, built once per
        model likewise so :meth:`digitize` re-tiles nothing per batch."""
        return fine_code_tiles(self.grids)

    @property
    def cache_pays(self) -> bool:
        """Whether answering a repeat signature from the serving cache
        costs less than evaluating it — a property of the model's shape.

        Per record, :meth:`eval_idx` gathers and ANDs ``n_words`` mask
        words per serve dim and tests each cluster's word; a cache hit
        builds the key (one step per serve dim), probes the sorted
        table and gathers the stored row.  In units of one cluster
        test, the cache pays when ``n_serve_dims * (EVAL_WORD_COST *
        n_words - 1) + n_clusters`` reaches ``PROBE_COST`` (four times
        that for packed-signature keys).  A one-word model (at most 64
        clusters) gets there only past 27 serve dims; hundreds of
        clusters always do."""
        work = (self.n_serve_dims * (EVAL_WORD_COST * self.n_words - 1)
                + self.n_clusters)
        return work >= PROBE_COST * (1 if self._one_word_keys else 4)

    # -- evaluation ------------------------------------------------------
    def digitize(self, records: np.ndarray) -> np.ndarray:
        """Map an ``(n, ndim)`` record block to its column-major ``(n,
        s)`` fine-code matrix, column ``j`` coded on ``grids[j]`` — the
        only place record values are read.  Every other method takes
        these codes."""
        records = np.atleast_2d(np.asarray(records, dtype=np.float64))
        if records.ndim != 2 or records.shape[1] != self.ndim:
            raise DataError(
                f"records shape {records.shape} does not match model "
                f"with {self.ndim} dimensions")
        codes = np.empty((len(records), self.n_serve_dims), order="F",
                         dtype=code_dtype(max(
                             (dg.n_fine for dg in self.grids), default=1)))
        fine_codes_matrix(records, self.grids, out=codes.T,
                          tiles=self._code_tiles, groups=self._code_groups)
        return codes

    def signatures(self, codes: np.ndarray) -> np.ndarray:
        """Pack a digitized ``(n, s)`` matrix's serve bins into ``(n,
        ceil(s/4))`` uint64 bin-signature words (the serving-cache key
        space of models too wide for one-word keys)."""
        bins = np.empty(codes.shape, dtype=np.uint64)
        for j, lut in enumerate(self.bin_luts):
            bins[:, j] = lut[codes[:, j]]
        return pack_tokens(bins)

    def group_keys(self, codes: np.ndarray) -> np.ndarray:
        """One hashable grouping key per digitized record: records with
        equal keys provably score identically.  A ``(n,)`` uint64 array
        — the mixed-radix collapse of the serve bins, one key-table
        lookup per dim — when it fits, else the packed signature rows as
        an opaque void view."""
        if not self._one_word_keys:
            from ..core.units import row_keys
            return row_keys(self.signatures(codes))
        n = codes.shape[0]
        key = np.zeros(n, dtype=np.uint64)
        term = np.empty_like(key)
        for j, table in enumerate(self._key_luts):
            np.take(table, codes[:, j], out=term, mode="clip")
            np.add(key, term, out=key)
        return key

    def eval_idx(self, codes: np.ndarray) -> np.ndarray:
        """Membership from an already-digitized ``(n, s)`` fine-code
        matrix: ``(n, n_clusters)`` bool, True where the record
        satisfies at least one DNF term of the cluster.

        Runs in ~64k-record blocks so the gathered mask words stay
        cache-resident instead of round-tripping batch-sized
        temporaries through memory.  Codes from :meth:`digitize` are
        always in range, so the gathers take ``mode="clip"``: NumPy
        then writes straight into ``out`` instead of through a
        temporary it keeps in case an index is out of bounds."""
        n = codes.shape[0]
        if self.n_terms == 0 or n == 0:
            return np.zeros((n, self.n_clusters), dtype=bool)
        member = np.empty((n, self.n_clusters), dtype=bool, order="F")
        block = min(n, 65_536)
        hits = np.empty((block, self.n_words), dtype=np.uint64)
        gathered = np.empty_like(hits)
        for start in range(0, n, block):
            m = min(block, n - start)
            h, g = hits[:m], gathered[:m]
            h[...] = _ALL_ONES
            for j in range(self.n_serve_dims):
                np.take(self.luts[j], codes[start:start + m, j], axis=0,
                        out=g, mode="clip")
                np.bitwise_and(h, g, out=h)
            for c in range(self.n_clusters):
                np.not_equal(h[:, self.cluster_word[c]]
                             & self.cluster_mask[c], 0,
                             out=member[start:start + m, c])
        return member

    def score(self, records: np.ndarray) -> np.ndarray:
        """Digitize + evaluate in one call: ``(n, n_clusters)`` bool."""
        return self.eval_idx(self.digitize(records))


def compile_clusters(grid: Grid, clusters: Sequence[Cluster]
                     ) -> CompiledModel:
    """Compile a cluster sequence (e.g. ``result.clusters``) found on
    ``grid`` for serving against ``grid.ndim``-dimensional records."""
    if not isinstance(grid, Grid):
        raise DataError(f"compile_clusters needs a Grid, not {grid!r:.40}")
    return compile_arrays(term_arrays(clusters), grid.ndim,
                          grids=grid.dims,
                          subspaces=tuple(c.subspace.dims
                                          for c in clusters),
                          point_counts=tuple(int(c.point_count)
                                             for c in clusters))


def compile_result(result: Any) -> CompiledModel:
    """Compile a :class:`~repro.core.result.ClusteringResult` (or its
    ``result_to_dict`` payload) into a serving model."""
    if isinstance(result, dict):
        from ..core.export import result_from_dict
        result = result_from_dict(result)
    return compile_clusters(result.grid, result.clusters)


def compile_arrays(terms: TermArrays, ndim: int, *,
                   grids: Sequence[DimensionGrid],
                   subspaces: Sequence[Sequence[int]],
                   point_counts: Sequence[int] | None = None
                   ) -> CompiledModel:
    """Build the evaluator from a flat condition table and the grids
    (``DimensionGrid``s, keyed by ``dim``) of its condition dims; a term
    bound that is not an edge of its grid is refused."""
    if len(subspaces) != terms.n_clusters:
        raise DataError(f"{len(subspaces)} subspaces for "
                        f"{terms.n_clusters} clusters")
    if point_counts is None:
        point_counts = (0,) * terms.n_clusters
    subspaces = tuple(tuple(int(d) for d in dims) for dims in subspaces)
    for dims in subspaces:
        for d in dims:
            if not 0 <= d < ndim:
                raise DataError(f"subspace dim {d} outside the "
                                f"{ndim}-dimensional data space")
    if terms.n_conditions and int(terms.cond_dim.max()) >= ndim:
        raise DataError("term condition references a dim outside the "
                        f"{ndim}-dimensional data space")
    if (np.diff(terms.term_cluster) < 0).any():
        raise DataError("terms of one cluster must be contiguous, in "
                        "cluster order")

    # bit layout: terms of one cluster are contiguous (enforced above)
    # and padded so no cluster straddles a word — membership then
    # costs one masked word test per cluster
    bit_of_term, cluster_word, cluster_mask, n_words = _layout_bits(terms)

    grid_of = {int(dg.dim): dg for dg in grids}
    serve_dims = np.unique(terms.cond_dim) if terms.n_conditions \
        else np.empty(0, dtype=np.int64)
    serve_grids: list[DimensionGrid] = []
    bin_luts: list[np.ndarray] = []
    luts: list[np.ndarray] = []
    for dim in serve_dims:
        dg = grid_of.get(int(dim))
        if dg is None:
            raise DataError(f"no grid for serving dim {int(dim)}")
        on_dim = terms.cond_dim == dim
        index_of = {edge: i for i, edge in enumerate(dg.edges)}
        try:
            first = np.array([index_of[b] for b in
                              terms.cond_lo[on_dim].tolist()], dtype=np.int64)
            stop = np.array([index_of[b] for b in
                             terms.cond_hi[on_dim].tolist()], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"dim {int(dim)}: term bound {exc.args[0]!r} "
                            f"is not an edge of its grid") from None
        if (stop <= first).any():
            raise DataError(f"dim {int(dim)}: empty term interval")
        # serve bin of grid bin b: the number of term cuts in (0, b]
        cut = np.zeros(dg.nbins + 1, dtype=bool)
        cut[first] = cut[stop] = True
        serve_of_bin = np.zeros(dg.nbins, dtype=np.int64)
        np.cumsum(cut[1:dg.nbins], out=serve_of_bin[1:])
        masks = np.full((serve_of_bin[-1] + 1, n_words), _ALL_ONES,
                        dtype=np.uint64)
        for t, a, b in zip(terms.cond_term[on_dim], serve_of_bin[first],
                           serve_of_bin[stop - 1] + 1):
            # the term accepts serve bins [a, b): clear its bit outside
            word, bit = divmod(int(bit_of_term[t]), 64)
            clear = ~(np.uint64(1) << np.uint64(bit))
            masks[:a, word] &= clear
            masks[b:, word] &= clear
        # both tables are read by fine code: a code's serve bin, and
        # the mask of that serve bin
        bin_lut = serve_of_bin[dg.lut]
        serve_grids.append(dg)
        bin_luts.append(bin_lut.astype(np.uint8))
        luts.append(masks[bin_lut])

    return CompiledModel(
        ndim=int(ndim), subspaces=subspaces,
        point_counts=tuple(int(p) for p in point_counts),
        terms=terms, serve_dims=serve_dims, grids=tuple(serve_grids),
        bin_luts=tuple(bin_luts), luts=tuple(luts),
        n_words=n_words, cluster_word=cluster_word,
        cluster_mask=cluster_mask)


def _layout_bits(terms: TermArrays
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Assign each term a bit so every cluster's terms share one word.

    Returns ``(bit_of_term, cluster_word, cluster_mask, n_words)``.
    A cluster's bit range is padded to never straddle a word boundary,
    which caps clusters at 64 DNF terms — adaptive-grid DNFs are far
    below that (the greedy cover emits one box per uncovered region);
    a pathological cluster fails loudly at compile time rather than
    silently mis-scoring.
    """
    n_clusters = terms.n_clusters
    counts = np.zeros(n_clusters, dtype=np.int64)
    if terms.n_terms:
        counts += np.bincount(terms.term_cluster, minlength=n_clusters)
    bit_of_term = np.zeros(terms.n_terms, dtype=np.int64)
    cluster_word = np.zeros(n_clusters, dtype=np.int64)
    cluster_mask = np.zeros(n_clusters, dtype=np.uint64)
    next_bit = 0
    term_cursor = 0
    for c in range(n_clusters):
        k = int(counts[c])
        if k > 64:
            raise DataError(
                f"cluster {c} has {k} DNF terms; the packed evaluator "
                f"supports at most 64 per cluster")
        word_pos = next_bit % 64
        if k and word_pos + k > 64:     # pad to the next word boundary
            next_bit += 64 - word_pos
        start = next_bit
        bit_of_term[term_cursor:term_cursor + k] = \
            np.arange(start, start + k)
        cluster_word[c] = start // 64
        if k:
            span = (_ALL_ONES >> np.uint64(64 - k)) \
                << np.uint64(start % 64)
            cluster_mask[c] = span
        term_cursor += k
        next_bit += k
    n_words = max(1, -(-next_bit // 64))
    return bit_of_term, cluster_word, cluster_mask, n_words
