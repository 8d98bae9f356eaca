"""CDU population: the data pass that counts records per candidate unit.

"The algorithm spends most of its time in making a pass over the data
and finding out the dense units among the candidate dense units" (§4) —
this is the data-parallel heart of pMAFIA: every rank streams its N/p
local records in chunks of B and increments the histogram count of each
CDU a record falls in; a sum-Reduce yields global counts.

One engine serves every pass.  Right after the grid is fixed each rank
stages a :class:`~repro.io.bitmap_index.BitmapIndex` over its local
records — one packed membership bitmap per (dim, bin) pair — and a CDU's
count is the popcount of the AND of its k bitmaps.  :func:`count_units`
visits the CDUs in lexicographic subspace order so the accumulator for
``(d0..dk)`` reuses the AND for ``(d0..dk-1)`` (a prefix stack within
the pass); an :class:`IndexedPopulator` adds an LRU prefix memo across
passes — level-(k+1) CDUs extend level-k dense units, so the previous
pass's leaves are this pass's prefixes.

The simulated-time backend is charged the naive per-CDU cost (what the
paper's per-record scan on the SP2 paid) and float-width I/O per chunk:
the populator *replays* the exact per-chunk charge sequence of a pass
that re-read the records, without performing the reads, keeping virtual
runtimes faithful to the measured system.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..errors import DataError
from ..io.bitmap_index import (DEFAULT_BITMAP_BUDGET, RECORD_ITEMSIZE,
                               BitmapIndex, build_bitmap_index,
                               edges_fingerprint)
from ..io.chunks import DataSource
from ..io.resilient import RetryPolicy
from ..parallel.comm import Comm
from ..types import Grid
from .units import UnitTable

#: leaf accumulators popcounted per batch — one vectorised count over
#: ``(batch, row_bytes)`` replaces a per-unit ufunc round trip
_UNIT_BATCH = 512

_POPCOUNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)

# numpy >= 2.0 has a native popcount ufunc; resolve the dispatch once
# at import instead of per AND/popcount batch
if hasattr(np, "bitwise_count"):
    def _popcount_rows(acc: np.ndarray) -> np.ndarray:
        """Per-row popcounts of a ``(rows, nbytes)`` packed matrix."""
        nbytes = acc.shape[-1]
        if nbytes and nbytes % 8 == 0 and acc.flags.c_contiguous:
            # 8x fewer elements for the sum's uint->int64 promotion
            return np.bitwise_count(acc.view(np.uint64)) \
                .sum(axis=1, dtype=np.int64)
        return np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
else:
    def _popcount_rows(acc: np.ndarray) -> np.ndarray:
        """Per-row popcounts of a ``(rows, nbytes)`` packed matrix."""
        return _POPCOUNT8[acc].sum(axis=1, dtype=np.int64)


class _PrefixMemo:
    """Byte-bounded LRU of prefix AND accumulators, keyed by the tuple
    of flat (dim, bin) pair ids along a lexicographic subspace prefix.

    Kept across level passes by an :class:`IndexedPopulator` — a
    level-(k+1) CDU's k-prefix is a level-k dense unit whose
    accumulator the previous pass cached.  Entries are immutable
    (readers AND them into fresh arrays).
    """

    def __init__(self, byte_budget: int) -> None:
        self.byte_budget = max(0, int(byte_budget))
        self._entries: OrderedDict[tuple[int, ...], np.ndarray] = \
            OrderedDict()
        self._nbytes = 0

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple[int, ...]) -> np.ndarray | None:
        acc = self._entries.get(key)
        if acc is not None:
            self._entries.move_to_end(key)
        return acc

    def put(self, key: tuple[int, ...], acc: np.ndarray) -> None:
        if acc.nbytes > self.byte_budget:
            return
        acc.setflags(write=False)
        prev = self._entries.pop(key, None)
        if prev is not None:
            self._nbytes -= prev.nbytes
        self._entries[key] = acc
        self._nbytes += acc.nbytes
        while self._nbytes > self.byte_budget:
            _, old = self._entries.popitem(last=False)
            self._nbytes -= old.nbytes


class _PassStats:
    """Tally of one :func:`count_units` walk: memo probes that hit and
    missed, and bitmap ANDs actually executed."""

    __slots__ = ("hits", "misses", "and_ops")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.and_ops = 0


def count_units(index: BitmapIndex, units: UnitTable,
                out: np.ndarray | None = None, *,
                memo: _PrefixMemo | None = None,
                order: np.ndarray | None = None,
                stats: _PassStats | None = None) -> np.ndarray:
    """Exact per-unit record counts straight off a bitmap index.

    CDUs are visited in lexicographic pair order (``order`` may pass
    that permutation precomputed; pair ids are monotone in the (dim,
    bin) tokens, so the dedup phase's token sort agrees row for row).
    ``stack_accs[j]`` is the AND of the bitmaps along the current
    path's first ``j + 1`` pairs — or ``None`` when a ``memo`` seed
    jumped straight to a deeper prefix and the intermediate
    accumulators were never materialised (holes are recomputed only if
    a later truncation exposes them).  With a ``memo`` every leaf is
    also cached as a prefix of the next level's CDUs.

    Counts are pure popcounts, additive over any row partition: the
    streaming engine sums per-segment counts and equals one count over
    the concatenated records.
    """
    counts = np.zeros(units.n_units, dtype=np.int64) if out is None else out
    if out is not None:
        counts[:] = 0
    if units.n_units == 0:
        return counts
    stats = _PassStats() if stats is None else stats
    pairs = index.pair_ids(units.dims, units.bins)
    k = pairs.shape[1]
    if order is None:
        order = np.lexsort(tuple(pairs[:, j] for j in range(k - 1, -1, -1)))
    stack_pairs: list[int] = []
    stack_accs: list[np.ndarray | None] = []
    batch = max(1, min(_UNIT_BATCH, units.n_units))
    scratch = np.empty((batch, index.row_bytes), dtype=np.uint8)
    pend_rows = np.empty(batch, dtype=np.int64)
    n_pend = 0
    for row_i in order:
        row = pairs[row_i].tolist()     # plain ints: one C call
        keep = 0
        limit = len(stack_pairs)
        while keep < limit and stack_pairs[keep] == row[keep]:
            keep += 1
        del stack_pairs[keep:], stack_accs[keep:]
        # deepest kept depth whose accumulator is materialised
        best = keep
        while best > 0 and stack_accs[best - 1] is None:
            best -= 1
        # probe the memo for a prefix deeper than anything on the
        # stack (depth-1 "prefixes" are raw index rows, never cached)
        probes = range(k - 1, max(best, 1), -1) if memo is not None \
            else ()
        for plen in probes:
            cached = memo.get(tuple(row[:plen]))
            if cached is None:
                stats.misses += 1
                continue
            stats.hits += 1
            while len(stack_pairs) < plen:
                stack_pairs.append(row[len(stack_pairs)])
                stack_accs.append(None)
            stack_accs[plen - 1] = cached
            best = plen
            break
        acc = stack_accs[best - 1] if best else None
        for j in range(best, k):
            pair = row[j]
            bitmap = index.bitmap(pair)
            if acc is None:
                acc = bitmap       # depth 1: a read-only index view
            else:
                acc = acc & bitmap
                stats.and_ops += 1
            if j < len(stack_pairs):
                stack_pairs[j] = pair
                stack_accs[j] = acc
            else:
                stack_pairs.append(pair)
                stack_accs.append(acc)
        if n_pend == batch:
            counts[pend_rows] = _popcount_rows(scratch)
            n_pend = 0
        scratch[n_pend] = acc
        pend_rows[n_pend] = row_i
        n_pend += 1
        if memo is not None and k >= 2:
            # the leaf is the next level's prefix (level-(k+1) CDUs
            # extend level-k dense units)
            memo.put(tuple(row), acc)
    if n_pend:
        counts[pend_rows[:n_pend]] = _popcount_rows(scratch[:n_pend])
    return counts


class IndexedPopulator:
    """Population served from a persistent bitmap index: every pass is
    AND + popcount over cached bitmaps, no data reads at all.

    One instance lives for the whole run so its prefix memo spans level
    passes.  ``counts`` are exact integer popcounts of deterministic
    AND chains, so they are bit-identical for any memo state.
    """

    def __init__(self, index: BitmapIndex, *,
                 budget: int = DEFAULT_BITMAP_BUDGET) -> None:
        self.index = index
        # the resident index and the memo share one byte budget; a
        # spilled (mmap) index leaves the whole budget to the memo
        memo_budget = budget - (index.nbytes if index.resident else 0)
        self.memo = _PrefixMemo(memo_budget)
        self._grid_ok: bool = False

    def _check_grid(self, grid: Grid) -> None:
        if self._grid_ok:
            return
        if grid.ndim != self.index.n_dims or \
                not self.index.key.startswith(edges_fingerprint(grid)):
            raise DataError(
                "bitmap index was built for a different grid; restage it")
        self._grid_ok = True

    def populate_local(self, comm: Comm, grid: Grid, units: UnitTable,
                       chunk_records: int,
                       order: np.ndarray | None = None) -> np.ndarray:
        """This rank's counts per CDU, straight off the index.

        The virtual clock is charged a record pass's exact per-chunk
        sequence (float-width I/O, then the naive per-CDU cell cost)
        over the same chunk boundaries — same additions in the same
        order, so simulated times equal a pass that actually read the
        data.  ``order`` forwards a precomputed lexicographic unit
        permutation to :func:`count_units`.
        """
        if chunk_records <= 0:
            raise DataError(
                f"chunk_records must be positive, got {chunk_records}")
        self._check_grid(grid)
        index = self.index
        per_record_cost = units.n_units * units.level
        obs = getattr(comm, "obs", None)
        for lo in range(0, index.n_records, chunk_records):
            rows = min(chunk_records, index.n_records - lo)
            nbytes = rows * index.n_dims * RECORD_ITEMSIZE
            comm.charge_io(nbytes, chunks=1)
            if obs is not None:
                obs.io_chunk(rows, nbytes, kind="indexed")
            comm.charge_cells(rows * per_record_cost)
        stats = _PassStats()
        counts = count_units(index, units, memo=self.memo, order=order,
                             stats=stats)
        if obs is not None:
            obs.indexed_pass(units.n_units, stats.hits, stats.misses,
                             stats.and_ops, self.memo.nbytes)
        return counts


def populate_local(source: DataSource | None, comm: Comm, grid: Grid,
                   units: UnitTable, chunk_records: int,
                   start: int = 0, stop: int | None = None,
                   retry: RetryPolicy | None = None, *,
                   indexed: IndexedPopulator | None = None,
                   order: np.ndarray | None = None) -> np.ndarray:
    """Counts of this rank's local records per CDU (one data pass).

    ``start``/``stop`` select the rank's block when the source holds the
    full data set (in-memory SPMD); a staged local file is passed whole.
    ``indexed`` serves the pass from the run's staged index (which must
    cover exactly this block); without one a resident index is staged
    from the source for this call alone.
    """
    if units.n_units == 0:
        return np.zeros(0, dtype=np.int64)
    if indexed is None:
        indexed = IndexedPopulator(build_bitmap_index(
            source, grid, chunk_records, start, stop, retry=retry,
            fault_state=getattr(comm, "fault_state", None)))
    elif source is not None:
        expected = (source.n_records if stop is None else stop) - start
        if indexed.index.n_records != expected:
            raise DataError(
                f"bitmap index holds {indexed.index.n_records} records "
                f"but the rank's block has {expected}")
    return indexed.populate_local(comm, grid, units, chunk_records,
                                  order=order)


def populate_global(source: DataSource | None, comm: Comm, grid: Grid,
                    units: UnitTable, chunk_records: int,
                    start: int = 0, stop: int | None = None,
                    retry: RetryPolicy | None = None, *,
                    indexed: IndexedPopulator | None = None,
                    order: np.ndarray | None = None) -> np.ndarray:
    """Global CDU counts: local pass + sum Reduce (§4.1)."""
    return comm.allreduce(
        populate_local(source, comm, grid, units, chunk_records, start,
                       stop, retry, indexed=indexed, order=order),
        op="sum")
