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
the pass).  Every AND writes into a buffer the pass allocated up front:
interior prefixes into one row per depth, leaves straight into a
zero-padded batch that is popcounted through its ``uint64`` view.  A
pass holds a fixed number of bytes whatever its CDU count, and keeps
nothing for the next.

The simulated-time backend is charged the naive per-CDU cost (what the
paper's per-record scan on the SP2 paid) and float-width I/O per chunk:
the populator *replays* the exact per-chunk charge sequence of a pass
that re-read the records, without performing the reads, keeping virtual
runtimes faithful to the measured system.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..io.bitmap_index import (RECORD_ITEMSIZE, BitmapIndex,
                               build_bitmap_index, edges_fingerprint)
from ..io.chunks import DataSource
from ..io.resilient import RetryPolicy
from ..parallel.comm import Comm
from ..types import Grid
from .units import UnitTable

#: bytes of leaf ANDs popcounted per batch: one ``np.bitwise_count``
#: over a ``(rows, 8-byte-padded row)`` uint64 view replaces a ufunc
#: round trip per CDU (7 rows at 1.1M records, 800-plus at 10k)
_BATCH_BYTES = 1 << 20


class _PassStats:
    """Tally of one :func:`count_units` walk: bitmap ANDs executed."""

    __slots__ = ("and_ops",)

    def __init__(self) -> None:
        self.and_ops = 0


def count_units(index: BitmapIndex, units: UnitTable,
                out: np.ndarray | None = None, *,
                order: np.ndarray | None = None,
                stats: _PassStats | None = None) -> np.ndarray:
    """Exact per-unit record counts straight off a bitmap index.

    CDUs are visited in lexicographic pair order (``order`` may pass
    that permutation precomputed; pair ids are monotone in the (dim,
    bin) tokens, so the dedup phase's token sort agrees row for row).
    ``accs[j]`` is the AND of the bitmaps along the current path's
    first ``j + 1`` pairs: depth 0 is a read-only index view, deeper
    interior depths are rows of one preallocated buffer.  Each leaf AND
    is written straight into its row of a zero-padded batch whose
    ``uint64`` view is popcounted when full.  A pass allocates those
    fixed buffers and keeps nothing.

    Counts are pure popcounts, independent of record order: a stream
    snapshot counts its ring of live codes in ring order and equals one
    count over the live records in stream order.
    """
    counts = np.zeros(units.n_units, dtype=np.int64) if out is None else out
    if out is not None:
        counts[:] = 0
    if units.n_units == 0:
        return counts
    pairs = index.pair_ids(units.dims, units.bins)
    row_bytes = index.row_bytes
    if row_bytes == 0:
        return counts
    stats = _PassStats() if stats is None else stats
    k = pairs.shape[1]
    if order is None:
        order = np.lexsort(tuple(pairs[:, j] for j in range(k - 1, -1, -1)))
    width = -(-row_bytes // 8) * 8
    batch = max(1, min(_BATCH_BYTES // width, units.n_units))
    # padding bytes past row_bytes are never written, so they stay zero
    leaves = np.zeros((batch, width), dtype=np.uint8)
    leaf_rows = list(leaves[:, :row_bytes])
    words = leaves.view(np.uint64)
    bits = np.empty(words.shape, dtype=np.uint8)
    pend_rows = np.empty(batch, dtype=np.int64)
    # depth 0 is a read-only index view; depths 1..k-2 are buffer rows
    accs = [None, *np.empty((max(k - 2, 0), row_bytes), dtype=np.uint8)]
    path: list[int] = []
    n_pend = 0
    and_ops = 0
    for row_i in order:
        row = pairs[row_i].tolist()     # plain ints: one C call
        keep = 0
        limit = len(path)
        while keep < limit and path[keep] == row[keep]:
            keep += 1
        del path[keep:]
        for j in range(keep, k - 1):
            if j == 0:
                accs[0] = index.bitmap(row[0])
            else:
                np.bitwise_and(accs[j - 1], index.bitmap(row[j]),
                               out=accs[j])
                and_ops += 1
            path.append(row[j])
        if k == 1:
            leaf_rows[n_pend][:] = index.bitmap(row[0])
        else:
            np.bitwise_and(accs[k - 2], index.bitmap(row[k - 1]),
                           out=leaf_rows[n_pend])
            and_ops += 1
        pend_rows[n_pend] = row_i
        n_pend += 1
        if n_pend == batch:
            np.bitwise_count(words, out=bits)
            counts[pend_rows] = bits.sum(axis=1, dtype=np.int64)
            n_pend = 0
    if n_pend:
        np.bitwise_count(words[:n_pend], out=bits[:n_pend])
        counts[pend_rows[:n_pend]] = bits[:n_pend].sum(axis=1,
                                                       dtype=np.int64)
    stats.and_ops += and_ops
    return counts


class IndexedPopulator:
    """Population served from the run's bitmap index: every pass is
    AND + popcount over cached bitmaps, no data reads at all.

    One instance lives for the whole run; a pass keeps nothing between
    calls, so it holds the index plus one pass's fixed buffers.
    """

    def __init__(self, index: BitmapIndex) -> None:
        self.index = index

    def _check_grid(self, grid: Grid) -> None:
        if self.index.key != edges_fingerprint(grid):
            raise DataError(
                "bitmap index was built for a different grid; restage it")

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
        counts = count_units(index, units, order=order, stats=stats)
        if obs is not None:
            obs.indexed_pass(units.n_units, stats.and_ops)
        return counts


def populate_local(source: DataSource | None, comm: Comm, grid: Grid,
                   units: UnitTable, chunk_records: int,
                   start: int = 0, stop: int | None = None,
                   retry: RetryPolicy | None = None, *,
                   indexed: IndexedPopulator | None = None,
                   order: np.ndarray | None = None) -> np.ndarray:
    """Counts of this rank's local records per CDU (one data pass).

    ``start``/``stop`` select the rank's block when the source holds the
    full data set (an array every SPMD rank sees); a staged local file is
    passed whole.
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
