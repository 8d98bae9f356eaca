"""Sliding-window segments: the unit of incremental state.

Each ingested delta becomes one :class:`WindowSegment` holding the
fine codes of the rank's local slice of the delta's records — a
``(d, n)`` matrix of ``code_dtype(fine_bins)``, the only per-record
state the session keeps in memory (the float records are binned once,
at ingest) — plus two lazily built, reusable artifacts: a per-(dim,
bin) bitmap index packed from those codes and a cache of per-CDU
popcounts.  Both depend only on the grid's *bin
edges* (:func:`repro.io.bitmap_index.edges_fingerprint`), so they
survive threshold-only grid changes — the common case under steady
traffic, where new deltas shift density thresholds every ingest but
leave the merged bin structure alone.  A spilled segment's index is
keyed on those edges plus the digest of exactly its live records
(the tail of its record file left after head drops); the record file
is read back only on resume and when a spilled compaction writes the
merged segment's file.

Window expiry is head-drop in *global* record order: the window tracks
each segment's global size and each rank's global sub-range, so every
rank independently drops exactly its overlap with the globally expired
prefix — the surviving local slices always union to the surviving
global window, which is what keeps snapshots bit-identical to a cold
run over the live records.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import ChecksumError, DataError
from ..core.population import count_units
from ..io.artifact import quarantine
from ..io.bitmap_index import (NO_RECORDS_DIGEST, BitmapIndex,
                               bitmap_cache_path, build_bitmap_index,
                               load_bitmap_cache)
from ..io.records import read_header
from ..types import Grid


class WindowSegment:
    """One delta's live slice on this rank, with cached artifacts.

    ``codes`` is the ``(d, n_local)`` fine-code matrix of the live
    local records (:func:`~repro.core.histogram.block_codes` under the
    session's domains); the segment holds no float records.  ``g_size`` is the delta's *global* record count and ``[g_lo, g_hi)``
    the global positions this rank's slice covered at ingest time;
    ``g_dropped`` counts globally expired head records and
    ``local_dropped`` the rows of them this rank held, so the live
    records are rows ``[local_dropped, local_dropped + n_local)`` of
    the segment's record file.  The segment's
    artifacts (bitmap index, per-unit count cache) are invalidated by
    expiry and by bin-edge changes, never by threshold-only grid
    changes.
    """

    def __init__(self, seq: int, codes: np.ndarray, g_size: int,
                 g_lo: int, g_hi: int,
                 rec_path: str | os.PathLike | None = None) -> None:
        codes = np.ascontiguousarray(codes)
        if codes.ndim != 2:
            raise DataError(f"segment codes must be 2-D, got "
                            f"{codes.ndim}-D")
        if not 0 <= g_lo <= g_hi <= g_size \
                or g_hi - g_lo != codes.shape[1]:
            raise DataError(
                f"segment range [{g_lo}, {g_hi}) inconsistent with "
                f"{codes.shape[1]} local records of {g_size} global")
        self.seq = int(seq)
        self.codes = codes
        self.g_size = int(g_size)
        self.g_lo = int(g_lo)
        self.g_hi = int(g_hi)
        self.g_dropped = 0
        self.local_dropped = 0
        self.rec_path = None if rec_path is None else Path(rec_path)
        self._index: BitmapIndex | None = None
        self._edges_fp: bytes | None = None
        self._counts: dict[bytes, np.ndarray] = {}

    # -- bookkeeping ------------------------------------------------------
    @property
    def n_local(self) -> int:
        return self.codes.shape[1]

    @property
    def g_live(self) -> int:
        return self.g_size - self.g_dropped

    # -- expiry -----------------------------------------------------------
    def drop_head_global(self, k: int) -> np.ndarray:
        """Expire ``k`` more *global* head records; returns the
        ``(d, n_drop)`` codes of this rank's dropped rows (for histogram
        subtraction) and invalidates the segment's artifacts when any
        local row went."""
        k = min(int(k), self.g_live)
        lo = max(self.g_lo, self.g_dropped)          # first live local pos
        hi = min(self.g_hi, self.g_dropped + k)      # end of dropped range
        n_drop = max(0, hi - lo)
        self.g_dropped += k
        dropped = self.codes[:, :n_drop]
        if n_drop == 0:
            return dropped
        self.codes = np.ascontiguousarray(self.codes[:, n_drop:])
        self.local_dropped += n_drop
        self.invalidate()
        return dropped

    # -- artifacts --------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the cached index and counts (e.g. after an edge change
        when the caller wants memory back immediately)."""
        self._index = None
        self._edges_fp = None
        self._counts.clear()

    def has_counts(self, units_key: bytes, edges_fp: bytes) -> bool:
        """Whether :meth:`counts_for` would be a cache hit under these
        bin edges."""
        return units_key in self.cached_counts(edges_fp)

    def cached_counts(self, edges_fp: bytes) -> dict[bytes, np.ndarray]:
        """The count cache (read-only by convention) if it was filled
        under these bin edges, else empty — compaction pre-seeds a
        merged segment from its parents' shared keys."""
        return self._counts if self._edges_fp == edges_fp else {}

    def seed_counts(self, edges_fp: bytes,
                    counts: dict[bytes, np.ndarray]) -> None:
        """Adopt a count cache filled under these bin edges
        (compaction's summed parent caches); the index is built lazily
        by :meth:`ensure_index`."""
        self._index = None
        self._edges_fp = edges_fp
        self._counts = dict(counts)

    def _index_path(self) -> Path | None:
        return None if self.rec_path is None \
            else bitmap_cache_path(self.rec_path)

    def ensure_index(self, grid: Grid, edges_fp: bytes,
                     chunk_records: int) -> BitmapIndex:
        """The segment's bitmap index for the current bin edges,
        (re)building it when stale.  A spilled segment persists the
        index next to its record file, keyed on the edges and the
        digest of its live records; a sibling failing its header or key
        check is silently rebuilt, and one failing a tile CRC *after*
        load is quarantined before the rebuild — see
        :meth:`counts_for`."""
        if self._index is not None and self._edges_fp == edges_fp:
            return self._index
        path = self._index_path()
        index = None
        digest = NO_RECORDS_DIGEST
        if path is not None:
            digest = read_header(self.rec_path).digest(
                self.local_dropped, self.local_dropped + self.n_local)
            index = load_bitmap_cache(path, grid, digest)
        if index is None:
            index = build_bitmap_index(None, grid, chunk_records,
                                       path=path, records_digest=digest,
                                       codes=self.codes)
        if self._edges_fp != edges_fp:
            self._counts.clear()
        self._index = index
        self._edges_fp = edges_fp
        return index

    def counts_for(self, units, units_key: bytes, grid: Grid,
                   edges_fp: bytes, chunk_records: int, *,
                   order: np.ndarray | None = None,
                   on_quarantine: Callable[[str], None] | None = None
                   ) -> np.ndarray:
        """Exact per-unit counts of this segment's live local records,
        cached per (edges, unit-table) pair.  ``order`` forwards the
        units' precomputed lexicographic permutation to
        :func:`~repro.core.population.count_units`.

        A spilled tile failing its CRC on first touch is quarantined
        (:func:`repro.io.artifact.quarantine`, like a corrupt
        checkpoint) and the index rebuilt from the segment's codes —
        corruption costs a rebuild, never a wrong count.
        """
        cached = self.cached_counts(edges_fp).get(units_key)
        if cached is not None:
            return cached
        index = self.ensure_index(grid, edges_fp, chunk_records)
        try:
            counts = count_units(index, units, order=order)
        except ChecksumError:
            path = self._index_path()
            if path is None or not path.exists():
                raise
            quarantined = quarantine(path)
            if on_quarantine is not None:
                on_quarantine(str(quarantined))
            self.invalidate()
            index = self.ensure_index(grid, edges_fp, chunk_records)
            counts = count_units(index, units, order=order)
        self._counts[units_key] = counts
        return counts


class SlidingWindow:
    """Ordered live segments plus the global-window arithmetic."""

    def __init__(self) -> None:
        self.segments: list[WindowSegment] = []

    @property
    def g_live(self) -> int:
        """Global live record count across all ranks."""
        return sum(seg.g_live for seg in self.segments)

    @property
    def n_local(self) -> int:
        """This rank's live record count."""
        return sum(seg.n_local for seg in self.segments)

    def append(self, segment: WindowSegment) -> None:
        self.segments.append(segment)

    def expire(self, k_global: int) -> tuple[list[np.ndarray], int]:
        """Expire the oldest ``k_global`` global records.

        Returns ``(dropped_blocks, n_dropped_global)`` — the
        ``(d, n)`` codes of this rank's dropped rows, one block per
        touched segment in stream order (for exact histogram
        subtraction), and the global count actually dropped.  Segments
        whose last live record expired are removed (their spilled
        files are left for the caller's spill manager to reap).
        """
        dropped: list[np.ndarray] = []
        remaining = min(int(k_global), self.g_live)
        total = remaining
        for seg in self.segments:
            if remaining <= 0:
                break
            take = min(remaining, seg.g_live)
            codes = seg.drop_head_global(take)
            if codes.shape[1]:
                dropped.append(codes)
            remaining -= take
        self.segments = [s for s in self.segments if s.g_live > 0]
        return dropped, total
