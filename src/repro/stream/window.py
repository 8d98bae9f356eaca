"""The sliding window: one code ring per rank plus segment metadata.

Each rank keeps the fine codes of its live local records — the only
per-record state a session holds (the float records are binned once,
at ingest) — in one ``(d, capacity)`` ring of ``code_dtype(fine_bins)``
(:class:`SlidingWindow`).  Records enter at the tail and expire from
the head, so the live codes are always one ring region, at most two
slices when it wraps.  Each ingested delta becomes one
:class:`WindowSegment`: metadata naming its rows of the ring and the
global-window arithmetic its expiry needs.  A snapshot stages one
transient bitmap index from the live region
(:meth:`SlidingWindow.stage_index`) and drops it when it returns;
popcounts do not depend on record order, so the ring order is as good
as the stream order.

Window expiry is head-drop in *global* record order: the window tracks
each segment's global size and this rank's share of it, so every rank
independently drops exactly its overlap with the globally expired
prefix — the surviving local slices always union to the surviving
global window, which is what keeps snapshots bit-identical to a cold
run over the live records.
"""

from __future__ import annotations

import os
from collections import deque
from pathlib import Path

import numpy as np

from ..io.bitmap_index import BitmapIndex, build_bitmap_index
from ..types import Grid


class WindowSegment:
    """One delta's live slice on this rank: metadata over the ring.

    The slice's live local records are ring positions ``[offset,
    offset + length)`` (absolute positions, never wrapped), and their
    global positions within the delta are ``[g_lo, g_lo + length)``.
    ``g_size`` is the delta's *global* record count and ``g_dropped``
    how many of its global head records have expired.  ``rec_path`` is
    a spilled single-rank segment's record file, whose row ``i`` holds
    global position ``i`` of the segment.
    """

    __slots__ = ("seq", "offset", "length", "g_size", "g_lo", "g_dropped",
                 "rec_path")

    def __init__(self, seq: int, offset: int, length: int, g_size: int,
                 g_lo: int = 0,
                 rec_path: str | os.PathLike | None = None) -> None:
        self.seq = int(seq)
        self.offset = int(offset)
        self.length = int(length)
        self.g_size = int(g_size)
        self.g_lo = int(g_lo)
        self.g_dropped = 0
        self.rec_path = None if rec_path is None else Path(rec_path)

    @property
    def g_live(self) -> int:
        return self.g_size - self.g_dropped

    def drop_head_global(self, k: int) -> int:
        """Expire ``k`` more *global* head records; returns how many of
        this rank's live rows went (always the head of its ring rows)."""
        self.g_dropped += min(int(k), self.g_live)
        n_drop = min(self.length, max(0, self.g_dropped - self.g_lo))
        self.offset += n_drop
        self.g_lo += n_drop
        self.length -= n_drop
        return n_drop


class SlidingWindow:
    """This rank's live fine codes in one ring, the ordered segments
    over it, and the global-window arithmetic.

    The ring grows only when an append does not fit, to the larger of
    what is needed and twice its capacity capped at ``limit`` (the
    window's global record count, an upper bound on any rank's share),
    so its capacity stays under twice the most it ever held.  Nothing
    an ingest does walks the whole segment list: an unspilled session
    never merges segments, so a long window of small deltas holds many.
    """

    def __init__(self, n_dims: int, dtype: np.dtype,
                 limit: int | None = None) -> None:
        self.segments: deque[WindowSegment] = deque()
        #: global live record count across all ranks
        self.g_live = 0
        self._ring = np.empty((n_dims, 0), dtype=dtype)
        self._limit = limit
        self._origin = 0      # absolute position held by ring column 0
        self._head = 0        # absolute position of the first live row
        self._end = 0         # absolute position past the last row

    @property
    def n_local(self) -> int:
        """This rank's live record count."""
        return self._end - self._head

    def _slices(self, lo: int, hi: int) -> list[np.ndarray]:
        """Ring views of absolute positions ``[lo, hi)``: one slice, or
        two when the range wraps."""
        cap = self._ring.shape[1]
        if hi == lo:
            return [self._ring[:, :0]]
        a = (lo - self._origin) % cap
        if a + hi - lo <= cap:
            return [self._ring[:, a:a + hi - lo]]
        return [self._ring[:, a:], self._ring[:, :a + hi - lo - cap]]

    def codes(self, lo: int, hi: int) -> np.ndarray:
        """The ``(d, hi - lo)`` codes at absolute positions ``[lo, hi)``:
        a ring view, or a concatenation of the two slices of a wrapped
        range."""
        parts = self._slices(lo, hi)
        return parts[0] if len(parts) == 1 \
            else np.concatenate(parts, axis=1)

    def live_codes(self) -> np.ndarray:
        """Every live local record's codes, in ring order."""
        return self.codes(self._head, self._end)

    def stage_index(self, grid: Grid, chunk_records: int) -> BitmapIndex:
        """A resident bitmap index of every live local record under
        ``grid``, packed straight from the ring's one or two live
        slices; the caller drops it after use."""
        return build_bitmap_index(None, grid, chunk_records,
                                  codes=self._slices(self._head, self._end))

    def append(self, seq: int, codes: np.ndarray, g_size: int,
               g_lo: int = 0,
               rec_path: str | os.PathLike | None = None) -> WindowSegment:
        """Copy one delta's ``(d, n)`` local codes to the ring tail and
        record its segment."""
        n = codes.shape[1]
        need = self.n_local + n
        cap = self._ring.shape[1]
        if need > cap:
            grown = 2 * cap if self._limit is None \
                else min(2 * cap, self._limit)
            ring = np.empty((self._ring.shape[0], max(need, grown)),
                            dtype=self._ring.dtype)
            ring[:, :self.n_local] = self.live_codes()
            self._ring, self._origin = ring, self._head
        done = 0
        for part in self._slices(self._end, self._end + n):
            part[...] = codes[:, done:done + part.shape[1]]
            done += part.shape[1]
        seg = WindowSegment(seq, self._end, n, g_size, g_lo, rec_path)
        self._end += n
        self.g_live += seg.g_size
        self.segments.append(seg)
        return seg

    def expire(self, k_global: int
               ) -> tuple[list[np.ndarray], list[WindowSegment]]:
        """Expire the oldest ``k_global`` global records.

        Returns ``(dropped, removed)``: ring views of this rank's
        dropped rows (one or two blocks, valid until the next
        :meth:`append`; for exact histogram subtraction), and the
        segments whose last live record expired, now out of the window
        (their spilled files are the caller's to reap).
        """
        remaining = min(int(k_global), self.g_live)
        self.g_live -= remaining
        n_drop = 0
        for seg in self.segments:
            if remaining <= 0:
                break
            take = min(remaining, seg.g_live)
            n_drop += seg.drop_head_global(take)
            remaining -= take
        removed = []
        while self.segments and self.segments[0].g_live == 0:
            removed.append(self.segments.popleft())
        dropped = self._slices(self._head, self._head + n_drop)
        self._head += n_drop
        return dropped, removed
