"""The incremental clustering engine: :class:`StreamingSession`.

A session is a long-running, incrementally maintained clustering over a
sliding window of records.  ``ingest`` applies one ordered delta:
broadcast to every rank, sliced into per-rank shares, binned once into
fine codes by :func:`~repro.core.histogram.block_histogram` (which
keeps the codes), folded into the maintained global fine histogram
(exact integer adds), appended as a
:class:`~repro.stream.window.WindowSegment` holding those codes, and
aged-out head records expired (exact integer subtracts of the dropped
codes' histogram).  The float records are not kept: every later
artifact is packed from the codes.  ``snapshot`` then runs the batch
driver's own level loop, :func:`~repro.core.pmafia.walk_lattice`, over
the live window — join, repeat elimination, dense identification,
registration, cluster assembly — with population served from
per-segment bitmap indexes and count caches.

**Correctness anchor** — ``snapshot()`` is bit-identical to a cold
batch run over exactly the live records, including ``pairs_examined``:

- the fine histogram is maintained by per-block integer adds and
  subtracts (:func:`~repro.core.histogram.code_histogram` of the
  blocks' codes, which are the cold pass's own codes), which are exact
  over any block partition, so it always equals a cold pass over the
  live records;
- the adaptive grid is rebuilt from that histogram at every snapshot
  by the deterministic :func:`~repro.core.adaptive_grid.build_grid` —
  cheap, ``O(d x fine_bins)``;
- per-CDU counts are exact popcounts summed over segments
  (:func:`~repro.core.population.count_units`), and popcounts are
  additive over any row partition;
- the lattice walk *is* the batch driver's walk: every join and dedup
  runs live, so its pair charges and collectives are the cold
  run's.

The drift threshold therefore tunes **latency only**: expensive
per-segment artifacts (bitmap indexes, count caches) depend only on
the grid's bin *edges* and are rebuilt eagerly when histogram drift
(:func:`~repro.core.adaptive_grid.histogram_drift`) crosses the
threshold, keeping them warm for the next snapshot.  Exactness never
depends on when (or whether) that eager rebuild runs.

A ``spill_dir`` (single-rank sessions only) makes the session
resumable: each delta's records are staged to disk before the
manifest commit, segment bitmap indexes persist as ``.bmx`` siblings
keyed on the exact records they cover, a compaction reads its parents'
live rows back from their record files to write the merged one, and
``resume=True`` rebuilds the exact live window from the manifest,
computing each segment's codes from the records it reads.
Re-ingesting an already applied sequence number is a no-op, so
producers replay their last delta after a crash without
double-counting.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..core.adaptive_grid import build_grid, histogram_drift
from ..core.histogram import (block_codes, block_histogram, check_domains,
                              code_dtype, code_histogram)
from ..core.pmafia import walk_lattice
from ..core.result import ClusteringResult
from ..core.units import UnitTable
from ..errors import DataError, StreamError
from ..io.artifact import read_framed, write_framed
from ..io.bitmap_index import bitmap_cache_path, edges_fingerprint
from ..io.partition import block_range
from ..io.records import RecordFile, write_records
from ..obs import RankObs
from ..params import MafiaParams
from ..parallel.comm import Comm
from ..parallel.delta import broadcast_block, incremental_allreduce
from ..parallel.serial import SerialComm
from .window import SlidingWindow, WindowSegment

_MANIFEST_NAME = "stream_manifest.json"
_MANIFEST_MAGIC = b"PMST"
_MANIFEST_VERSION = 1

#: default segment-count ceiling before adjacent segments are merged
DEFAULT_COMPACT_SEGMENTS = 64


def _unlink_quiet(path: Path | None) -> None:
    if path is None:
        return
    try:
        os.unlink(path)
    except OSError:
        pass


def _live_records(seg: WindowSegment) -> np.ndarray:
    """A spilled segment's live rows, read back from its record file
    (an empty segment has no file)."""
    if seg.rec_path is None:
        return np.empty((0, seg.codes.shape[0]))
    return RecordFile(seg.rec_path).read_block(
        seg.local_dropped, seg.local_dropped + seg.n_local)


class StreamingSession:
    """Long-running incremental clustering over a sliding record window.

    Parameters
    ----------
    params:
        The usual :class:`~repro.params.MafiaParams`; ``trace`` /
        ``metrics`` additionally give every snapshot result a fresh
        per-snapshot observability export (``result.obs``) directly
        comparable to a cold run's.
    comm:
        The rank's communicator for SPMD sessions (every rank
        constructs one session and calls ``ingest``/``snapshot``
        collectively); defaults to a private
        :class:`~repro.parallel.serial.SerialComm`.
    domains:
        Explicit ``(d, 2)`` per-dimension domains — mandatory, because
        global min/max are not maintainable under expiry (an expired
        record may have carried the extremum).  Snapshots equal a cold
        run given the *same* explicit domains.
    window_records:
        Sliding-window capacity in records; ``None`` keeps everything.
    drift_threshold:
        Normalised histogram-drift level above which the adaptive bins
        are eagerly re-merged and segment artifacts rebuilt at ingest
        time (latency knob; see the module docstring).
    spill_dir:
        Directory for delta staging + resumable state (single-rank
        sessions only).
    compact_segments:
        Merge the two oldest segments whenever the live segment count
        exceeds this (bounds per-snapshot segment overhead); the merged
        segment keeps its parents' summed count caches and rebuilds its
        bitmap index lazily.
    resume:
        Rebuild the live window from ``spill_dir``'s manifest (which
        must exist) instead of starting empty.
    """

    def __init__(self, params: MafiaParams | None = None, *,
                 comm: Comm | None = None,
                 domains: np.ndarray,
                 window_records: int | None = None,
                 drift_threshold: float = 0.25,
                 spill_dir: str | os.PathLike | None = None,
                 compact_segments: int = DEFAULT_COMPACT_SEGMENTS,
                 resume: bool = False) -> None:
        self.comm = SerialComm() if comm is None else comm
        self.params = params or MafiaParams()
        domains = np.asarray(domains, dtype=np.float64)
        if domains.ndim != 2 or domains.shape[1] != 2:
            raise DataError(f"domains must be (d, 2), got {domains.shape}")
        self.domains = check_domains(domains, domains.shape[0])
        self.n_dims = int(domains.shape[0])
        if window_records is not None and window_records <= 0:
            raise DataError(
                f"window_records must be positive, got {window_records}")
        self.window_records = window_records
        if drift_threshold < 0:
            raise DataError(
                f"drift_threshold must be >= 0, got {drift_threshold}")
        self.drift_threshold = float(drift_threshold)
        if compact_segments < 2:
            raise DataError(
                f"compact_segments must be >= 2, got {compact_segments}")
        self.compact_segments = int(compact_segments)
        if spill_dir is not None and self.comm.size > 1:
            raise StreamError(
                "spill_dir is only supported on single-rank sessions "
                f"(this session has {self.comm.size} ranks)")
        self.spill_dir = None if spill_dir is None else Path(spill_dir)
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)

        self._hist = np.zeros((self.n_dims, self.params.fine_bins),
                              dtype=np.int64)
        self._window = SlidingWindow()
        self._last_seq = -1
        self._edges_fp: bytes | None = None
        self._grid_hist: np.ndarray | None = None
        self._closed = False
        self.obs = RankObs.create(self.params, self.comm)

        if resume:
            if self.spill_dir is None:
                raise StreamError("resume=True needs a spill_dir")
            self._resume_from_manifest()

    # -- lifecycle --------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def n_live(self) -> int:
        """Global live record count."""
        return self._window.g_live

    @property
    def last_seq(self) -> int:
        """Highest applied delta sequence number (-1 when none)."""
        return self._last_seq

    def close(self) -> None:
        """End the session (idempotent); further ingests/snapshots
        raise :class:`~repro.errors.StreamError`.  Spilled state stays
        on disk for a later ``resume=True`` session."""
        self._closed = True

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self, op: str) -> None:
        if self._closed:
            raise StreamError(f"{op} on a closed streaming session")

    # -- ingest -----------------------------------------------------------
    def ingest(self, block: np.ndarray | None, seq: int | None = None
               ) -> bool:
        """Apply one delta collectively; returns False for an
        already-applied sequence number (idempotent crash replay).

        The root rank passes the ``(n, d)`` record block (other ranks
        may pass ``None``); ``seq`` defaults to ``last_seq + 1`` and
        must otherwise be exactly the next number — gaps mean lost
        deltas and raise :class:`~repro.errors.StreamError`.  A delta
        holding a NaN or infinite value raises
        :class:`~repro.errors.DataError` on every rank and changes
        nothing, spilled or not.
        """
        self._check_open("ingest")
        t0 = time.perf_counter()
        block = broadcast_block(self.comm, block)
        if block.shape[1] != self.n_dims:
            raise DataError(
                f"delta has {block.shape[1]} dimensions, session has "
                f"{self.n_dims}")
        # one ingest rule for every session kind: a spilled session's
        # record file could not hold such a delta, so none takes it
        if not np.isfinite(block).all():
            raise DataError("delta contains NaN or infinite values")
        if seq is None:
            seq = self._last_seq + 1
        seq = int(seq)
        if seq <= self._last_seq:
            return False          # replayed delta: already applied
        if seq != self._last_seq + 1:
            raise StreamError(
                f"delta gap: got seq {seq}, expected {self._last_seq + 1}")
        g_n = block.shape[0]
        lo, hi = block_range(g_n, self.comm.size, self.comm.rank)
        local = np.ascontiguousarray(block[lo:hi])

        # stage a spilled delta before any state changes: a block the
        # record file refuses must leave the session as it was
        rec_path = None
        if self.spill_dir is not None and local.shape[0]:
            rec_path = self.spill_dir / f"seg-{seq:08d}.rec"
            write_records(rec_path, local)

        codes = np.empty((self.n_dims, local.shape[0]),
                         dtype=code_dtype(self.params.fine_bins))
        delta_hist = block_histogram(local, self.domains,
                                     self.params.fine_bins, codes=codes)
        incremental_allreduce(self.comm, delta_hist, self._hist)
        self._window.append(WindowSegment(seq, codes, g_n, lo, hi,
                                          rec_path))
        self._last_seq = seq

        n_expired = 0
        if self.window_records is not None \
                and self._window.g_live > self.window_records:
            n_expired = self._expire(self._window.g_live
                                     - self.window_records)
        if self.comm.size == 1 \
                and len(self._window.segments) > self.compact_segments:
            self._compact()
        self._maybe_rebin()
        self._write_manifest()

        if self.obs is not None:
            self.obs.stream_ingest(seq, g_n, time.perf_counter() - t0)
            if n_expired:
                self.obs.stream_expired(n_expired)
        return True

    def _expire(self, k_global: int) -> int:
        """Collectively age out the oldest ``k_global`` records,
        keeping the maintained histogram exact (integer subtraction of
        the dropped rows' code histogram)."""
        reaped = [seg for seg in self._window.segments
                  if seg.rec_path is not None]
        dropped, total = self._window.expire(k_global)
        live = {id(seg) for seg in self._window.segments}
        if total == 0:
            return 0
        drop_hist = np.zeros_like(self._hist)
        for codes in dropped:
            drop_hist += code_histogram(codes, self.params.fine_bins)
        incremental_allreduce(self.comm, -drop_hist, self._hist)
        for seg in reaped:
            if id(seg) not in live:       # fully expired spilled segment
                _unlink_quiet(seg.rec_path)
                _unlink_quiet(bitmap_cache_path(seg.rec_path))
        return total

    # -- grid maintenance -------------------------------------------------
    def _current_grid(self):
        """The adaptive grid of the live window — deterministic
        function of (histogram, domains, live count, params), exactly
        what a cold run would build."""
        if self._window.g_live == 0:
            raise DataError("cannot cluster an empty data set")
        grid = build_grid(self._hist, self.domains, self._window.g_live,
                          self.params)
        self._edges_fp = edges_fingerprint(grid)
        return grid

    def _maybe_rebin(self) -> None:
        """Eagerly re-merge bins and rebuild segment artifacts when
        histogram drift since the last rebuild crosses the threshold —
        a latency optimisation, never a correctness requirement."""
        if self._window.g_live == 0:
            return
        if self._grid_hist is not None:
            drift = histogram_drift(self._hist, self._grid_hist)
            if drift <= self.drift_threshold:
                return
        else:
            drift = float("inf")
        grid = self._current_grid()
        for seg in self._window.segments:
            if seg.n_local:
                seg.ensure_index(grid, self._edges_fp,
                                 self.params.chunk_records)
        self._grid_hist = self._hist.copy()
        if self.obs is not None and np.isfinite(drift):
            self.obs.stream_rebin(drift)

    # -- compaction -------------------------------------------------------
    def _compact(self) -> None:
        """Merge the two oldest segments until the count is back under
        ``compact_segments`` (single-rank sessions).  The merged segment
        concatenates its parents' live codes and carries over their
        count caches, summed for keys both hold; its bitmap index is
        rebuilt lazily by :meth:`WindowSegment.ensure_index`, the path
        any stale segment takes.  A spilled merge reads the parents'
        live rows back from their record files to write the merged
        segment's file."""
        while len(self._window.segments) > self.compact_segments:
            a, b = self._window.segments[0], self._window.segments[1]
            self._window.segments[:2] = [self._merge(a, b)]

    def _merge(self, a: WindowSegment, b: WindowSegment) -> WindowSegment:
        codes = np.concatenate([a.codes, b.codes], axis=1)
        g_size = a.g_live + b.g_live
        rec_path = None
        if self.spill_dir is not None:
            rec_path = self.spill_dir / f"seg-{b.seq:08d}c.rec"
            write_records(rec_path, np.concatenate(
                [_live_records(seg) for seg in (a, b)], axis=0))
        merged = WindowSegment(b.seq, codes, g_size, 0, g_size, rec_path)
        fp = self._edges_fp
        if fp is not None:
            b_cache = b.cached_counts(fp)
            merged.seed_counts(fp, {
                key: a_counts + b_cache[key]
                for key, a_counts in a.cached_counts(fp).items()
                if key in b_cache})
        for old in (a, b):
            if old.rec_path is not None:
                _unlink_quiet(old.rec_path)
                _unlink_quiet(bitmap_cache_path(old.rec_path))
        return merged

    # -- spill manifest ---------------------------------------------------
    def _write_manifest(self) -> None:
        if self.spill_dir is None:
            return
        manifest = {
            "last_seq": self._last_seq,
            "n_dims": self.n_dims,
            "fine_bins": self.params.fine_bins,
            "window_records": self.window_records,
            "domains": self.domains.tolist(),
            "segments": [{
                "seq": seg.seq,
                "file": seg.rec_path.name if seg.rec_path is not None
                else None,
                "g_size": seg.g_size,
                "g_dropped": seg.g_dropped,
            } for seg in self._window.segments],
        }
        write_framed(self.spill_dir / _MANIFEST_NAME, _MANIFEST_MAGIC,
                     _MANIFEST_VERSION,
                     json.dumps(manifest, indent=1, sort_keys=True).encode())

    def _resume_from_manifest(self) -> None:
        path = self.spill_dir / _MANIFEST_NAME
        if not path.exists():
            raise StreamError(
                f"resume=True but no manifest at {path}")
        payload = read_framed(path, _MANIFEST_MAGIC, _MANIFEST_VERSION,
                              StreamError, "stream manifest")
        try:
            manifest = json.loads(payload)
        except ValueError as exc:
            raise StreamError(f"unreadable stream manifest {path}: "
                              f"{exc}") from exc
        if manifest["n_dims"] != self.n_dims:
            raise StreamError(
                f"manifest has {manifest['n_dims']} dimensions, session "
                f"was constructed with {self.n_dims}")
        if manifest["fine_bins"] != self.params.fine_bins:
            raise StreamError(
                f"manifest was written with fine_bins="
                f"{manifest['fine_bins']}, session has "
                f"{self.params.fine_bins}")
        for entry in manifest["segments"]:
            if entry["file"] is None:
                continue
            rec_path = self.spill_dir / entry["file"]
            codes = block_codes(RecordFile(rec_path).read_all(),
                                self.domains, self.params.fine_bins)
            seg = WindowSegment(entry["seq"], codes, entry["g_size"],
                                0, entry["g_size"], rec_path)
            seg.drop_head_global(entry["g_dropped"])
            if seg.g_live:
                self._hist += code_histogram(seg.codes,
                                             self.params.fine_bins)
                self._window.append(seg)
        self._last_seq = int(manifest["last_seq"])

    # -- snapshot ---------------------------------------------------------
    def snapshot(self) -> ClusteringResult:
        """Cluster the live window — bit-identical to a cold batch run
        over exactly the live records (same params, same domains, same
        communicator size), including per-rank ``pairs_examined``.

        The lattice walk is the batch driver's
        :func:`~repro.core.pmafia.walk_lattice`, with population served
        from the segments (:meth:`_populate`).  With ``params.trace`` /
        ``params.metrics`` set, the result carries a fresh per-snapshot
        observability export in ``.obs``, directly comparable to the
        cold run's.
        """
        self._check_open("snapshot")
        t0 = time.perf_counter()
        self._snap_hits = 0
        self._snap_misses = 0
        obs = RankObs.create(self.params, self.comm)

        def walk() -> ClusteringResult:
            grid = self._current_grid()
            trace, clusters = walk_lattice(
                self.comm, grid, self.params,
                lambda cdus, order: self._populate(cdus, grid, order),
                obs, [], [])
            return ClusteringResult(grid=grid, clusters=clusters,
                                    trace=trace, params=self.params,
                                    n_records=self._window.g_live)

        if obs is None:
            result = walk()
        else:
            with obs.activate(self.comm):
                with obs.span("snapshot", cat="run", rank=self.comm.rank,
                              size=self.comm.size):
                    result = walk()
            result = replace(result, obs=obs.export())
        if self.obs is not None:
            self.obs.stream_snapshot(
                result.n_records, time.perf_counter() - t0,
                levels=len(result.trace), cache_hits=self._snap_hits,
                cache_misses=self._snap_misses)
        return result

    def _populate(self, cdus: UnitTable, grid,
                  order: np.ndarray | None) -> np.ndarray:
        """Global per-CDU counts of the live window: exact per-segment
        popcounts summed locally, then one sum-allreduce — identical to
        the batch pass over the concatenated live records.  ``order``
        is the CDUs' lexicographic permutation, shared by every
        segment's count."""
        local = np.zeros(cdus.n_units, dtype=np.int64)
        if cdus.n_units:
            key = hashlib.sha256(cdus.tobytes()).digest()
            for seg in self._window.segments:
                if not seg.n_local:
                    continue
                if seg.has_counts(key, self._edges_fp):
                    self._snap_hits += 1
                else:
                    self._snap_misses += 1
                local += seg.counts_for(
                    cdus, key, grid, self._edges_fp,
                    self.params.chunk_records, order=order,
                    on_quarantine=self._on_quarantine)
        if self.comm.size == 1:
            return local
        return self.comm.allreduce(local, op="sum")

    def _on_quarantine(self, path: str) -> None:
        if self.obs is not None:
            self.obs.stream_quarantine(path)
