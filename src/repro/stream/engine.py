"""The incremental clustering engine: :class:`StreamingSession`.

A session is a long-running, incrementally maintained clustering over a
sliding window of records.  ``ingest`` applies one ordered delta:
broadcast to every rank, sliced into per-rank shares, binned once into
fine codes by :func:`~repro.core.histogram.block_histogram` (which
keeps the codes, and subtracts the counts of the aged-out head
records' codes, expired first) and appended to the rank's code ring as
one :class:`~repro.stream.window.WindowSegment`; one sum-allreduce of
that histogram change maintains the global fine histogram.  The float
records are not kept.  ``snapshot`` stages one transient bitmap index
of the rank's whole live ring and runs the batch run's own level loop,
:func:`~repro.core.pmafia.walk_lattice`, over it — join, repeat
elimination, population, dense identification, registration, cluster
assembly — exactly as a cold run over its staged index does.

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
- per-CDU counts are exact popcounts over the rank's live records,
  whatever their order in the ring, then summed across ranks by the
  batch populate's allreduce;
- the lattice walk *is* the batch run's walk: every join, dedup and
  population runs live, so its pair charges, simulated I/O and cell
  costs and collectives are the cold run's.

A ``spill_dir`` (single-rank sessions only) makes the session
resumable: each delta's records are staged to disk before the
manifest commit, a compaction (which bounds the number of record
files) reads its parents' live rows back from their record files to
write the merged one, and ``resume=True`` rebuilds the exact live
window from the manifest, computing the codes from the records it
reads.  Re-ingesting an already applied sequence number is a no-op,
so producers replay their last delta after a crash without
double-counting.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..core.adaptive_grid import build_grid
from ..core.histogram import (block_codes, block_histogram, check_domains,
                              code_dtype, code_histogram)
from ..core.pmafia import walk_lattice
from ..core.population import IndexedPopulator
from ..core.result import ClusteringResult
from ..errors import DataError, StreamError
from ..io.artifact import read_framed, write_framed
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

#: default segment-count ceiling before a spilled session merges its
#: two oldest segments' record files
DEFAULT_COMPACT_SEGMENTS = 64


def _unlink_quiet(path: Path | None) -> None:
    if path is None:
        return
    try:
        os.unlink(path)
    except OSError:
        pass


def _live_records(seg: WindowSegment, n_dims: int) -> np.ndarray:
    """A spilled segment's live rows, read back from its record file
    (an empty segment has no file)."""
    if seg.rec_path is None:
        return np.empty((0, n_dims))
    return RecordFile(seg.rec_path).read_block(seg.g_lo,
                                               seg.g_lo + seg.length)


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
        Accepted and ignored: a snapshot keeps no per-segment artifact
        for an eager rebuild to refresh.  It must be ``>= 0``.  The
        frozen e2e benchmark still passes it; ROADMAP.md item 1 drops
        it there, and then it goes from here.
    spill_dir:
        Directory for delta staging + resumable state (single-rank
        sessions only).
    compact_segments:
        In a spilled session, merge the two oldest segments' record
        files whenever the live segment count exceeds this (bounds the
        number of files); an unspilled session never merges.
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
        self._window = SlidingWindow(self.n_dims,
                                     code_dtype(self.params.fine_bins),
                                     window_records)
        self._last_seq = -1
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

        n_expired = 0
        if self.window_records is not None:
            n_expired = max(0, self._window.g_live + g_n
                            - self.window_records)
        # expire the old records first, so the ring never holds more
        # than the window; the histogram change is the delta's counts
        # minus the dropped rows' (ring views, read before the append)
        n_old = min(n_expired, self._window.g_live)
        dropped = self._expire(n_old)
        codes = np.empty((self.n_dims, local.shape[0]),
                         dtype=code_dtype(self.params.fine_bins))
        delta_hist = block_histogram(local, self.domains,
                                     self.params.fine_bins, codes=codes,
                                     expired=dropped)
        self._window.append(seq, codes, g_n, lo, rec_path)
        if n_expired > n_old:     # a delta larger than the window
            for old in self._expire(n_expired - n_old):
                delta_hist -= code_histogram(old, self.params.fine_bins)
        incremental_allreduce(self.comm, delta_hist, self._hist)
        self._last_seq = seq
        if self.spill_dir is not None:
            self._compact()
        self._write_manifest()

        if self.obs is not None:
            self.obs.stream_ingest(seq, g_n, time.perf_counter() - t0)
            if n_expired:
                self.obs.stream_expired(n_expired)
        return True

    def _expire(self, k_global: int) -> list[np.ndarray]:
        """Age out the oldest ``k_global`` global records; returns ring
        views of this rank's dropped codes (valid until the next
        append) and unlinks the record files of spilled segments that
        expired whole."""
        dropped, removed = self._window.expire(k_global)
        for seg in removed:
            _unlink_quiet(seg.rec_path)
        return dropped

    # -- compaction -------------------------------------------------------
    def _compact(self) -> None:
        """Merge the two oldest spilled segments until the count is back
        under ``compact_segments``: the parents' live rows are read back
        from their record files and written to the merged
        ``seg-<seq>c.rec``.  Their codes are already adjacent in the
        ring, so only the metadata changes."""
        segments = self._window.segments
        while len(segments) > self.compact_segments:
            a, b = segments[0], segments[1]
            rec_path = self.spill_dir / f"seg-{b.seq:08d}c.rec"
            write_records(rec_path, np.concatenate(
                [_live_records(seg, self.n_dims) for seg in (a, b)]))
            segments.popleft()
            segments.popleft()
            segments.appendleft(WindowSegment(
                b.seq, a.offset, a.length + b.length, a.g_live + b.g_live,
                0, rec_path))
            _unlink_quiet(a.rec_path)
            _unlink_quiet(b.rec_path)

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
                continue              # an empty delta holds no records
            rec_path = self.spill_dir / entry["file"]
            codes = block_codes(RecordFile(rec_path).read_all(),
                                self.domains, self.params.fine_bins)
            self._window.append(entry["seq"], codes, entry["g_size"], 0,
                                rec_path)
        # only the oldest segment is ever partly expired
        self._window.expire(sum(e["g_dropped"]
                                for e in manifest["segments"]))
        self._hist = code_histogram(self._window.live_codes(),
                                    self.params.fine_bins)
        self._last_seq = int(manifest["last_seq"])

    # -- snapshot ---------------------------------------------------------
    def snapshot(self) -> ClusteringResult:
        """Cluster the live window — bit-identical to a cold batch run
        over exactly the live records (same params, same domains, same
        communicator size), including per-rank ``pairs_examined``.

        The grid is built from the maintained histogram, one bitmap
        index of the rank's live codes is staged
        (:meth:`~repro.stream.window.SlidingWindow.stage_index`), and
        the batch run's :func:`~repro.core.pmafia.walk_lattice` runs
        over it; the index is dropped when the snapshot returns.  With
        ``params.trace`` / ``params.metrics`` set, the result carries a
        fresh per-snapshot observability export in ``.obs``, directly
        comparable to the cold run's.
        """
        self._check_open("snapshot")
        t0 = time.perf_counter()
        if self._window.g_live == 0:
            raise DataError("cannot cluster an empty data set")
        obs = RankObs.create(self.params, self.comm)

        def walk() -> ClusteringResult:
            grid = build_grid(self._hist, self.domains,
                              self._window.g_live, self.params)
            with nullcontext() if obs is None else \
                    obs.span("stage_bitmap_index", cat="io"):
                indexed = IndexedPopulator(self._window.stage_index(
                    grid, self.params.chunk_records))
            trace, clusters = walk_lattice(self.comm, grid, self.params,
                                           indexed, obs, [], [])
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
            self.obs.stream_snapshot(result.n_records,
                                     time.perf_counter() - t0)
        return result
