"""The incremental clustering engine: :class:`StreamingSession`.

A session is a long-running, incrementally maintained clustering over a
sliding window of records.  ``ingest`` applies one ordered delta:
broadcast to every rank, sliced into per-rank shares, folded into the
maintained global fine histogram (exact integer adds), appended as a
:class:`~repro.stream.window.WindowSegment`, and aged-out head records
expired (exact integer subtracts).  ``snapshot`` then runs the pMAFIA
lattice over the live window using the *same* core passes as the cold
batch driver — join, repeat elimination, dense identification, cluster
assembly — with population served from per-segment bitmap indexes and
caches.

**Correctness anchor** — ``snapshot()`` is bit-identical to a cold
batch run over exactly the live records, including ``pairs_examined``:

- the fine histogram is maintained by per-block integer adds and
  subtracts (:func:`~repro.core.histogram.block_histogram`), which are
  exact over any block partition, so it always equals a cold pass over
  the live records;
- the adaptive grid is rebuilt from that histogram at every snapshot
  by the deterministic :func:`~repro.core.adaptive_grid.build_grid` —
  cheap, ``O(d x fine_bins)``;
- per-CDU counts are exact popcounts summed over segments
  (:func:`~repro.core.population.count_units`), and popcounts are
  additive over any row partition;
- the lattice walk calls the batch driver's own join / dedup /
  identify / assembly functions, replaying each level's *measured*
  pair charges when a join or dedup result is served from cache.

The drift threshold therefore tunes **latency only**: expensive
per-segment artifacts (bitmap indexes, count caches) depend only on
the grid's bin *edges* and are rebuilt eagerly when histogram drift
(:func:`~repro.core.adaptive_grid.histogram_drift`) crosses the
threshold, keeping them warm for the next snapshot.  Exactness never
depends on when (or whether) that eager rebuild runs.

A ``spill_dir`` (single-rank sessions only) makes the session
resumable: each delta's records are staged to disk before the
manifest commit, segment bitmap indexes persist as ``.bmx`` siblings
keyed on the exact records they cover, and ``resume=True`` rebuilds
the exact live window from the manifest — re-ingesting an already
applied sequence number is a no-op, so producers replay their last
delta after a crash without double-counting.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from ..core.adaptive_grid import build_grid, histogram_drift
from ..core.histogram import block_histogram, check_domains
from ..core.identify import dense_units
from ..core.pmafia import (_eliminate_repeat_cdus,
                           _find_candidate_dense_units, _identify_dense,
                           _ospan, assemble_clusters, level_one_cdus,
                           registrations_for_report)
from ..core.result import ClusteringResult, LevelTrace
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


class _PairsTally:
    """Comm proxy that measures the pair charges of one join/dedup call.

    Charges pass through to the wrapped communicator unchanged (the
    virtual clock and metrics see the live call exactly as the batch
    driver's); the measured total is stored with the cached result so a
    later cache hit replays the identical per-rank charge.
    """

    def __init__(self, comm: Comm) -> None:
        self._comm = comm
        self.pairs = 0.0

    def charge_pairs(self, pairs: float) -> None:
        self.pairs += pairs
        self._comm.charge_pairs(pairs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._comm, name)


def _unlink_quiet(path: Path | None) -> None:
    if path is None:
        return
    try:
        os.unlink(path)
    except OSError:
        pass


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
        self._join_cache: dict[tuple, tuple[bytes, bytes, float]] = {}
        self._dedup_cache: dict[bytes, tuple[bytes, float]] = {}
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
        deltas and raise :class:`~repro.errors.StreamError`.
        """
        self._check_open("ingest")
        t0 = time.perf_counter()
        block = broadcast_block(self.comm, block)
        if block.shape[1] != self.n_dims:
            raise DataError(
                f"delta has {block.shape[1]} dimensions, session has "
                f"{self.n_dims}")
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

        delta_hist = block_histogram(local, self.domains,
                                     self.params.fine_bins)
        incremental_allreduce(self.comm, delta_hist, self._hist)

        rec_path = None
        if self.spill_dir is not None and local.shape[0]:
            rec_path = self.spill_dir / f"seg-{seq:08d}.rec"
            write_records(rec_path, local)
        self._window.append(WindowSegment(seq, local, g_n, lo, hi,
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
        the dropped rows' histogram)."""
        reaped = [seg for seg in self._window.segments
                  if seg.rec_path is not None]
        dropped, total = self._window.expire(k_global)
        live = {id(seg) for seg in self._window.segments}
        if total == 0:
            return 0
        drop_hist = np.zeros_like(self._hist)
        for rows in dropped:
            drop_hist += block_histogram(rows, self.domains,
                                         self.params.fine_bins)
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
        carries over the parents' count caches, summed for keys both
        hold; its bitmap index is rebuilt lazily by
        :meth:`WindowSegment.ensure_index`, the path any stale segment
        takes."""
        while len(self._window.segments) > self.compact_segments:
            a, b = self._window.segments[0], self._window.segments[1]
            self._window.segments[:2] = [self._merge(a, b)]

    def _merge(self, a: WindowSegment, b: WindowSegment) -> WindowSegment:
        records = np.ascontiguousarray(
            np.concatenate([a.records, b.records], axis=0))
        g_size = a.g_live + b.g_live
        rec_path = None
        if self.spill_dir is not None:
            rec_path = self.spill_dir / f"seg-{b.seq:08d}c.rec"
            write_records(rec_path, records)
        merged = WindowSegment(b.seq, records, g_size, 0, g_size, rec_path)
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
            records = RecordFile(rec_path).read_all()
            records = np.ascontiguousarray(records, dtype=np.float64)
            seg = WindowSegment(entry["seq"], records, entry["g_size"],
                                0, entry["g_size"], rec_path)
            seg.drop_head_global(entry["g_dropped"])
            if seg.g_live:
                self._hist += block_histogram(seg.records, self.domains,
                                              self.params.fine_bins)
                self._window.append(seg)
        self._last_seq = int(manifest["last_seq"])

    # -- snapshot ---------------------------------------------------------
    def snapshot(self) -> ClusteringResult:
        """Cluster the live window — bit-identical to a cold batch run
        over exactly the live records (same params, same domains, same
        communicator size), including per-rank ``pairs_examined``.

        With ``params.trace`` / ``params.metrics`` set, the result
        carries a fresh per-snapshot observability export in ``.obs``,
        directly comparable to the cold run's.
        """
        self._check_open("snapshot")
        t0 = time.perf_counter()
        obs = RankObs.create(self.params, self.comm)
        if obs is None:
            result = self._snapshot_inner(None)
        else:
            with obs.activate(self.comm):
                with obs.span("snapshot", cat="run", rank=self.comm.rank,
                              size=self.comm.size):
                    result = self._snapshot_inner(obs)
            result = replace(result, obs=obs.export())
        if self.obs is not None:
            hits = self._snap_hits
            misses = self._snap_misses
            self.obs.stream_snapshot(
                result.n_records, time.perf_counter() - t0,
                levels=len(result.trace), cache_hits=hits,
                cache_misses=misses)
        return result

    def _populate(self, cdus: UnitTable, grid) -> np.ndarray:
        """Global per-CDU counts of the live window: exact per-segment
        popcounts summed locally, then one sum-allreduce — identical to
        the batch pass over the concatenated live records."""
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
                    self.params.chunk_records,
                    on_quarantine=self._on_quarantine)
        if self.comm.size == 1:
            return local
        return self.comm.allreduce(local, op="sum")

    def _on_quarantine(self, path: str) -> None:
        if self.obs is not None:
            self.obs.stream_quarantine(path)

    def _join(self, dense: UnitTable, level: int,
              obs: RankObs | None) -> tuple[UnitTable, np.ndarray]:
        """The level join, served from the session cache when this
        exact dense table was joined before.  A hit replays
        the measured per-rank pair charge, so the virtual clock and the
        ``join.pairs_examined`` metric advance exactly as the live call
        would."""
        key = (level, dense.tobytes())
        hit = self._join_cache.get(key)
        if hit is not None:
            full_bytes, combined_bytes, pairs = hit
            self._snap_hits += 1
            self.comm.charge_pairs(pairs)
            if obs is not None:
                obs.add_pairs("join", pairs)
            return (UnitTable.frombytes(full_bytes),
                    np.frombuffer(combined_bytes, dtype=bool).copy())
        self._snap_misses += 1
        tally = _PairsTally(self.comm)
        raw, combined = _find_candidate_dense_units(
            tally, dense, self.params.tau)
        self._join_cache[key] = (raw.tobytes(),
                                 np.ascontiguousarray(combined).tobytes(),
                                 tally.pairs)
        return raw, combined

    def _dedup(self, raw: UnitTable, obs: RankObs | None) -> UnitTable:
        """Repeat elimination, cached like :meth:`_join`."""
        key = raw.tobytes()
        hit = self._dedup_cache.get(key)
        if hit is not None:
            cdus_bytes, pairs = hit
            self._snap_hits += 1
            self.comm.charge_pairs(pairs)
            if obs is not None:
                obs.add_pairs("dedup", pairs)
            return UnitTable.frombytes(cdus_bytes)
        self._snap_misses += 1
        tally = _PairsTally(self.comm)
        cdus, _ = _eliminate_repeat_cdus(tally, raw, self.params.tau)
        self._dedup_cache[key] = (cdus.tobytes(), tally.pairs)
        return cdus

    def _snapshot_inner(self, obs: RankObs | None) -> ClusteringResult:
        self._snap_hits = 0
        self._snap_misses = 0
        comm, params = self.comm, self.params
        grid = self._current_grid()
        n_live = self._window.g_live

        def level_pass(cdus: UnitTable, raw_count: int, level: int
                       ) -> LevelTrace:
            counts = self._populate(cdus, grid)
            mask, ndu = _identify_dense(comm, cdus, counts, grid,
                                        params.tau, params.min_bin_points)
            if obs is not None:
                obs.level_stats(level, raw_count, cdus.n_units, ndu)
            dense, dense_counts = dense_units(cdus, counts, mask)
            return LevelTrace(level=level, n_cdus_raw=raw_count,
                              n_cdus=cdus.n_units, n_dense=ndu,
                              dense=dense, dense_counts=dense_counts)

        trace: list[LevelTrace] = []
        registered: list = []
        cdus = level_one_cdus(grid)
        trace.append(level_pass(cdus, cdus.n_units, 1))
        current = trace[-1]
        while current.n_dense > 0:
            dense, dense_counts = current.dense, current.dense_counts
            if current.level >= params.max_dimensionality:
                registered.append((dense, dense_counts))
                break
            raw, combined = self._join(dense, current.level, obs)
            if (~combined).any():
                registered.append((dense.select(~combined),
                                   dense_counts[~combined]))
            if raw.n_units == 0:
                if combined.any():
                    registered.append((dense.select(combined),
                                       dense_counts[combined]))
                break
            cdus = self._dedup(raw, obs)
            nxt = level_pass(cdus, raw.n_units, current.level + 1)
            trace.append(nxt)
            if nxt.n_dense == 0 and combined.any():
                registered.append((dense.select(combined),
                                   dense_counts[combined]))
            current = nxt

        with _ospan(obs, "assembly", cat="phase"):
            clusters = None
            if comm.rank == 0:
                reg = registrations_for_report(tuple(trace), registered,
                                               params.report)
                clusters = assemble_clusters(grid, reg)
            clusters = comm.bcast(clusters, root=0)
        return ClusteringResult(grid=grid, clusters=clusters,
                                trace=tuple(trace), params=params,
                                n_records=n_live)
