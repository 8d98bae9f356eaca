"""Persistent per-(dim, bin) membership bitmap index.

Every population pass after grid construction needs only each record's
bin membership per dimension.  A :class:`BitmapIndex` stages that once:
immediately after the adaptive grid is fixed, one per-chunk pass over
the float records locates every value (one ``searchsorted`` on the
dimension's inner edges — the :meth:`~repro.types.DimensionGrid.locate`
rule) and packs **one membership bitmap per (dim, bin) pair of the
grid** — bit ``r`` of bitmap ``(d, b)`` is set iff record ``r`` falls in
bin ``b`` of dimension ``d``.  Every later population pass is then pure
AND + popcount over cached bitmaps with zero data reads (see
:class:`repro.core.population.IndexedPopulator` for the memoized prefix
AND walk that consumes this index).

Residency is governed by one byte budget (``MafiaParams.bitmap_budget``):
an index of ``sum(nbins) * ceil(n/8)`` bytes lives in RAM when it fits
and otherwise *spills* to an mmap-tiled on-disk format — each pair's
bitmap is one contiguous tile, mapped read-only and CRC-verified lazily
on first touch.  The grid fingerprint (:func:`grid_fingerprint`) is the
cache-invalidation rule: a file is only served for the grid it was
built from.

On-disk format (version 1)::

    header  <4sHHqqq32s>  magic b"PMBI" | u16 version | u16 reserved |
                          i64 n_records | i64 n_pairs | i64 n_dims |
                          32-byte grid fingerprint
    nbins   n_dims x i64  bins per dimension (their sum is n_pairs)
    data    pair-major tiles: pair 0's ceil(n/8) packed bytes, then
            pair 1's, ... (pair id = offsets[dim] + bin)
    footer  one CRC32 per pair tile

Version 2 (the streaming engine's appendable variant) adds one i64
``cap_records`` header field and pads every tile to ``ceil(cap/8)``
bytes, so new records can be spliced onto every tile **in place**
(:func:`append_bitmap_index`) without moving the pair-major layout.
The append protocol zeroes the header's grid fingerprint (and flushes)
*before* touching any tile and restores it only after the new tiles,
CRCs and record count are all durable — a run that crashes mid-append
leaves a file no loader will ever serve
(:func:`load_bitmap_cache` / :meth:`BitmapIndex.open` reject the
zeroed fingerprint as stale), so a half-written tile can never reach a
population pass.  Batch staging keeps writing version 1; version-1
files are upgraded to version 2 (with doubled capacity, via an atomic
temp + rename) the first time they are appended to.

Cost-model note: building the index charges *nothing* to the virtual
clock (like shared-to-local staging, which §5.2 excludes from
measurements), and the indexed population engine replays the exact
per-chunk float-width I/O + cell charges of the paper's per-pass record
scan — the index changes wall clock only, never simulated SP2 times
(see :mod:`repro.parallel.simtime`).
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import weakref
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import ChecksumError, DataError, RecordFileError
from ..parallel.comm import Comm
from ..types import Grid
from .chunks import DataSource, _raw_blocks
from .records import RecordFile
from .resilient import RetryPolicy

_MAGIC = b"PMBI"
_VERSION = 1
_VERSION_CAP = 2
_HEADER = struct.Struct("<4sHHqqq32s")
_HEADER_CAP = struct.Struct("<4sHHqqqq32s")
_NBINS_ITEM = struct.Struct("<q")
_CRC_ITEM = struct.Struct("<I")

#: the "no grid" fingerprint an in-flight append stamps into the header
#: before touching tiles; SHA-256 never produces it, so any loader that
#: compares fingerprints rejects the file until the append completes
_NULL_HASH = b"\0" * 32

_CRC_BLOCK = 1 << 20

#: default residency budget for the index plus the prefix-AND memo
DEFAULT_BITMAP_BUDGET = 1 << 28

#: bytes a level pass is charged per record cell on the virtual clock —
#: float64 width, so the simulated machine keeps paying the paper's
#: per-pass record-read cost although the index reads no records at all
RECORD_ITEMSIZE = 8


def grid_fingerprint(grid: Grid) -> bytes:
    """32-byte SHA-256 fingerprint of a grid's exact geometry.

    Covers dimension count and, per dimension, the bin edges, density
    thresholds and the uniform-resplit flag.  Two grids share a
    fingerprint iff staged artifacts built under one are valid under
    the other.
    """
    return _fingerprint(grid, thresholds=True)


def edges_fingerprint(grid: Grid) -> bytes:
    """32-byte SHA-256 fingerprint of a grid's *bin-edge geometry only*
    (dimension count, per-dimension edges) — deliberately excluding the
    density thresholds.

    Bin membership — hence every membership bitmap — depends only on
    the edges; thresholds merely classify counts as dense.  The
    streaming engine keys its per-segment bitmap tiles and count caches
    on this fingerprint so a grid whose thresholds moved (every ingest
    changes ``n_records``, scaling thresholds) but whose edges did not
    keeps all staged tiles valid.  Batch staging keeps using the
    stricter :func:`grid_fingerprint`.
    """
    return _fingerprint(grid, thresholds=False)


def _fingerprint(grid: Grid, *, thresholds: bool) -> bytes:
    h = hashlib.sha256()
    h.update(struct.pack("<q", grid.ndim))
    for dg in grid:
        h.update(struct.pack("<qq?", dg.dim, dg.nbins, dg.uniform))
        h.update(np.asarray(dg.edges, dtype="<f8").tobytes())
        if thresholds:
            h.update(np.asarray(dg.thresholds, dtype="<f8").tobytes())
    return h.digest()


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _source_chunks(source: DataSource, chunk_records: int, start: int,
                   stop: int, retry: RetryPolicy | None,
                   fault_state) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(offset_from_start, chunk)`` pairs covering
    ``[start, stop)`` — the resilient-read loop of
    :func:`repro.io.chunks.charged_chunks`, minus the charging (staging
    is free on the virtual clock, like
    :func:`repro.io.staging.stage_local`)."""
    read_block = getattr(source, "read_block", None)
    if read_block is None:
        chunks = source.iter_chunks(chunk_records, start, stop)
    else:
        chunks = _raw_blocks(read_block, fault_state, chunk_records, start,
                             stop, retry)
    offset = 0
    for chunk in chunks:
        yield offset, chunk
        offset += chunk.shape[0]


def _bin_column(inner_edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Contiguous ``uint8`` bin indices of one dimension's values under
    the :meth:`~repro.types.DimensionGrid.locate` rule: below the domain
    maps to bin 0, at or above the last inner edge to the last bin, and
    NaN (which sorts past every edge) to the last bin too."""
    return np.searchsorted(inner_edges, values, side="right") \
        .astype(np.uint8)


def _grid_nbins(grid: Grid) -> tuple[int, ...]:
    return tuple(int(dg.nbins) for dg in grid)


def _pair_offsets(nbins: tuple[int, ...]) -> np.ndarray:
    offsets = np.zeros(len(nbins) + 1, dtype=np.int64)
    np.cumsum(np.asarray(nbins, dtype=np.int64), out=offsets[1:])
    return offsets


def index_nbytes(grid: Grid, n_records: int) -> int:
    """Bytes a :class:`BitmapIndex` over this grid and record count
    occupies (one ``ceil(n/8)``-byte tile per (dim, bin) pair) — what
    the ``auto`` policy weighs against ``bitmap_budget``."""
    return sum(_grid_nbins(grid)) * (-(-n_records // 8))


def bitmap_cache_path(record_path: str | os.PathLike) -> Path:
    """The on-disk bitmap-index cache sitting alongside a record file."""
    return Path(record_path).with_suffix(".bmx")


class BitmapIndex:
    """One rank's per-(dim, bin) membership bitmaps.

    Bitmaps live either in a resident ``(n_pairs, row_bytes)`` uint8
    matrix or as mmap tiles of the on-disk format.  Rows are read-only:
    consumers AND them into fresh accumulators, so cached prefix ANDs
    may alias rows safely.
    """

    def __init__(self, *, data: np.ndarray | None = None,
                 path: Path | None = None,
                 nbins: tuple[int, ...] = (),
                 n_records: int = 0,
                 grid_hash: bytes = b"") -> None:
        if (data is None) == (path is None):
            raise DataError("BitmapIndex needs exactly one of data/path")
        self.path = path
        self._mmap: np.ndarray | None = None
        self._verified: set[int] = set()
        self._crcs: tuple[int, ...] = ()
        if data is not None:
            data = np.ascontiguousarray(data, dtype=np.uint8)
            data.setflags(write=False)
            self._data: np.ndarray | None = data
            self.nbins = tuple(int(b) for b in nbins)
            self.n_records = int(n_records)
            self.grid_hash = bytes(grid_hash)
            if data.shape != (sum(self.nbins), -(-self.n_records // 8)):
                raise DataError(
                    f"bitmap data shape {data.shape} does not match "
                    f"{sum(self.nbins)} pairs x {-(-self.n_records // 8)} "
                    f"bytes")
            self._cap_row_bytes = -(-self.n_records // 8)
        else:
            self._data = None
            (self.n_records, self.nbins, self.grid_hash,
             self._data_offset, self._crcs,
             self._cap_row_bytes) = _read_index_header(path)
        self.n_dims = len(self.nbins)
        self.n_pairs = sum(self.nbins)
        self.row_bytes = -(-self.n_records // 8)
        self.offsets = _pair_offsets(self.nbins)

    # -- construction -----------------------------------------------------
    @classmethod
    def open(cls, path: str | os.PathLike,
             expected_grid_hash: bytes | None = None) -> "BitmapIndex":
        """Open an on-disk index; with ``expected_grid_hash`` given, a
        fingerprint mismatch (stale cache) raises
        :class:`~repro.errors.RecordFileError`."""
        index = cls(path=Path(path))
        if (expected_grid_hash is not None
                and index.grid_hash != bytes(expected_grid_hash)):
            raise RecordFileError(
                f"{path}: bitmap index was built for a different grid "
                f"(stale cache; rebuild it)")
        return index

    # -- properties -------------------------------------------------------
    @property
    def resident(self) -> bool:
        """True when every bitmap lives in RAM (no mmap tiles)."""
        return self._data is not None

    @property
    def nbytes(self) -> int:
        """Total bitmap payload bytes (resident or mapped alike)."""
        return self.n_pairs * self.row_bytes

    # -- reads ------------------------------------------------------------
    def _map(self) -> np.ndarray:
        if self._mmap is None:
            # version-2 files pad tiles to the capacity width; the map
            # keeps the padded stride and reads slice off the live bytes
            self._mmap = np.memmap(self.path, mode="r", dtype=np.uint8,
                                   offset=self._data_offset,
                                   shape=(self.n_pairs,
                                          self._cap_row_bytes))
        return self._mmap

    def _verify_tile(self, pair: int) -> None:
        if not self._crcs or pair in self._verified:
            return
        tile = self._map()[pair, :self.row_bytes]
        crc = 0
        for lo in range(0, self.row_bytes, _CRC_BLOCK):
            crc = zlib.crc32(np.ascontiguousarray(tile[lo:lo + _CRC_BLOCK]),
                             crc)
        if crc != self._crcs[pair]:
            raise ChecksumError(
                f"{self.path}: CRC mismatch in bitmap tile {pair}: "
                f"stored {self._crcs[pair]:#010x}, computed {crc:#010x}")
        self._verified.add(pair)

    def pair_id(self, dim: int, bin_: int) -> int:
        """Flat pair id of ``(dim, bin)`` (``offsets[dim] + bin``)."""
        if not 0 <= dim < self.n_dims or not 0 <= bin_ < self.nbins[dim]:
            raise DataError(
                f"(dim, bin) = ({dim}, {bin_}) outside the indexed grid")
        return int(self.offsets[dim]) + int(bin_)

    def pair_ids(self, dims: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """Flat pair ids for matching ``(n, k)`` dim/bin matrices."""
        dims = np.asarray(dims, dtype=np.int64)
        bins = np.asarray(bins, dtype=np.int64)
        if dims.size and (int(dims.max()) >= self.n_dims
                          or int(dims.min()) < 0):
            raise DataError("unit table references dimensions beyond the "
                            "indexed grid")
        per_dim = np.asarray(self.nbins, dtype=np.int64)
        if dims.size and (bins < 0).any() or \
                dims.size and (bins >= per_dim[dims]).any():
            raise DataError("unit table references bins beyond the "
                            "indexed grid")
        return self.offsets[dims] + bins

    def bitmap(self, pair: int) -> np.ndarray:
        """The ``(row_bytes,)`` packed membership bitmap of one pair
        (a read-only view; disk tiles are CRC-verified on first touch)."""
        if not 0 <= pair < self.n_pairs:
            raise DataError(
                f"pair {pair} out of range for {self.n_pairs} bitmaps")
        if self._data is not None:
            return self._data[pair]
        self._verify_tile(pair)
        return self._map()[pair, :self.row_bytes]


def _read_index_header(path: Path):
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER_CAP.size)
            if len(raw) < _HEADER.size:
                raise RecordFileError(f"{path}: truncated bitmap-index header")
            magic, version = struct.unpack_from("<4sH", raw)
            if magic != _MAGIC:
                raise RecordFileError(f"{path}: bad magic {magic!r}")
            if version == _VERSION:
                (_, _, _reserved, n_records, n_pairs, n_dims,
                 ghash) = _HEADER.unpack(raw[:_HEADER.size])
                cap_records = n_records
                header_size = _HEADER.size
            elif version == _VERSION_CAP:
                if len(raw) < _HEADER_CAP.size:
                    raise RecordFileError(
                        f"{path}: truncated bitmap-index header")
                (_, _, _reserved, n_records, n_pairs, n_dims, cap_records,
                 ghash) = _HEADER_CAP.unpack(raw)
                header_size = _HEADER_CAP.size
            else:
                raise RecordFileError(
                    f"{path}: unsupported bitmap-index version {version}")
            if n_records < 0 or n_dims <= 0 or n_pairs <= 0 \
                    or cap_records < n_records:
                raise RecordFileError(
                    f"{path}: bad shape ({n_records}, {n_pairs}, {n_dims}, "
                    f"capacity {cap_records})")
            fh.seek(header_size)
            table = fh.read(n_dims * _NBINS_ITEM.size)
            if len(table) != n_dims * _NBINS_ITEM.size:
                raise RecordFileError(f"{path}: truncated nbins table")
            nbins = tuple(int(v) for v in np.frombuffer(table, dtype="<i8"))
            if any(b <= 0 for b in nbins) or sum(nbins) != n_pairs:
                raise RecordFileError(
                    f"{path}: nbins table {nbins} does not sum to "
                    f"{n_pairs} pairs")
            cap_row_bytes = -(-cap_records // 8)
            data_nbytes = n_pairs * cap_row_bytes
            expected = (header_size + n_dims * _NBINS_ITEM.size
                        + data_nbytes + n_pairs * _CRC_ITEM.size)
            if size != expected:
                raise RecordFileError(
                    f"{path}: file is {size} bytes, header implies {expected}")
            fh.seek(expected - n_pairs * _CRC_ITEM.size)
            footer = fh.read(n_pairs * _CRC_ITEM.size)
            if len(footer) != n_pairs * _CRC_ITEM.size:
                raise RecordFileError(f"{path}: truncated CRC table")
            crcs = tuple(int(v) for v in np.frombuffer(footer, dtype="<u4"))
    except RecordFileError:
        raise
    except OSError as exc:
        raise RecordFileError(
            f"cannot open bitmap index {path}: {exc}") from exc
    data_offset = header_size + n_dims * _NBINS_ITEM.size
    return n_records, nbins, ghash, data_offset, crcs, cap_row_bytes


def _aligned_chunk(chunk_records: int) -> int:
    """Largest multiple of 8 not above ``chunk_records`` (min 8), so
    every non-final build chunk starts on a byte boundary of the
    bitmaps (``np.packbits`` pads only the final byte of the range)."""
    if chunk_records <= 0:
        raise DataError(
            f"chunk_records must be positive, got {chunk_records}")
    return max(8, chunk_records - (chunk_records % 8))


def build_bitmap_index(source: DataSource, grid: Grid,
                       chunk_records: int, start: int = 0,
                       stop: int | None = None, *,
                       path: str | os.PathLike | None = None,
                       retry: RetryPolicy | None = None,
                       fault_state=None,
                       grid_hash: bytes | None = None) -> BitmapIndex:
    """One staging pass: pack every (dim, bin) membership bitmap for the
    rank's ``[start, stop)`` block, resident (``path`` None) or into the
    on-disk tile format (atomic temp + rename publish).

    Per byte-aligned chunk of float records and per dimension, the
    values are located into a contiguous ``uint8`` bin column
    (:func:`_bin_column`) and all of the dimension's bitmaps are packed
    by one one-hot comparison + one ``np.packbits``.  Chunk reads go
    through the resilient-read loop: the rank's ``fault_state`` is
    consulted before every read and transient failures retry under
    ``retry``.

    ``grid_hash`` overrides the fingerprint stamped into the index (the
    streaming engine stamps :func:`edges_fingerprint` so tiles stay
    valid across threshold-only grid changes); the default is the
    strict :func:`grid_fingerprint`.
    """
    nbins = _grid_nbins(grid)
    if max(nbins, default=1) > 256:
        raise DataError(
            f"grid has {max(nbins)} bins in one dimension; unit tables "
            f"hold byte bins, so the bitmap index supports at most 256")
    if source.n_dims != grid.ndim:
        raise DataError(
            f"records have {source.n_dims} dimensions, grid has "
            f"{grid.ndim}")
    stop = source.n_records if stop is None else stop
    if not 0 <= start <= stop <= source.n_records:
        raise DataError(
            f"range [{start}, {stop}) out of bounds for "
            f"{source.n_records} records")
    n = stop - start
    chunk = _aligned_chunk(chunk_records)
    n_pairs = sum(nbins)
    row_bytes = -(-n // 8)
    offsets = _pair_offsets(nbins)
    inner = [np.asarray(dg.edges[1:-1], dtype=np.float64) for dg in grid]
    bin_ids = [np.arange(nb, dtype=np.uint8)[:, None] for nb in nbins]
    ghash = grid_fingerprint(grid) if grid_hash is None else bytes(grid_hash)

    def fill(data: np.ndarray) -> None:
        for offset, raw in _source_chunks(source, chunk, start, stop,
                                          retry, fault_state):
            byte_lo = offset // 8
            for dim in range(grid.ndim):
                col = _bin_column(inner[dim], raw[:, dim])
                packed = np.packbits(col == bin_ids[dim], axis=1)
                base = int(offsets[dim])
                data[base:base + nbins[dim],
                     byte_lo:byte_lo + packed.shape[1]] = packed

    if path is None or n == 0:
        data = np.empty((n_pairs, row_bytes), dtype=np.uint8)
        fill(data)
        return BitmapIndex(data=data, nbins=nbins, n_records=n,
                           grid_hash=ghash)

    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    header = _HEADER.pack(_MAGIC, _VERSION, 0, n, n_pairs, grid.ndim, ghash)
    nbins_table = b"".join(_NBINS_ITEM.pack(b) for b in nbins)
    data_offset = _HEADER.size + len(nbins_table)
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(nbins_table)
            fh.truncate(data_offset + n_pairs * row_bytes)
        mm = np.memmap(tmp, mode="r+", dtype=np.uint8, offset=data_offset,
                       shape=(n_pairs, row_bytes))
        try:
            fill(mm)
            mm.flush()
            crcs = [_tile_crc(mm[pair]) for pair in range(n_pairs)]
        finally:
            del mm  # drop the mapping (and its descriptor) before publish
        with open(tmp, "ab") as fh:
            for crc in crcs:
                fh.write(_CRC_ITEM.pack(crc))
        os.replace(tmp, path)
    except BaseException:
        # a failed staging pass (e.g. injected read faults exhausting
        # the retry budget) must not leave a half-written temp behind
        _unlink_quiet(str(tmp))
        raise
    return BitmapIndex.open(path)


def _membership_bits(grid: Grid, records: np.ndarray,
                     nbins: tuple[int, ...]) -> np.ndarray:
    """``(n_pairs, m)`` membership booleans of ``m`` new records — the
    unpacked form of the tile bits an append splices on."""
    offsets = _pair_offsets(nbins)
    hits = np.empty((sum(nbins), records.shape[0]), dtype=bool)
    for dim, dg in enumerate(grid):
        base = int(offsets[dim])
        col = _bin_column(np.asarray(dg.edges[1:-1], dtype=np.float64),
                          records[:, dim])
        hits[base:base + nbins[dim]] = (
            col == np.arange(nbins[dim], dtype=np.uint8)[:, None])
    return hits


def _splice_bits(last_bytes: np.ndarray | None, live: int,
                 hits: np.ndarray) -> np.ndarray:
    """Pack ``hits`` onto tiles whose final byte holds ``live`` ragged
    bits (``last_bytes``, one column).  Returns the packed bytes that
    replace each tile from byte ``n_old // 8`` on — bit-identical to
    what one ``np.packbits`` over the full record range produces for
    that byte range."""
    if live:
        tail = np.unpackbits(last_bytes, axis=1)[:, :live]
        glue = np.concatenate([tail, hits], axis=1)
    else:
        glue = hits
    return np.packbits(glue, axis=1)


def _tile_crc(*parts: np.ndarray) -> int:
    crc = 0
    for part in parts:
        for lo in range(0, part.shape[0], _CRC_BLOCK):
            crc = zlib.crc32(np.ascontiguousarray(part[lo:lo + _CRC_BLOCK]),
                             crc)
    return crc


def _check_append_args(index: BitmapIndex, grid: Grid,
                       records: np.ndarray) -> np.ndarray:
    records = np.ascontiguousarray(np.asarray(records, dtype=np.float64))
    if records.ndim != 2 or records.shape[1] != grid.ndim:
        raise DataError(
            f"append records shape {records.shape} does not match "
            f"{grid.ndim}-dimensional grid")
    if index.nbins != _grid_nbins(grid):
        raise DataError(
            "bitmap index bin structure does not match the grid; "
            "rebuild instead of appending")
    return records


def append_bitmap_tiles(index: BitmapIndex, grid: Grid,
                        records: np.ndarray) -> BitmapIndex:
    """A new *resident* index covering ``index``'s records plus
    ``records``, reusing every already-packed byte — only the new
    records (and the ragged final byte of each tile) are re-packed.
    Bit-identical to rebuilding over the concatenated records."""
    if not index.resident:
        raise DataError("append_bitmap_tiles needs a resident index; "
                        "use append_bitmap_index for on-disk tiles")
    records = _check_append_args(index, grid, records)
    m = records.shape[0]
    if m == 0:
        return index
    hits = _membership_bits(grid, records, index.nbins)
    n_old = index.n_records
    live = n_old % 8
    data = index._data
    packed = _splice_bits(data[:, -1:] if live else None, live, hits)
    new_data = np.concatenate([data[:, :n_old // 8], packed], axis=1)
    return BitmapIndex(data=new_data, nbins=index.nbins,
                       n_records=n_old + m, grid_hash=index.grid_hash)


def invalidate_bitmap_cache(path: str | os.PathLike) -> bool:
    """Zero the grid fingerprint of an on-disk index **in place** (and
    flush it to disk), so every loader treats the file as stale until a
    completed append restores a real fingerprint.

    This is the first, durable step of the in-place append protocol:
    once the zeroed header hits disk, a crash at *any* later point —
    half-written tiles, missing CRCs, an un-updated record count —
    leaves a file that :func:`load_bitmap_cache` and
    :meth:`BitmapIndex.open` refuse to serve.  Returns ``False`` when
    no file exists (nothing to invalidate)."""
    path = Path(path)
    if not path.exists():
        return False
    with open(path, "r+b") as fh:
        raw = fh.read(struct.calcsize("<4sH"))
        if len(raw) < struct.calcsize("<4sH"):
            raise RecordFileError(f"{path}: truncated bitmap-index header")
        magic, version = struct.unpack("<4sH", raw)
        if magic != _MAGIC:
            raise RecordFileError(f"{path}: bad magic {magic!r}")
        header = _HEADER if version == _VERSION else _HEADER_CAP
        fh.seek(header.size - len(_NULL_HASH))
        fh.write(_NULL_HASH)
        fh.flush()
        os.fsync(fh.fileno())
    return True


def _write_appended_tiles(path: Path, data_offset: int, n_pairs: int,
                          cap_row_bytes: int, floor_bytes: int,
                          packed: np.ndarray) -> None:
    """Step 2 of the in-place append: splice the new bytes onto every
    tile (bytes ``>= floor_bytes``; earlier bytes are never touched)."""
    mm = np.memmap(path, mode="r+", dtype=np.uint8, offset=data_offset,
                   shape=(n_pairs, cap_row_bytes))
    try:
        mm[:, floor_bytes:floor_bytes + packed.shape[1]] = packed
        mm.flush()
    finally:
        del mm


def _finalize_append(path: Path, nbins: tuple[int, ...], n_records: int,
                     cap_records: int, ghash: bytes, crcs: list[int],
                     data_offset: int, cap_row_bytes: int) -> None:
    """Steps 3-4 of the in-place append: durable CRC footer, then the
    header with the new record count and the *restored* fingerprint —
    the commit point of the whole append."""
    n_pairs = sum(nbins)
    with open(path, "r+b") as fh:
        fh.seek(data_offset + n_pairs * cap_row_bytes)
        fh.write(b"".join(_CRC_ITEM.pack(crc) for crc in crcs))
        fh.flush()
        os.fsync(fh.fileno())
        fh.seek(0)
        fh.write(_HEADER_CAP.pack(_MAGIC, _VERSION_CAP, 0, n_records,
                                  n_pairs, len(nbins), cap_records, ghash))
        fh.flush()
        os.fsync(fh.fileno())


def _write_capacity_file(path: Path, nbins: tuple[int, ...],
                         n_records: int, cap_records: int, ghash: bytes,
                         rows: np.ndarray) -> None:
    """Write a complete version-2 file (tiles padded to capacity) via
    atomic temp + rename — the upgrade/overflow path of an append."""
    n_pairs = sum(nbins)
    cap_row_bytes = -(-cap_records // 8)
    row_bytes = -(-n_records // 8)
    tmp = path.with_suffix(path.suffix + ".tmp")
    data_offset = _HEADER_CAP.size + len(nbins) * _NBINS_ITEM.size
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER_CAP.pack(_MAGIC, _VERSION_CAP, 0, n_records,
                                      n_pairs, len(nbins), cap_records,
                                      ghash))
            fh.write(b"".join(_NBINS_ITEM.pack(b) for b in nbins))
            fh.truncate(data_offset + n_pairs * cap_row_bytes)
        if row_bytes:
            mm = np.memmap(tmp, mode="r+", dtype=np.uint8,
                           offset=data_offset,
                           shape=(n_pairs, cap_row_bytes))
            try:
                mm[:, :row_bytes] = rows
                mm.flush()
            finally:
                del mm
        with open(tmp, "ab") as fh:
            for pair in range(n_pairs):
                fh.write(_CRC_ITEM.pack(_tile_crc(rows[pair])))
        os.replace(tmp, path)
    except BaseException:
        _unlink_quiet(str(tmp))
        raise


def append_bitmap_index(path: str | os.PathLike, grid: Grid,
                        records: np.ndarray, *,
                        grid_hash: bytes | None = None) -> BitmapIndex:
    """Append ``records`` to an on-disk index **in place**.

    Version-2 files with spare tile capacity are extended without
    moving a byte of existing tiles, under the crash-safe protocol
    (invalidate fingerprint → splice tiles → CRC footer → restore
    fingerprint + record count); existing tile bytes are CRC-verified
    before their checksums are extended, so latent corruption is
    surfaced (:class:`~repro.errors.ChecksumError`) rather than
    laundered into fresh CRCs.  Version-1 files, and appends past the
    reserved capacity, are rewritten as version 2 with doubled headroom
    through an atomic temp + rename (no invalidation window at all).

    ``grid_hash`` is the fingerprint stamped (and expected) on the
    file, defaulting to the strict :func:`grid_fingerprint`; a file
    carrying any *other* fingerprint — including the zeroed one left by
    a crashed append — is rejected as stale rather than appended to.
    """
    path = Path(path)
    ghash = grid_fingerprint(grid) if grid_hash is None else bytes(grid_hash)
    index = BitmapIndex.open(path, expected_grid_hash=ghash)
    records = _check_append_args(index, grid, records)
    m = records.shape[0]
    if m == 0:
        return index
    n_old = index.n_records
    total = n_old + m
    hits = _membership_bits(grid, records, index.nbins)
    live = n_old % 8
    floor_bytes = n_old // 8
    new_row_bytes = -(-total // 8)
    mapped = index._map()
    for pair in range(index.n_pairs):
        index._verify_tile(pair)
    packed = _splice_bits(mapped[:, floor_bytes:floor_bytes + 1]
                          if live else None, live, hits)
    is_v2 = index._data_offset != _HEADER.size + index.n_dims * _NBINS_ITEM.size
    if not is_v2 or new_row_bytes > index._cap_row_bytes:
        # upgrade / overflow: rebuild with doubled headroom, atomically
        rows = np.concatenate([mapped[:, :floor_bytes], packed], axis=1)
        cap_records = max(64, ((2 * total + 7) // 8) * 8)
        del mapped
        index._mmap = None
        _write_capacity_file(path, index.nbins, total, cap_records, ghash,
                             rows)
        return BitmapIndex.open(path, expected_grid_hash=ghash)
    crcs = [_tile_crc(mapped[pair, :floor_bytes], packed[pair])
            for pair in range(index.n_pairs)]
    cap_records = index._cap_row_bytes * 8
    data_offset = index._data_offset
    cap_row_bytes = index._cap_row_bytes
    nbins = index.nbins
    n_pairs = index.n_pairs
    del mapped
    index._mmap = None
    invalidate_bitmap_cache(path)
    _write_appended_tiles(path, data_offset, n_pairs, cap_row_bytes,
                          floor_bytes, packed)
    _finalize_append(path, nbins, total, cap_records, ghash, crcs,
                     data_offset, cap_row_bytes)
    return BitmapIndex.open(path, expected_grid_hash=ghash)


def load_bitmap_cache(path: str | os.PathLike, grid: Grid,
                      n_records: int,
                      grid_hash: bytes | None = None) -> BitmapIndex | None:
    """Reopen an on-disk bitmap-index cache, or ``None`` when it is
    missing, malformed, or stale — anything not built from exactly this
    grid over exactly this record range is rebuilt, never trusted.
    ``grid_hash`` overrides the expected fingerprint (see
    :func:`build_bitmap_index`); either way a file whose fingerprint was
    zeroed by an in-flight (crashed) append is rejected here."""
    path = Path(path)
    if not path.exists():
        return None
    expected = grid_fingerprint(grid) if grid_hash is None else grid_hash
    try:
        index = BitmapIndex.open(path, expected_grid_hash=expected)
    except RecordFileError:
        return None
    if index.n_records != n_records or index.nbins != _grid_nbins(grid):
        return None
    return index


def stage_bitmap_index(source: DataSource, comm: Comm, grid: Grid,
                       chunk_records: int, start: int = 0,
                       stop: int | None = None, *,
                       budget: int = DEFAULT_BITMAP_BUDGET,
                       retry: RetryPolicy | None = None) -> BitmapIndex:
    """Stage this rank's bitmap index; ``budget`` alone decides where it
    lives.

    An index that fits ``budget`` bytes stays resident in RAM.  A larger
    one spills to the mmap tile format — next to the rank's staged
    record file when the rank reads that file whole (reusing a
    still-valid cache from an earlier run), otherwise into an anonymous
    temp file removed with the index.  The sibling cache names only the
    file, so a rank reading a ``[start, stop)`` slice of a shared file
    never uses it: another rank's slice would share the path.  Staging
    charges nothing to the virtual clock, like shared-to-local staging.
    """
    stop = source.n_records if stop is None else stop
    n = stop - start
    fault_state = getattr(comm, "fault_state", None)
    if index_nbytes(grid, n) <= budget:
        index = build_bitmap_index(source, grid, chunk_records, start, stop,
                                   retry=retry, fault_state=fault_state)
    elif isinstance(source, RecordFile) \
            and (start, stop) == (0, source.n_records):
        path = bitmap_cache_path(source.path)
        index = load_bitmap_cache(path, grid, n)
        if index is None:
            index = build_bitmap_index(source, grid, chunk_records, start,
                                       stop, path=path, retry=retry,
                                       fault_state=fault_state)
    else:
        fd, tmpname = tempfile.mkstemp(prefix="pmafia-rank-", suffix=".bmx")
        os.close(fd)
        try:
            index = build_bitmap_index(source, grid, chunk_records, start,
                                       stop, path=tmpname, retry=retry,
                                       fault_state=fault_state)
        except BaseException:
            _unlink_quiet(tmpname)
            raise
        weakref.finalize(index, _unlink_quiet, tmpname)
    obs = getattr(comm, "obs", None)
    if obs is not None:
        obs.bitmap_index_built(index.n_pairs, index.nbytes, index.resident)
    return index
