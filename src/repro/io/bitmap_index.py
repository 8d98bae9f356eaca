"""Persistent per-(dim, bin) membership bitmap index.

Every population pass after grid construction needs only each record's
bin membership per dimension.  A :class:`BitmapIndex` stages that once:
immediately after the adaptive grid is fixed, one per-chunk pass packs
**one membership bitmap per (dim, bin) pair of the grid** — bit ``r``
of bitmap ``(d, b)`` is set iff record ``r`` falls in bin ``b`` of
dimension ``d``.

Bin ``b`` of a dimension is the run of fine intervals
``[cuts[b], cuts[b + 1])``, so its bitmap is a range comparison of the
records' fine codes — the *range encoding* of Chan & Ioannidis
("Bitmap Index Design and Evaluation", SIGMOD 1998).  Per chunk and
dimension the pass packs one comparison, ``below[b] = codes <
cuts[b + 1]``; bin 0 is ``below[0]`` and bin ``b`` is ``below[b] &
~below[b - 1]``.  The top cut is ``n_fine``, which every code is below,
so the last row packs with zero padding and needs no tail mask.  The
codes are the ones the fine-histogram pass kept when they fit the
budget beside the index (no float is read); otherwise they are
recomputed chunk by chunk from the records with the same
:func:`~repro.core.histogram.fine_codes`.  Every later population pass
is then pure AND + popcount over cached bitmaps with zero data reads (see
:func:`repro.core.population.count_units` for the prefix AND walk that
consumes this index, in fixed buffers of its own).

Residency is governed by one byte budget (``MafiaParams.bitmap_budget``,
which also decides whether the histogram pass's codes are kept): an
index of ``sum(nbins) * ceil(n/8)`` bytes lives in RAM when it fits
and otherwise *spills* to an mmap-tiled on-disk format — each pair's
bitmap is one contiguous tile, mapped read-only and CRC-verified lazily
on first touch.  A spilled index is stamped with a 64-byte **key**: the
grid's :func:`edges_fingerprint` (bin membership depends on the edges
alone, never on the density thresholds) followed by a digest of the
exact records it covers (:meth:`repro.io.records.RecordFileInfo.digest`:
the source record file's header and CRC table plus the covered range).
A cached file is only served under an identical key, so rewriting the
records or moving an edge forces a rebuild.

On-disk format (version 3, the only one; files are published and
checked through :mod:`repro.io.artifact`)::

    header  <4sHqqq64s>  magic b"PMBI" | u16 version | i64 n_records |
                         i64 n_pairs | i64 n_dims | 64-byte key
    nbins   n_dims x i64  bins per dimension (their sum is n_pairs)
    data    pair-major tiles: pair 0's ceil(n/8) packed bytes, then
            pair 1's, ... (pair id = offsets[dim] + bin)
    footer  one CRC32 per pair tile

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
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..core.histogram import fine_codes
from ..errors import ChecksumError, DataError, RecordFileError
from ..parallel.comm import Comm
from ..types import Grid
from .artifact import Publication, crc32, open_frame, verify_crc
from .chunks import DataSource, _raw_blocks
from .records import RecordFile
from .resilient import RetryPolicy

_MAGIC = b"PMBI"
_VERSION = 3
_HEADER = struct.Struct("<4sHqqq64s")
_NBINS_ITEM = struct.Struct("<q")
_CRC_ITEM = struct.Struct("<I")

#: the records half of the key of an index tied to no record file
#: (resident, or spilled to an anonymous temp file): never reloaded
NO_RECORDS_DIGEST = bytes(32)

#: default residency budget for the index plus the kept fine codes
DEFAULT_BITMAP_BUDGET = 1 << 28

#: bytes a level pass is charged per record cell on the virtual clock —
#: float64 width, so the simulated machine keeps paying the paper's
#: per-pass record-read cost although the index reads no records at all
RECORD_ITEMSIZE = 8


def grid_fingerprint(grid: Grid) -> bytes:
    """32-byte SHA-256 fingerprint of a grid's exact geometry.

    Covers dimension count and, per dimension, the fine grid
    (``n_fine``, cuts), the bin edges, density thresholds and the
    uniform-resplit flag.  Two grids share a fingerprint iff staged
    artifacts built under one are valid under the other.
    """
    return _fingerprint(grid, thresholds=True)


def edges_fingerprint(grid: Grid) -> bytes:
    """32-byte SHA-256 fingerprint of a grid's *bin geometry only*
    (dimension count, per-dimension fine grid, cuts and edges) —
    deliberately excluding the density thresholds.

    Bin membership — hence every membership bitmap — depends only on
    the fine grid and its cuts; thresholds merely classify counts as
    dense.  It is the grid half of every index key, so a grid whose
    thresholds moved but whose bins did not keeps a spilled index
    file valid.  Hashed once per grid (:attr:`Grid.edges_fingerprint`).
    """
    return grid.edges_fingerprint


def _fingerprint(grid: Grid, *, thresholds: bool) -> bytes:
    h = hashlib.sha256()
    h.update(struct.pack("<q", grid.ndim))
    for dg in grid:
        h.update(struct.pack("<qqq?", dg.dim, dg.nbins, dg.n_fine,
                             dg.uniform))
        h.update(np.asarray(dg.cuts, dtype="<i8").tobytes())
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


def _grid_nbins(grid: Grid) -> tuple[int, ...]:
    return tuple(int(dg.nbins) for dg in grid)


def _pair_offsets(nbins: tuple[int, ...]) -> np.ndarray:
    offsets = np.zeros(len(nbins) + 1, dtype=np.int64)
    np.cumsum(np.asarray(nbins, dtype=np.int64), out=offsets[1:])
    return offsets


def index_nbytes(grid: Grid, n_records: int) -> int:
    """Bytes a :class:`BitmapIndex` over this grid and record count
    occupies (one ``ceil(n/8)``-byte tile per (dim, bin) pair) — what
    staging weighs against ``bitmap_budget``."""
    return sum(_grid_nbins(grid)) * (-(-n_records // 8))


def bitmap_cache_path(record_path: str | os.PathLike) -> Path:
    """The on-disk bitmap-index cache sitting alongside a record file."""
    return Path(record_path).with_suffix(".bmx")


class BitmapIndex:
    """One rank's per-(dim, bin) membership bitmaps.

    Bitmaps live either in a resident ``(n_pairs, row_bytes)`` uint8
    matrix or as mmap tiles of the on-disk format.  Rows are read-only:
    consumers AND them into buffers of their own, and a depth-1 prefix
    is the row itself.  ``key`` is the 64-byte key the index was
    built under (see the module docstring).
    """

    def __init__(self, *, data: np.ndarray | None = None,
                 path: Path | None = None,
                 nbins: tuple[int, ...] = (),
                 n_records: int = 0,
                 key: bytes = b"") -> None:
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
            self.key = bytes(key)
            if data.shape != (sum(self.nbins), -(-self.n_records // 8)):
                raise DataError(
                    f"bitmap data shape {data.shape} does not match "
                    f"{sum(self.nbins)} pairs x {-(-self.n_records // 8)} "
                    f"bytes")
        else:
            self._data = None
            (self.n_records, self.nbins, self.key, self._data_offset,
             self._crcs) = _read_index_header(path)
        self.n_dims = len(self.nbins)
        self.n_pairs = sum(self.nbins)
        self.row_bytes = -(-self.n_records // 8)
        self.offsets = _pair_offsets(self.nbins)

    # -- construction -----------------------------------------------------
    @classmethod
    def open(cls, path: str | os.PathLike,
             expected_key: bytes | None = None) -> "BitmapIndex":
        """Open an on-disk index; with ``expected_key`` given, a key
        mismatch (stale cache) raises
        :class:`~repro.errors.RecordFileError`."""
        index = cls(path=Path(path))
        if expected_key is not None and index.key != bytes(expected_key):
            raise RecordFileError(
                f"{path}: bitmap index was built under a different key "
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
            self._mmap = np.memmap(self.path, mode="r", dtype=np.uint8,
                                   offset=self._data_offset,
                                   shape=(self.n_pairs, self.row_bytes))
        return self._mmap

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
        tile = self._map()[pair]
        if pair not in self._verified:
            verify_crc(tile, self._crcs[pair], ChecksumError,
                       f"{self.path}: bitmap tile {pair}")
            self._verified.add(pair)
        return tile


def _read_index_header(path: Path):
    with open_frame(path, _HEADER, magic=_MAGIC, version=_VERSION,
                    error=RecordFileError, what="bitmap index") as frame:
        n_records, n_pairs, n_dims, key = frame.fields
        if n_records < 0 or n_dims <= 0 or n_pairs <= 0:
            raise RecordFileError(
                f"{path}: bad shape ({n_records}, {n_pairs}, {n_dims})")
        table = frame.read_at(_HEADER.size, n_dims * _NBINS_ITEM.size)
        nbins = tuple(int(v) for v in np.frombuffer(table, dtype="<i8"))
        if any(b <= 0 for b in nbins) or sum(nbins) != n_pairs:
            raise RecordFileError(
                f"{path}: nbins table {nbins} does not sum to "
                f"{n_pairs} pairs")
        data_offset = _HEADER.size + len(table)
        footer_offset = data_offset + n_pairs * (-(-n_records // 8))
        frame.expect_size(footer_offset + n_pairs * _CRC_ITEM.size)
        footer = frame.read_at(footer_offset, n_pairs * _CRC_ITEM.size)
    crcs = tuple(int(v) for v in np.frombuffer(footer, dtype="<u4"))
    return n_records, nbins, key, data_offset, crcs


def _aligned_chunk(chunk_records: int) -> int:
    """Largest multiple of 8 not above ``chunk_records`` (min 8), so
    every non-final build chunk starts on a byte boundary of the
    bitmaps (``np.packbits`` pads only the final byte of the range)."""
    if chunk_records <= 0:
        raise DataError(
            f"chunk_records must be positive, got {chunk_records}")
    return max(8, chunk_records - (chunk_records % 8))


def _block_chunks(blocks: Sequence[np.ndarray], chunk: int
                  ) -> Iterator[tuple[int, np.ndarray]]:
    """``(offset, codes)`` chunks of ``chunk`` records (the last may be
    shorter) over the concatenation of ``(d, n_i)`` code blocks; only a
    chunk straddling two blocks is copied."""
    offset = 0
    pending: list[np.ndarray] = []
    n_pending = 0
    for block in blocks:
        pos = 0
        while pos < block.shape[1]:
            take = min(chunk - n_pending, block.shape[1] - pos)
            piece = block[:, pos:pos + take]
            pos += take
            if take == chunk:
                yield offset, piece
                offset += chunk
                continue
            pending.append(piece)
            n_pending += take
            if n_pending == chunk:
                yield offset, np.concatenate(pending, axis=1)
                offset += chunk
                pending, n_pending = [], 0
    if pending:
        yield offset, np.concatenate(pending, axis=1)


def build_bitmap_index(source: DataSource | None, grid: Grid,
                       chunk_records: int, start: int = 0,
                       stop: int | None = None, *,
                       path: str | os.PathLike | None = None,
                       records_digest: bytes = NO_RECORDS_DIGEST,
                       retry: RetryPolicy | None = None,
                       fault_state=None,
                       codes: np.ndarray | Sequence[np.ndarray] | None = None
                       ) -> BitmapIndex:
    """One staging pass: pack every (dim, bin) membership bitmap for the
    rank's ``[start, stop)`` block, resident (``path`` None) or into the
    on-disk tile format (published through
    :class:`~repro.io.artifact.Publication`).

    Per byte-aligned chunk and per dimension, one comparison of the
    chunk's fine codes against the dimension's upper cuts is packed,
    and each bin's bitmap is one byte-wise and-not of two adjacent
    packed rows (the range encoding of the module docstring).  The
    codes are ``codes`` — the ``(d, n)`` fine codes the histogram pass
    kept for this block, or a sequence of ``(d, n_i)`` blocks whose
    concatenation they are (a stream window's wrapped ring) — when
    given; ``source`` may then be ``None`` and the block's size is
    taken from the codes.  Otherwise each chunk
    is read from ``source`` through the resilient-read loop (the rank's
    ``fault_state`` is consulted before every read and transient
    failures retry under ``retry``) and its codes are computed with
    :func:`~repro.core.histogram.fine_codes` under every dimension's
    ``lo``/``hi``/``n_fine``.

    The index is stamped with the key ``edges_fingerprint(grid) +
    records_digest``; ``records_digest`` must identify exactly the
    records the codes belong to
    (:meth:`~repro.io.records.RecordFileInfo.digest`) whenever the file
    is meant to be reloaded by :func:`load_bitmap_cache`.
    """
    nbins = _grid_nbins(grid)
    blocks = None
    if codes is not None:
        blocks = [codes] if isinstance(codes, np.ndarray) else list(codes)
    if source is None:
        if blocks is None:
            raise DataError("build_bitmap_index needs records or codes")
        n = sum(block.shape[-1] for block in blocks)
    else:
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
    if blocks is not None and (
            sum(block.shape[-1] for block in blocks) != n
            or any(block.ndim != 2 or block.shape[0] != grid.ndim
                   for block in blocks)):
        raise DataError(f"codes shapes {[b.shape for b in blocks]} do "
                        f"not match ({grid.ndim}, {n})")
    chunk = _aligned_chunk(chunk_records)
    n_pairs = sum(nbins)
    row_bytes = -(-n // 8)
    offsets = _pair_offsets(nbins)
    # the cuts keep their own dtype: at n_fine = 256 the codes are
    # uint8 and the top cut would wrap to 0 in it
    upper = [np.asarray(dg.cuts[1:], np.min_scalar_type(dg.n_fine))[:, None]
             for dg in grid]
    key = edges_fingerprint(grid) + bytes(records_digest)

    def code_chunks() -> Iterator[tuple[int, Sequence[np.ndarray]]]:
        if blocks is not None:
            yield from _block_chunks(blocks, chunk)
            return
        for offset, raw in _source_chunks(source, chunk, start, stop,
                                          retry, fault_state):
            yield offset, [fine_codes(raw[:, dim], dg.lo, dg.hi - dg.lo,
                                      dg.n_fine)
                           for dim, dg in enumerate(grid)]

    def fill(data: np.ndarray) -> None:
        for offset, columns in code_chunks():
            byte_lo = offset // 8
            for dim, col in enumerate(columns):
                below = np.packbits(col < upper[dim], axis=1)
                rows = data[offsets[dim]:offsets[dim + 1],
                            byte_lo:byte_lo + below.shape[1]]
                rows[0] = below[0]
                np.bitwise_and(below[1:], ~below[:-1], out=rows[1:])

    if path is None or n == 0:
        data = np.empty((n_pairs, row_bytes), dtype=np.uint8)
        fill(data)
        return BitmapIndex(data=data, nbins=nbins, n_records=n, key=key)

    nbins_table = b"".join(_NBINS_ITEM.pack(b) for b in nbins)
    data_offset = _HEADER.size + len(nbins_table)
    with Publication(path) as out:
        out.fh.write(_HEADER.pack(_MAGIC, _VERSION, n, n_pairs, grid.ndim,
                                  key))
        out.fh.write(nbins_table)
        out.fh.truncate(data_offset + n_pairs * row_bytes)
        mm = np.memmap(out.fh, mode="r+", dtype=np.uint8,
                       offset=data_offset, shape=(n_pairs, row_bytes))
        try:
            fill(mm)
            mm.flush()
            crcs = [crc32(mm[pair]) for pair in range(n_pairs)]
        finally:
            del mm  # drop the mapping before the file is published
        out.fh.seek(0, os.SEEK_END)
        out.fh.write(b"".join(_CRC_ITEM.pack(crc) for crc in crcs))
    return BitmapIndex.open(path)


def load_bitmap_cache(path: str | os.PathLike, grid: Grid,
                      records_digest: bytes) -> BitmapIndex | None:
    """Reopen an on-disk bitmap-index cache, or ``None`` when it is
    missing, malformed, or stale — anything not built under exactly
    this grid's edges over exactly the records ``records_digest``
    names is rebuilt, never trusted."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        index = BitmapIndex.open(
            path, expected_key=edges_fingerprint(grid) + records_digest)
    except RecordFileError:
        return None
    if index.nbins != _grid_nbins(grid):
        return None
    return index


def stage_bitmap_index(source: DataSource, comm: Comm, grid: Grid,
                       chunk_records: int, start: int = 0,
                       stop: int | None = None, *,
                       budget: int = DEFAULT_BITMAP_BUDGET,
                       retry: RetryPolicy | None = None,
                       codes: np.ndarray | None = None) -> BitmapIndex:
    """Stage this rank's bitmap index; ``budget`` alone decides where it
    lives.  ``codes`` are the block's kept fine codes (see
    :func:`build_bitmap_index`); without them the pass reads the
    records.

    An index that fits ``budget`` bytes stays resident in RAM.  A larger
    one spills to the mmap tile format — next to the rank's staged
    record file when the rank reads that file whole (reusing a
    still-valid cache from an earlier run), otherwise into an anonymous
    temp file removed with the index.  The sibling is keyed on the
    record file's digest, so a rewritten file is never served a stale
    index; it names only the file, so a rank reading a ``[start, stop)``
    slice of a shared file never uses it: another rank's slice would
    share the path.  Staging charges nothing to the virtual clock, like
    shared-to-local staging.
    """
    stop = source.n_records if stop is None else stop
    n = stop - start
    fault_state = getattr(comm, "fault_state", None)
    if index_nbytes(grid, n) <= budget:
        index = build_bitmap_index(source, grid, chunk_records, start, stop,
                                   retry=retry, fault_state=fault_state,
                                   codes=codes)
    elif isinstance(source, RecordFile) \
            and (start, stop) == (0, source.n_records):
        path = bitmap_cache_path(source.path)
        digest = source.info.digest(start, stop)
        index = load_bitmap_cache(path, grid, digest)
        if index is None:
            index = build_bitmap_index(source, grid, chunk_records, start,
                                       stop, path=path,
                                       records_digest=digest, retry=retry,
                                       fault_state=fault_state, codes=codes)
    else:
        fd, tmpname = tempfile.mkstemp(prefix="pmafia-rank-", suffix=".bmx")
        os.close(fd)
        try:
            index = build_bitmap_index(source, grid, chunk_records, start,
                                       stop, path=tmpname, retry=retry,
                                       fault_state=fault_state, codes=codes)
        except BaseException:
            _unlink_quiet(tmpname)
            raise
        weakref.finalize(index, _unlink_quiet, tmpname)
    obs = getattr(comm, "obs", None)
    if obs is not None:
        obs.bitmap_index_built(index.n_pairs, index.nbytes, index.resident)
    return index
