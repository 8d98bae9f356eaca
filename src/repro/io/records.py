"""Binary record files.

pMAFIA is "a disk-based parallel and scalable algorithm" (§4): each
processor stages its share of the data onto local disk and re-reads it in
chunks of ``B`` records on every pass.  :class:`RecordFile` is that
on-disk format — a tiny self-describing header followed by C-order raw
records — readable via memmap so chunked passes never materialise the
whole data set.

Two on-disk versions coexist (see ``docs/ROBUSTNESS.md``):

* **v1** — 24-byte header (magic, version, dtype, shape) + raw records.
* **v2** (default for new files) — 32-byte header that additionally
  records ``crc_chunk_records``, raw records, then a footer table with
  one CRC32 per chunk of that many records.  Reads verify the CRCs of
  the chunks they touch (cached per handle) and raise
  :class:`~repro.errors.ChecksumError` on the first mismatch — silent
  bit rot on a multi-hour disk-based run is not recoverable, so it must
  fail fast.  v1 files remain fully readable (no checksums, no
  verification).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import ChecksumError, DataError, RecordFileError

_MAGIC = b"PMAF"
_V1 = 1
_V2 = 2
#: version written by default
_VERSION = _V2
#: v1 header: magic, version, dtype code, n_records, n_dims
_HEADER_V1 = struct.Struct("<4sHHqq")
#: v2 header: v1 fields + crc_chunk_records; CRC32 footer after the data
_HEADER_V2 = struct.Struct("<4sHHqqq")
_CRC_ITEM = struct.Struct("<I")
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}

#: records covered by one footer CRC32 in a v2 file
DEFAULT_CRC_CHUNK_RECORDS = 4096


def _crc_chunk_count(n_records: int, crc_chunk_records: int) -> int:
    if crc_chunk_records <= 0 or n_records <= 0:
        return 0
    return -(-n_records // crc_chunk_records)


@dataclass(frozen=True)
class RecordFileInfo:
    """Metadata decoded from a record file header."""

    path: Path
    n_records: int
    n_dims: int
    dtype: np.dtype
    version: int = _V1
    data_offset: int = _HEADER_V1.size
    #: records per footer CRC32 (0: no checksums, v1 file)
    crc_chunk_records: int = 0
    #: one CRC32 per chunk of ``crc_chunk_records`` records (v2 only)
    crcs: tuple[int, ...] = field(default=())

    @property
    def record_nbytes(self) -> int:
        return self.n_dims * self.dtype.itemsize

    @property
    def data_nbytes(self) -> int:
        return self.n_records * self.n_dims * self.dtype.itemsize

    @property
    def n_crc_chunks(self) -> int:
        return len(self.crcs)


class RecordFile:
    """A read-only handle on one binary record file."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.info = read_header(self.path)
        #: CRC chunks already verified through this handle
        self._verified: set[int] = set()
        self._mm: np.ndarray | None = None

    @property
    def n_records(self) -> int:
        return self.info.n_records

    @property
    def n_dims(self) -> int:
        return self.info.n_dims

    @property
    def dtype(self) -> np.dtype:
        return self.info.dtype

    def memmap(self) -> np.ndarray:
        """Memory-map the records as an ``(n_records, n_dims)`` array.

        The mapping is created once and cached on the handle: a chunked
        pass that verifies and reads every block reuses one mapping
        instead of opening the file anew per call, so a read that raises
        mid-pass (fault injection, corruption) never strands freshly
        opened descriptors.
        """
        if self._mm is None:
            self._mm = np.memmap(self.path, mode="r", dtype=self.dtype,
                                 offset=self.info.data_offset,
                                 shape=(self.n_records, self.n_dims))
        return self._mm

    def verify_chunk(self, index: int) -> None:
        """Check one CRC chunk against its stored checksum; raises
        :class:`~repro.errors.ChecksumError` on mismatch.  No-op for v1
        files and for chunks this handle already verified."""
        if index in self._verified or not self.info.crcs:
            return
        ccr = self.info.crc_chunk_records
        if not 0 <= index < self.info.n_crc_chunks:
            raise DataError(f"CRC chunk {index} out of range for "
                            f"{self.info.n_crc_chunks} chunks")
        lo = index * ccr
        hi = min(lo + ccr, self.n_records)
        raw = np.ascontiguousarray(self.memmap()[lo:hi])
        computed = zlib.crc32(raw.tobytes(order="C"))
        stored = self.info.crcs[index]
        if computed != stored:
            raise ChecksumError(
                f"{self.path}: CRC mismatch in chunk {index} (records "
                f"[{lo}, {hi})): stored {stored:#010x}, "
                f"computed {computed:#010x}")
        self._verified.add(index)

    def _verify_range(self, start: int, stop: int) -> None:
        ccr = self.info.crc_chunk_records
        if not self.info.crcs or stop <= start:
            return
        for index in range(start // ccr, (stop - 1) // ccr + 1):
            self.verify_chunk(index)

    def read_block(self, start: int, stop: int,
                   verify: bool | None = None) -> np.ndarray:
        """Read records ``[start, stop)`` into a fresh in-memory array.

        ``verify`` controls checksum validation of the touched CRC
        chunks: ``None`` (default) verifies when the file carries
        checksums, ``False`` skips, ``True`` insists (a no-op on v1
        files, which have none).
        """
        if not 0 <= start <= stop <= self.n_records:
            raise DataError(
                f"block [{start}, {stop}) out of range for {self.n_records} records")
        if verify or verify is None:
            self._verify_range(start, stop)
        return np.array(self.memmap()[start:stop], copy=True)

    def read_all(self) -> np.ndarray:
        """Read the whole file into memory."""
        return self.read_block(0, self.n_records)

    def iter_chunks(self, chunk_records: int,
                    start: int = 0, stop: int | None = None
                    ) -> Iterator[np.ndarray]:
        """Yield in-memory blocks of at most ``chunk_records`` records
        covering ``[start, stop)`` — the out-of-core pass of Algorithm 2."""
        if chunk_records <= 0:
            raise DataError(f"chunk_records must be positive, got {chunk_records}")
        stop = self.n_records if stop is None else stop
        if not 0 <= start <= stop <= self.n_records:
            raise DataError(
                f"range [{start}, {stop}) out of bounds for {self.n_records} records")
        for lo in range(start, stop, chunk_records):
            yield self.read_block(lo, min(lo + chunk_records, stop))


class _ChunkCrcs:
    """Incremental per-chunk CRC32 accumulator for streamed writes."""

    def __init__(self, chunk_nbytes: int) -> None:
        self.chunk_nbytes = chunk_nbytes
        self.crcs: list[int] = []
        self._current = 0
        self._fill = 0

    def feed(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            take = min(len(view), self.chunk_nbytes - self._fill)
            self._current = zlib.crc32(view[:take], self._current)
            self._fill += take
            view = view[take:]
            if self._fill == self.chunk_nbytes:
                self.crcs.append(self._current)
                self._current = 0
                self._fill = 0

    def finish(self) -> list[int]:
        if self._fill:
            self.crcs.append(self._current)
            self._current = 0
            self._fill = 0
        return self.crcs


class RecordFileWriter:
    """Incremental record-file writer for data too large to build in
    memory.  Append ``(n, d)`` blocks, then ``close()`` (or use as a
    context manager) to finalise the header.

    >>> with RecordFileWriter(path, n_dims=8) as w:
    ...     for block in blocks:
    ...         w.append(block)
    """

    def __init__(self, path: str | os.PathLike, n_dims: int,
                 dtype: str = "<f8", version: int = _VERSION,
                 crc_chunk_records: int = DEFAULT_CRC_CHUNK_RECORDS) -> None:
        if n_dims <= 0:
            raise DataError(f"n_dims must be positive, got {n_dims}")
        if version not in (_V1, _V2):
            raise DataError(f"unsupported record-file version {version}")
        self.path = Path(path)
        self.n_dims = n_dims
        self.dtype = np.dtype(dtype)
        if self.dtype not in _DTYPE_CODES:
            raise DataError(f"unsupported dtype {dtype!r}")
        self.version = version
        self._n_records = 0
        self._crcs: _ChunkCrcs | None = None
        self.crc_chunk_records = 0
        if version == _V2:
            if crc_chunk_records <= 0:
                raise DataError(f"crc_chunk_records must be positive, "
                                f"got {crc_chunk_records}")
            self.crc_chunk_records = crc_chunk_records
            self._crcs = _ChunkCrcs(
                crc_chunk_records * n_dims * self.dtype.itemsize)
        self._tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        self._fh = open(self._tmp, "wb")
        try:
            # placeholder header, patched on close
            self._fh.write(self._header(0))
        except BaseException:
            # don't strand the descriptor or the temp file if the very
            # first write fails (full disk, injected fault)
            self.abort()
            raise

    def _header(self, n_records: int) -> bytes:
        if self.version == _V1:
            return _HEADER_V1.pack(_MAGIC, _V1, _DTYPE_CODES[self.dtype],
                                   n_records, self.n_dims)
        return _HEADER_V2.pack(_MAGIC, _V2, _DTYPE_CODES[self.dtype],
                               n_records, self.n_dims,
                               self.crc_chunk_records)

    @property
    def n_records(self) -> int:
        return self._n_records

    def append(self, block: np.ndarray) -> None:
        """Append a block of records (converted to the file dtype)."""
        if self._fh is None:
            raise RecordFileError(f"{self.path}: writer already closed")
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != self.n_dims:
            raise DataError(
                f"block shape {block.shape} does not match {self.n_dims} dims")
        if not np.isfinite(block).all():
            raise DataError("block contains NaN or infinite values")
        raw = np.ascontiguousarray(
            block.astype(self.dtype, copy=False)).tobytes(order="C")
        self._fh.write(raw)
        if self._crcs is not None:
            self._crcs.feed(raw)
        self._n_records += block.shape[0]

    def close(self) -> RecordFile:
        """Finalise the header and atomically publish the file."""
        if self._fh is None:
            return RecordFile(self.path)
        if self._crcs is not None:
            for crc in self._crcs.finish():
                self._fh.write(_CRC_ITEM.pack(crc))
        self._fh.seek(0)
        self._fh.write(self._header(self._n_records))
        self._fh.close()
        self._fh = None
        os.replace(self._tmp, self.path)
        return RecordFile(self.path)

    def abort(self) -> None:
        """Discard everything written so far."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "RecordFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_records(path: str | os.PathLike, records: np.ndarray,
                  version: int = _VERSION,
                  crc_chunk_records: int = DEFAULT_CRC_CHUNK_RECORDS
                  ) -> RecordFile:
    """Write an ``(n, d)`` float array as a record file and return a
    handle on it.  float32/float64 inputs keep their precision; anything
    else is converted to float64.  New files are checksummed v2 by
    default; pass ``version=1`` for the legacy format."""
    records = np.asarray(records)
    if records.ndim != 2:
        raise DataError(f"records must be 2-D, got shape {records.shape}")
    if records.dtype not in (np.dtype("<f4"), np.dtype("<f8")):
        records = records.astype("<f8")
    records = np.ascontiguousarray(records)
    if not np.isfinite(records).all():
        raise DataError("records contain NaN or infinite values")
    with RecordFileWriter(path, n_dims=records.shape[1],
                          dtype=records.dtype, version=version,
                          crc_chunk_records=crc_chunk_records) as writer:
        writer.append(records)
    return RecordFile(path)


def read_header(path: str | os.PathLike) -> RecordFileInfo:
    """Decode and validate a record file's header (v1 or v2); for v2
    files the footer CRC table is loaded as well."""
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER_V2.size)
            if len(raw) < _HEADER_V1.size:
                raise RecordFileError(f"{path}: truncated header")
            magic, version = struct.unpack_from("<4sH", raw)
            if magic != _MAGIC:
                raise RecordFileError(f"{path}: bad magic {magic!r}")
            crcs: tuple[int, ...] = ()
            if version == _V1:
                _, _, dtype_code, n_records, n_dims = _HEADER_V1.unpack(
                    raw[:_HEADER_V1.size])
                data_offset = _HEADER_V1.size
                crc_chunk_records = 0
            elif version == _V2:
                if len(raw) < _HEADER_V2.size:
                    raise RecordFileError(f"{path}: truncated header")
                (_, _, dtype_code, n_records, n_dims,
                 crc_chunk_records) = _HEADER_V2.unpack(raw)
                data_offset = _HEADER_V2.size
                if crc_chunk_records <= 0:
                    raise RecordFileError(
                        f"{path}: bad crc_chunk_records {crc_chunk_records}")
            else:
                raise RecordFileError(f"{path}: unsupported version {version}")
            if dtype_code not in _DTYPES:
                raise RecordFileError(f"{path}: unknown dtype code {dtype_code}")
            if n_records < 0 or n_dims <= 0:
                raise RecordFileError(f"{path}: bad shape ({n_records}, {n_dims})")
            dtype = _DTYPES[dtype_code]
            data_nbytes = n_records * n_dims * dtype.itemsize
            n_chunks = (_crc_chunk_count(n_records, crc_chunk_records)
                        if version == _V2 else 0)
            expected = data_offset + data_nbytes + n_chunks * _CRC_ITEM.size
            if size != expected:
                raise RecordFileError(
                    f"{path}: file is {size} bytes, header implies {expected}")
            if n_chunks:
                fh.seek(data_offset + data_nbytes)
                table = fh.read(n_chunks * _CRC_ITEM.size)
                if len(table) != n_chunks * _CRC_ITEM.size:
                    raise RecordFileError(f"{path}: truncated CRC table")
                crcs = tuple(
                    int(v) for v in np.frombuffer(table, dtype="<u4"))
    except RecordFileError:
        raise
    except OSError as exc:
        raise RecordFileError(f"cannot open record file {path}: {exc}") from exc
    return RecordFileInfo(path=path, n_records=n_records, n_dims=n_dims,
                          dtype=dtype, version=version,
                          data_offset=data_offset,
                          crc_chunk_records=crc_chunk_records, crcs=crcs)
