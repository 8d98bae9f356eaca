"""Binary record files.

pMAFIA is "a disk-based parallel and scalable algorithm" (§4): each
processor stages its share of the data onto local disk and re-reads it in
chunks of ``B`` records on every pass.  :class:`RecordFile` is that
on-disk format — a tiny self-describing header followed by C-order raw
records — readable via memmap so chunked passes never materialise the
whole data set.

On-disk format (version 2, the only one; see ``docs/ROBUSTNESS.md``)::

    header  <4sHHqqq>  magic b"PMAF" | u16 version | u16 dtype code |
                       i64 n_records | i64 n_dims | i64 crc_chunk_records
    data    n_records x n_dims raw records
    footer  one CRC32 per chunk of crc_chunk_records records

Files are published and checked through :mod:`repro.io.artifact`.  Reads
verify the CRCs of the chunks they touch (cached per handle) and raise
:class:`~repro.errors.ChecksumError` on the first mismatch — silent bit
rot on a multi-hour disk-based run is not recoverable, so it must fail
fast.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import ChecksumError, DataError, RecordFileError
from .artifact import Publication, crc32, open_frame, verify_crc

_MAGIC = b"PMAF"
_VERSION = 2
_HEADER = struct.Struct("<4sHHqqq")
_CRC_ITEM = struct.Struct("<I")
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}

#: records covered by one footer CRC32
DEFAULT_CRC_CHUNK_RECORDS = 4096


def _crc_chunk_count(n_records: int, crc_chunk_records: int) -> int:
    return -(-n_records // crc_chunk_records)


@dataclass(frozen=True)
class RecordFileInfo:
    """Metadata decoded from a record file header."""

    path: Path
    n_records: int
    n_dims: int
    dtype: np.dtype
    version: int
    data_offset: int
    #: records per footer CRC32
    crc_chunk_records: int
    #: one CRC32 per chunk of ``crc_chunk_records`` records
    crcs: tuple[int, ...]

    @property
    def record_nbytes(self) -> int:
        return self.n_dims * self.dtype.itemsize

    @property
    def data_nbytes(self) -> int:
        return self.n_records * self.n_dims * self.dtype.itemsize

    @property
    def n_crc_chunks(self) -> int:
        return len(self.crcs)

    def digest(self, start: int, stop: int) -> bytes:
        """32-byte SHA-256 of this file's header and CRC table plus the
        record range ``[start, stop)`` — the identity of exactly those
        records, which artifacts derived from them are keyed on."""
        h = hashlib.sha256(_HEADER.pack(
            _MAGIC, self.version, _DTYPE_CODES[self.dtype],
            self.n_records, self.n_dims, self.crc_chunk_records))
        h.update(np.asarray(self.crcs, dtype="<u4").tobytes())
        h.update(struct.pack("<qq", start, stop))
        return h.digest()


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
        :class:`~repro.errors.ChecksumError` on mismatch.  No-op for
        chunks this handle already verified."""
        if index in self._verified:
            return
        ccr = self.info.crc_chunk_records
        if not 0 <= index < self.info.n_crc_chunks:
            raise DataError(f"CRC chunk {index} out of range for "
                            f"{self.info.n_crc_chunks} chunks")
        lo = index * ccr
        hi = min(lo + ccr, self.n_records)
        verify_crc(self.memmap()[lo:hi], self.info.crcs[index],
                   ChecksumError,
                   f"{self.path}: chunk {index} (records [{lo}, {hi}))")
        self._verified.add(index)

    def read_block(self, start: int, stop: int) -> np.ndarray:
        """Read records ``[start, stop)`` into a fresh in-memory array,
        verifying the checksums of the CRC chunks it touches."""
        if not 0 <= start <= stop <= self.n_records:
            raise DataError(
                f"block [{start}, {stop}) out of range for {self.n_records} records")
        ccr = self.info.crc_chunk_records
        if stop > start:
            for index in range(start // ccr, (stop - 1) // ccr + 1):
                self.verify_chunk(index)
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
            self._current = crc32(view[:take], self._current)
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
    context manager) to finalise the header and publish the file.

    >>> with RecordFileWriter(path, n_dims=8) as w:
    ...     for block in blocks:
    ...         w.append(block)
    """

    def __init__(self, path: str | os.PathLike, n_dims: int,
                 dtype: str = "<f8",
                 crc_chunk_records: int = DEFAULT_CRC_CHUNK_RECORDS) -> None:
        if n_dims <= 0:
            raise DataError(f"n_dims must be positive, got {n_dims}")
        if crc_chunk_records <= 0:
            raise DataError(f"crc_chunk_records must be positive, "
                            f"got {crc_chunk_records}")
        self.path = Path(path)
        self.n_dims = n_dims
        self.dtype = np.dtype(dtype)
        if self.dtype not in _DTYPE_CODES:
            raise DataError(f"unsupported dtype {dtype!r}")
        self.crc_chunk_records = crc_chunk_records
        self._crcs = _ChunkCrcs(
            crc_chunk_records * n_dims * self.dtype.itemsize)
        self._n_records = 0
        self._out: Publication | None = Publication(self.path)
        try:
            # placeholder header, patched on close
            self._out.fh.write(self._header(0))
        except BaseException:
            # don't strand the descriptor or the temp file if the very
            # first write fails (full disk, injected fault)
            self.abort()
            raise

    def _header(self, n_records: int) -> bytes:
        return _HEADER.pack(_MAGIC, _VERSION, _DTYPE_CODES[self.dtype],
                            n_records, self.n_dims, self.crc_chunk_records)

    @property
    def n_records(self) -> int:
        return self._n_records

    def append(self, block: np.ndarray) -> None:
        """Append a block of records (converted to the file dtype)."""
        if self._out is None:
            raise RecordFileError(f"{self.path}: writer already closed")
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != self.n_dims:
            raise DataError(
                f"block shape {block.shape} does not match {self.n_dims} dims")
        if not np.isfinite(block).all():
            raise DataError("block contains NaN or infinite values")
        raw = np.ascontiguousarray(
            block.astype(self.dtype, copy=False)).tobytes(order="C")
        self._out.fh.write(raw)
        self._crcs.feed(raw)
        self._n_records += block.shape[0]

    def close(self) -> RecordFile:
        """Finalise the header and atomically publish the file."""
        if self._out is not None:
            out, self._out = self._out, None
            try:
                for crc in self._crcs.finish():
                    out.fh.write(_CRC_ITEM.pack(crc))
                out.fh.seek(0)
                out.fh.write(self._header(self._n_records))
            except BaseException:
                out.abort()
                raise
            out.commit()
        return RecordFile(self.path)

    def abort(self) -> None:
        """Discard everything written so far."""
        if self._out is not None:
            self._out.abort()
            self._out = None

    def __enter__(self) -> "RecordFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_records(path: str | os.PathLike, records: np.ndarray,
                  crc_chunk_records: int = DEFAULT_CRC_CHUNK_RECORDS
                  ) -> RecordFile:
    """Write an ``(n, d)`` float array as a record file and return a
    handle on it.  float32/float64 inputs keep their precision; anything
    else is converted to float64."""
    records = np.asarray(records)
    if records.ndim != 2:
        raise DataError(f"records must be 2-D, got shape {records.shape}")
    if records.dtype not in (np.dtype("<f4"), np.dtype("<f8")):
        records = records.astype("<f8")
    records = np.ascontiguousarray(records)
    if not np.isfinite(records).all():
        raise DataError("records contain NaN or infinite values")
    with RecordFileWriter(path, n_dims=records.shape[1],
                          dtype=records.dtype,
                          crc_chunk_records=crc_chunk_records) as writer:
        writer.append(records)
    return RecordFile(path)


def read_header(path: str | os.PathLike) -> RecordFileInfo:
    """Decode and validate a record file's header and load its CRC
    table."""
    with open_frame(path, _HEADER, magic=_MAGIC, version=_VERSION,
                    error=RecordFileError, what="record file") as frame:
        dtype_code, n_records, n_dims, crc_chunk_records = frame.fields
        if dtype_code not in _DTYPES:
            raise RecordFileError(
                f"{frame.path}: unknown dtype code {dtype_code}")
        if n_records < 0 or n_dims <= 0:
            raise RecordFileError(
                f"{frame.path}: bad shape ({n_records}, {n_dims})")
        if crc_chunk_records <= 0:
            raise RecordFileError(f"{frame.path}: bad crc_chunk_records "
                                  f"{crc_chunk_records}")
        dtype = _DTYPES[dtype_code]
        data_nbytes = n_records * n_dims * dtype.itemsize
        n_chunks = _crc_chunk_count(n_records, crc_chunk_records)
        frame.expect_size(_HEADER.size + data_nbytes
                          + n_chunks * _CRC_ITEM.size)
        table = frame.read_at(_HEADER.size + data_nbytes,
                              n_chunks * _CRC_ITEM.size)
    crcs = tuple(int(v) for v in np.frombuffer(table, dtype="<u4"))
    return RecordFileInfo(path=frame.path, n_records=n_records,
                          n_dims=n_dims, dtype=dtype, version=_VERSION,
                          data_offset=_HEADER.size,
                          crc_chunk_records=crc_chunk_records, crcs=crcs)
