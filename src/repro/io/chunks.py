"""Chunked data sources.

The algorithms make k passes over their local data "in chunks of B
records" (Algorithm 2).  They are written against the small
:class:`DataSource` protocol so the same code runs out-of-core from a
:class:`~repro.io.records.RecordFile` or in-memory from an
:class:`ArraySource`; :func:`charged_chunks` threads the pass through the
communicator's I/O cost hook so the simulated-time backend sees every
block read.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from ..errors import DataError
from ..parallel.comm import Comm
from .resilient import RetryPolicy, read_with_retry


@runtime_checkable
class DataSource(Protocol):
    """Anything the out-of-core passes can read records from."""

    @property
    def n_records(self) -> int: ...

    @property
    def n_dims(self) -> int: ...

    def iter_chunks(self, chunk_records: int, start: int = 0,
                    stop: int | None = None) -> Iterator[np.ndarray]:
        """Yield ``(rows, d)`` blocks of at most ``chunk_records``
        records covering ``[start, stop)``."""
        ...


class ArraySource:
    """An in-memory ``(n, d)`` array exposed as a :class:`DataSource`."""

    def __init__(self, records: np.ndarray) -> None:
        # already-float64 input must be wrapped without a copy (callers
        # hand in multi-GB blocks); only foreign dtypes convert
        records = np.asarray(records)
        if records.dtype != np.float64:
            records = records.astype(np.float64)
        if records.ndim != 2:
            raise DataError(f"records must be 2-D, got shape {records.shape}")
        if records.shape[1] == 0:
            raise DataError("records must have at least one dimension")
        self._records = records

    @property
    def n_records(self) -> int:
        return int(self._records.shape[0])

    @property
    def n_dims(self) -> int:
        return int(self._records.shape[1])

    @property
    def records(self) -> np.ndarray:
        return self._records

    def read_block(self, start: int, stop: int) -> np.ndarray:
        """A view of records ``[start, stop)`` (no copy)."""
        if not 0 <= start <= stop <= self.n_records:
            raise DataError(
                f"block [{start}, {stop}) out of range for "
                f"{self.n_records} records")
        return self._records[start:stop]

    def iter_chunks(self, chunk_records: int, start: int = 0,
                    stop: int | None = None) -> Iterator[np.ndarray]:
        """Yield array views of at most ``chunk_records`` rows."""
        if chunk_records <= 0:
            raise DataError(f"chunk_records must be positive, got {chunk_records}")
        stop = self.n_records if stop is None else stop
        if not 0 <= start <= stop <= self.n_records:
            raise DataError(
                f"range [{start}, {stop}) out of bounds for "
                f"{self.n_records} records")
        for lo in range(start, stop, chunk_records):
            yield self._records[lo:min(lo + chunk_records, stop)]


def as_source(data) -> DataSource:
    """Coerce an array or DataSource into a DataSource."""
    if isinstance(data, np.ndarray):
        return ArraySource(data)
    if isinstance(data, DataSource):
        return data
    raise DataError(f"cannot read records from {type(data).__name__}")


def _raw_blocks(read_block, fault_state, chunk_records: int, start: int,
                stop: int, retry: RetryPolicy | None,
                on_retry=None) -> Iterator[np.ndarray]:
    """The uncharged read loop: per-chunk fault hook plus retried
    ``read_block`` calls, shared by the charged passes and staging."""
    for index, lo in enumerate(range(start, stop, chunk_records)):
        hi = min(lo + chunk_records, stop)

        def attempt(lo: int = lo, hi: int = hi,
                    index: int = index) -> np.ndarray:
            if fault_state is not None:
                fault_state.on_chunk_read(index)
            return read_block(lo, hi)

        yield read_with_retry(attempt, retry, on_retry)


def charged_chunks(source: DataSource, comm: Comm, chunk_records: int,
                   start: int = 0, stop: int | None = None,
                   itemsize: int = 8,
                   retry: RetryPolicy | None = None) -> Iterator[np.ndarray]:
    """Iterate chunks while charging each block read to the rank's
    virtual I/O clock (one chunk access of ``rows * d * itemsize`` bytes).

    When the source exposes ``read_block`` (record files, in-memory
    arrays), every block is read through :func:`read_with_retry` so
    transient ``OSError`` s are retried with backoff under ``retry``;
    structural failures (bad header, :class:`~repro.errors.ChecksumError`
    corruption) fail fast.  The rank's fault state (if a
    :class:`~repro.parallel.faults.FaultPlan` is active) is consulted
    before each read so injected read errors exercise exactly this
    path.  Pure streaming sources without ``read_block`` cannot be
    re-read and fall back to plain iteration.

    When the rank has an observer attached (``comm.obs``), every chunk
    is also counted into its metrics registry (chunks / records /
    bytes, retries) — pure counting on top of the same
    values already charged, so virtual clocks are untouched.
    """
    obs = getattr(comm, "obs", None)
    read_block = getattr(source, "read_block", None)
    if read_block is None:
        chunks = source.iter_chunks(chunk_records, start, stop)
    else:
        if chunk_records <= 0:
            raise DataError(
                f"chunk_records must be positive, got {chunk_records}")
        stop = source.n_records if stop is None else stop
        if not 0 <= start <= stop <= source.n_records:
            raise DataError(
                f"range [{start}, {stop}) out of bounds for "
                f"{source.n_records} records")
        chunks = _raw_blocks(read_block, getattr(comm, "fault_state", None),
                             chunk_records, start, stop, retry,
                             obs.io_retry if obs is not None else None)
    for chunk in chunks:
        nbytes = chunk.shape[0] * chunk.shape[1] * itemsize
        comm.charge_io(nbytes, chunks=1)
        if obs is not None:
            obs.io_chunk(chunk.shape[0], nbytes, kind="records")
        yield chunk
