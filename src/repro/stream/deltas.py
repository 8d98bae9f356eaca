"""Delta sources and the bounded hand-off queue for streaming ingest.

A *delta* is one ordered batch of appended records: a ``(seq, block)``
pair where ``seq`` is a monotonically increasing sequence number and
``block`` an ``(n, d)`` float64 record block.  Sources slice an
existing corpus (an array or a ``datagen/stream.py``-written record
file) into deltas; :class:`DeltaQueue` carries them from a producer
thread to the ingesting session with bounded memory (backpressure) and
explicit end-of-stream semantics.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..errors import DataError, StreamError
from ..io.records import RecordFile
from ..io.resilient import RetryPolicy, read_with_retry


@dataclass(frozen=True)
class Delta:
    """One ordered batch of appended records."""

    seq: int
    block: np.ndarray

    @property
    def n_records(self) -> int:
        return self.block.shape[0]


def _check_delta_records(delta_records: int) -> None:
    if delta_records <= 0:
        raise DataError(
            f"delta_records must be positive, got {delta_records}")


class BlockDeltaSource:
    """Slice an in-memory ``(n, d)`` array into ordered deltas.

    Deltas are numbered ``first_seq, first_seq + 1, ...`` in record
    order, so replaying the source into a session reproduces the array
    exactly.
    """

    def __init__(self, records: np.ndarray, delta_records: int, *,
                 first_seq: int = 0) -> None:
        _check_delta_records(delta_records)
        records = np.ascontiguousarray(records, dtype=np.float64)
        if records.ndim != 2:
            raise DataError(f"records must be 2-D, got {records.ndim}-D")
        self.records = records
        self.delta_records = int(delta_records)
        self.first_seq = int(first_seq)

    @property
    def n_dims(self) -> int:
        return self.records.shape[1]

    def __iter__(self) -> Iterator[Delta]:
        n = self.records.shape[0]
        for i, lo in enumerate(range(0, n, self.delta_records)):
            hi = min(lo + self.delta_records, n)
            yield Delta(seq=self.first_seq + i,
                        block=self.records[lo:hi])


class RecordDeltaSource:
    """Slice a record file (e.g. one written by
    :func:`repro.datagen.stream.generate_to_file`) into ordered deltas.

    Each block read is CRC-verified and retried under ``retry`` —
    transient ``OSError`` s are absorbed with backoff (``on_retry``
    fires once per absorbed failure, for ``io.read_retries``-style
    accounting), while corruption propagates immediately.
    """

    def __init__(self, path, delta_records: int, *,
                 first_seq: int = 0, retry: RetryPolicy | None = None,
                 on_retry: Callable[[], None] | None = None) -> None:
        _check_delta_records(delta_records)
        self.file = RecordFile(path)
        self.delta_records = int(delta_records)
        self.first_seq = int(first_seq)
        self.retry = retry
        self.on_retry = on_retry

    @property
    def n_dims(self) -> int:
        return self.file.n_dims

    def __iter__(self) -> Iterator[Delta]:
        n = self.file.n_records
        for i, lo in enumerate(range(0, n, self.delta_records)):
            hi = min(lo + self.delta_records, n)
            block = read_with_retry(
                lambda lo=lo, hi=hi: self.file.read_block(lo, hi),
                self.retry, self.on_retry)
            yield Delta(seq=self.first_seq + i,
                        block=np.ascontiguousarray(block,
                                                   dtype=np.float64))


class DeltaQueue:
    """Bounded FIFO hand-off between a delta producer and the session.

    ``put`` blocks while ``maxsize`` deltas are in flight — the
    producer is backpressured by a slow consumer instead of buffering
    the stream unboundedly.  ``close()`` marks end-of-stream: queued
    deltas still drain, then ``get`` returns ``None`` (and iteration
    stops).  ``put`` after ``close`` raises
    :class:`~repro.errors.StreamError`; so does a ``timeout`` expiry,
    making stuck producers/consumers fail loudly instead of hanging.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize <= 0:
            raise DataError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = int(maxsize)
        self._deltas: deque[Delta] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def qsize(self) -> int:
        """Deltas queued and not yet taken by ``get``."""
        with self._lock:
            return len(self._deltas)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put(self, delta: Delta, timeout: float | None = None) -> None:
        """Enqueue ``delta``, blocking while the queue is full."""
        with self._not_full:
            while len(self._deltas) >= self.maxsize and not self._closed:
                if not self._not_full.wait(timeout):
                    raise StreamError(
                        f"put timed out after {timeout}s: queue full "
                        f"({self.maxsize} deltas) and no consumer progress")
            if self._closed:
                raise StreamError("put on a closed delta queue")
            self._deltas.append(delta)
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> Delta | None:
        """Next delta in order, or ``None`` at end-of-stream."""
        with self._not_empty:
            while not self._deltas and not self._closed:
                if not self._not_empty.wait(timeout):
                    raise StreamError(
                        f"get timed out after {timeout}s: queue empty "
                        "and the producer made no progress")
            if self._deltas:
                delta = self._deltas.popleft()
                self._not_full.notify()
                return delta
            return None  # closed and drained

    def close(self) -> None:
        """Mark end-of-stream (idempotent); queued deltas still drain."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def __iter__(self) -> Iterator[Delta]:
        while True:
            delta = self.get()
            if delta is None:
                return
            yield delta
