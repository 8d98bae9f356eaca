"""Delta sources for streaming ingest.

A *delta* is one ordered batch of appended records: a ``(seq, block)``
pair where ``seq`` is a monotonically increasing sequence number and
``block`` an ``(n, d)`` float64 record block.  Sources slice an
existing corpus (an array or a ``datagen/stream.py``-written record
file) into deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..errors import DataError
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
