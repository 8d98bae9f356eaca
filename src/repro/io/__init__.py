"""Out-of-core I/O substrate: binary record files, chunked passes,
block partitioning of N over p ranks, shared→local disk staging, the
persistent membership bitmap index every population pass reads, and
(:mod:`repro.io.artifact`) the one publish / verify / quarantine path
every staged file goes through."""

from .bitmap_index import (DEFAULT_BITMAP_BUDGET, BitmapIndex,
                           bitmap_cache_path, build_bitmap_index,
                           grid_fingerprint, index_nbytes,
                           load_bitmap_cache, stage_bitmap_index)
from .chunks import ArraySource, DataSource, as_source, charged_chunks
from .partition import block_offsets, block_range
from .records import (DEFAULT_CRC_CHUNK_RECORDS, RecordFile, RecordFileInfo,
                      RecordFileWriter, read_header, write_records)
from .resilient import DEFAULT_RETRY, RetryPolicy, read_with_retry
from .staging import local_path, stage_local

__all__ = [
    "ArraySource",
    "BitmapIndex",
    "DEFAULT_BITMAP_BUDGET",
    "DEFAULT_CRC_CHUNK_RECORDS",
    "DEFAULT_RETRY",
    "DataSource",
    "RecordFile",
    "RecordFileInfo",
    "RecordFileWriter",
    "RetryPolicy",
    "as_source",
    "bitmap_cache_path",
    "block_offsets",
    "block_range",
    "build_bitmap_index",
    "charged_chunks",
    "grid_fingerprint",
    "index_nbytes",
    "load_bitmap_cache",
    "local_path",
    "read_header",
    "read_with_retry",
    "stage_bitmap_index",
    "stage_local",
    "write_records",
]
