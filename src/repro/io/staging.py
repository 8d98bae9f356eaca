"""Shared-disk to local-disk staging.

On the paper's SP2 "each processor reads a portion of the data from a
shared disk initially and keeps it on the local disk" because local-disk
bandwidth is much higher (§4).  :func:`stage_local` reproduces that step:
rank ``r`` copies its block of the shared record file into a private
local record file, which all subsequent passes read.

The paper excludes the shared-disk (NFS) read time from its measurements
(§5.2), so staging charges nothing to the virtual clock.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..parallel.comm import Comm
from .partition import block_range
from .records import RecordFile, write_records


def local_path(shared: str | os.PathLike, rank: int,
               local_dir: str | os.PathLike | None = None) -> Path:
    """Path of rank ``rank``'s local copy of ``shared``."""
    shared = Path(shared)
    directory = Path(local_dir) if local_dir is not None else shared.parent
    return directory / f"{shared.stem}.rank{rank}{shared.suffix or '.bin'}"


def stage_local(comm: Comm, shared: str | os.PathLike,
                local_dir: str | os.PathLike | None = None) -> RecordFile:
    """Copy this rank's N/p block of ``shared`` onto "local disk".

    Returns a handle on the rank-private record file.  The copy is
    republished on every call, so it always holds the shared file's
    current records; nothing derived from it outlives the run.
    """
    source = RecordFile(shared)
    start, stop = block_range(source.n_records, comm.size, comm.rank)
    return write_records(local_path(shared, comm.rank, local_dir),
                         source.read_block(start, stop))
