"""Incremental streaming clustering over a sliding record window.

The package turns the cold batch pipeline into a long-running service:
:class:`~repro.stream.engine.StreamingSession` ingests ordered record
deltas, maintains the per-dimension fine histogram and a ring of the
live records' fine codes in place, expires aged-out records, and serves
:meth:`~repro.stream.engine.StreamingSession.snapshot` — a clustering
of the live window that is **bit-identical** to a cold batch run over
exactly the live records (the differential oracle enforced by
``tests/test_stream_conformance.py``).  See ``docs/STREAMING.md``.
"""

from .deltas import BlockDeltaSource, Delta, RecordDeltaSource
from .engine import DEFAULT_COMPACT_SEGMENTS, StreamingSession
from .soak import pairs_examined, result_fingerprint, run_soak
from .window import SlidingWindow, WindowSegment

__all__ = [
    "BlockDeltaSource",
    "DEFAULT_COMPACT_SEGMENTS",
    "Delta",
    "RecordDeltaSource",
    "SlidingWindow",
    "StreamingSession",
    "WindowSegment",
    "pairs_examined",
    "result_fingerprint",
    "run_soak",
]
