"""Per-rank span tracing.

A :class:`RankTracer` owns one rank's append-only span buffer.  The
driver brackets its work in :meth:`RankTracer.span` context managers;
each completed bracket appends one immutable :class:`Span` carrying the
wall clock (``time.perf_counter``), the rank's *virtual* clock (the
communicator's :meth:`~repro.parallel.comm.Comm.time` — 0.0 outside the
simulated-time backend), the nesting depth and free-form attributes.

Spans are recorded only as *complete* intervals (begin and end captured
by the same ``with`` block), so orphan ends are impossible by
construction; a block that raises still records its span, tagged with
an ``error`` attribute, which is how a crashed rank's partial progress
survives into the merged timeline.  Point events (injected faults,
checkpoint restores) are :meth:`RankTracer.instant` records.

The buffer is a plain Python list appended to by exactly one thread —
the rank's driver thread — so no lock is taken on the hot path.

Export: :func:`write_chrome_trace` emits the Chrome ``trace_event``
JSON format (load in ``chrome://tracing`` or https://ui.perfetto.dev);
ranks appear as threads of one process, virtual timestamps ride along
in each event's ``args``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

#: span kinds
COMPLETE = "complete"
INSTANT = "instant"


@dataclass(frozen=True)
class Span:
    """One recorded interval (or point event) on one rank.

    ``begin`` / ``end`` are wall seconds (``perf_counter`` — only
    differences are meaningful); ``vbegin`` / ``vend`` are the rank's
    virtual-clock seconds at the same two moments (both 0.0 outside the
    simulated-time backend).  ``depth`` is the tracer's nesting depth
    *outside* this span.  For ``kind == "instant"`` begin equals end.
    """

    name: str
    cat: str
    rank: int
    begin: float
    end: float
    vbegin: float
    vend: float
    depth: int
    kind: str = COMPLETE
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.begin

    @property
    def ok(self) -> bool:
        """False when the traced block raised (``error`` attribute)."""
        return "error" not in self.attrs


class RankTracer:
    """One rank's span buffer plus its wall and virtual clocks.

    Single-writer: only the rank's own driver thread may record.
    ``clock`` supplies virtual timestamps (pass the communicator's
    bound ``time`` method); ``None`` pins virtual time to 0.0.
    """

    def __init__(self, rank: int,
                 clock: Callable[[], float] | None = None) -> None:
        self.rank = rank
        self._clock = clock if clock is not None else _zero_clock
        self.spans: list[Span] = []
        self._depth = 0

    @contextmanager
    def span(self, name: str, cat: str = "task",
             **attrs: Any) -> Iterator[dict[str, Any]]:
        """Record the block as one complete span.  Yields the span's
        attribute dict, which the block may extend with values known
        only mid-flight; a raising block is recorded with an ``error``
        attribute naming the exception type."""
        out_attrs = dict(attrs)
        begin = time.perf_counter()
        vbegin = self._clock()
        self._depth += 1
        try:
            yield out_attrs
        except BaseException as exc:
            out_attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            self._depth -= 1
            self.spans.append(Span(
                name=name, cat=cat, rank=self.rank,
                begin=begin, end=time.perf_counter(),
                vbegin=vbegin, vend=self._clock(),
                depth=self._depth, attrs=out_attrs))

    def instant(self, name: str, cat: str = "event",
                **attrs: Any) -> None:
        """Record a point event at the current clocks."""
        now = time.perf_counter()
        vnow = self._clock()
        self.spans.append(Span(
            name=name, cat=cat, rank=self.rank,
            begin=now, end=now, vbegin=vnow, vend=vnow,
            depth=self._depth, kind=INSTANT, attrs=dict(attrs)))


def _zero_clock() -> float:
    return 0.0


# -- crash-surviving session registry ----------------------------------

_sessions_lock = threading.Lock()
_sessions: list["ObsSession"] = []


class ObsSession:
    """Collects every per-rank observer created while the session is
    open — including observers whose rank later crashed, whose buffers
    would otherwise be lost with the failed run.  Thread-safe; spans
    are read only after the observed runs have ended."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._observers: list[Any] = []

    def _add(self, obs: Any) -> None:
        with self._lock:
            self._observers.append(obs)

    @property
    def observers(self) -> list[Any]:
        with self._lock:
            return list(self._observers)

    def merged_spans(self) -> list[Span]:
        """All spans from every registered observer, merged into one
        begin-ordered timeline (per-rank relative order preserved for
        equal begin times by the stable sort)."""
        spans: list[Span] = []
        for obs in self.observers:
            tracer = getattr(obs, "tracer", None)
            if tracer is not None:
                spans.extend(tracer.spans)
        spans.sort(key=lambda s: (s.begin, s.rank))
        return spans


@contextmanager
def obs_session() -> Iterator[ObsSession]:
    """Open a session that captures every observer created inside the
    block — the merged timeline then includes ranks that crashed.
    Observers register only in the creating process, so the process
    backend's children are not captured (use the thread backend when a
    test needs a crashed rank's trace)."""
    session = ObsSession()
    with _sessions_lock:
        _sessions.append(session)
    try:
        yield session
    finally:
        with _sessions_lock:
            _sessions.remove(session)


def register_observer(obs: Any) -> None:
    """Hand a freshly created observer to every open session."""
    with _sessions_lock:
        sessions = list(_sessions)
    for session in sessions:
        session._add(obs)


# -- integrity checks ---------------------------------------------------

def check_rank_spans(spans: Sequence[Span]) -> list[str]:
    """Validate one rank's spans *in recorded order*.  Returns human-
    readable violations (empty when clean): every interval must satisfy
    begin <= end on both clocks, the rank's clocks must be monotone in
    record order (complete spans record at their *end*), and complete
    spans must nest properly — any two either disjoint or contained.
    """
    problems: list[str] = []
    last_end = last_vend = float("-inf")
    by_rank = {s.rank for s in spans}
    if len(by_rank) > 1:
        problems.append(f"spans from multiple ranks {sorted(by_rank)} — "
                        "check one rank's buffer at a time")
    for s in spans:
        if s.begin > s.end:
            problems.append(f"{s.name}: begin {s.begin} > end {s.end}")
        if s.vbegin > s.vend:
            problems.append(
                f"{s.name}: vbegin {s.vbegin} > vend {s.vend}")
        if s.end < last_end:
            problems.append(
                f"{s.name}: wall clock ran backwards "
                f"({s.end} after {last_end})")
        if s.vend < last_vend:
            problems.append(
                f"{s.name}: virtual clock ran backwards "
                f"({s.vend} after {last_vend})")
        last_end, last_vend = s.end, s.vend
    # nesting: process complete spans as an interval stack
    complete = sorted((s for s in spans if s.kind == COMPLETE),
                      key=lambda s: (s.begin, -s.end))
    stack: list[Span] = []
    for s in complete:
        while stack and stack[-1].end <= s.begin:
            stack.pop()
        if stack and s.end > stack[-1].end:
            problems.append(
                f"{s.name} [{s.begin}, {s.end}] straddles the end of "
                f"enclosing {stack[-1].name} "
                f"[{stack[-1].begin}, {stack[-1].end}]")
        stack.append(s)
    return problems


def check_spans_by_rank(spans: Iterable[Span]) -> list[str]:
    """Run :func:`check_rank_spans` per rank on a mixed collection
    (e.g. a begin-ordered merged timeline).

    Spans are recorded at block *exit*, so a rank's record order is its
    end order — a begin-sorted merge interleaves an enclosing span
    before its children.  Each rank's spans are therefore re-sorted by
    ``(end, begin)`` to reconstruct record order before checking.
    """
    per_rank: dict[int, list[Span]] = {}
    for s in spans:
        per_rank.setdefault(s.rank, []).append(s)
    problems: list[str] = []
    for rank in sorted(per_rank):
        ordered = sorted(per_rank[rank], key=lambda s: (s.end, s.begin))
        problems.extend(f"rank {rank}: {p}"
                        for p in check_rank_spans(ordered))
    return problems


# -- Chrome trace_event export ------------------------------------------

def chrome_trace_events(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Spans as Chrome ``trace_event`` dicts: ranks are threads of one
    process, timestamps are microseconds since the earliest span."""
    spans = list(spans)
    t0 = min((s.begin for s in spans), default=0.0)
    events: list[dict[str, Any]] = []
    for rank in sorted({s.rank for s in spans}):
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": rank, "args": {"name": f"rank {rank}"}})
    for s in spans:
        args = {k: _jsonable(v) for k, v in s.attrs.items()}
        args["vbegin_s"] = s.vbegin
        args["vend_s"] = s.vend
        event: dict[str, Any] = {
            "name": s.name, "cat": s.cat, "pid": 0, "tid": s.rank,
            "ts": (s.begin - t0) * 1e6, "args": args,
        }
        if s.kind == INSTANT:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = (s.end - s.begin) * 1e6
        events.append(event)
    return events


def write_chrome_trace(path: str | Path,
                       spans: Iterable[Span]) -> Path:
    """Write spans as a Chrome ``trace_event`` JSON object file."""
    path = Path(path)
    doc = {"traceEvents": chrome_trace_events(spans),
           "displayTimeUnit": "ms"}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    return repr(value)
