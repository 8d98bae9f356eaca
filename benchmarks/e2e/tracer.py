"""Spans recorded from outside the program, around its layer entry points.

The benchmark never edits ``src/``: a :class:`Tracer` replaces the names
callers bind (module globals such as ``repro.core.pmafia.populate_global``
and class attributes such as ``StreamingSession._join``) with thin
wrappers that record a span, then restores the originals.  Spans live in
memory as ``(name, start, end, parent, op)`` and are written out as a
Chrome ``trace_event`` file after the run.

Only the thread that opened an :meth:`Tracer.op` records spans; worker
threads (the sim backend's ranks, the population overlap worker) call
straight through, so self times stay sequential and additive.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped name: ``owner`` is ``"pkg.module"`` or
    ``"pkg.module:Class"``; self time accrues to ``timer``; ``hook``, when
    given, sees ``(counts, args, kwargs, result)`` after each traced call."""

    owner: str
    attr: str
    timer: str
    hook: Callable[..., None] | None = None

    @property
    def name(self) -> str:
        module, _, cls = self.owner.partition(":")
        return f"{cls or module.rsplit('.', 1)[-1]}.{self.attr}"

    def resolve(self) -> Any:
        module, _, cls = self.owner.partition(":")
        target = importlib.import_module(module)
        return getattr(target, cls) if cls else target


class Tracer:
    """In-memory span recorder over a fixed set of entry points.

    An entry point the program no longer has is listed in ``missing``
    rather than fatal: its time then shows up as lost coverage."""

    def __init__(self, entry_points: list[EntryPoint]) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.timers: dict[str, str] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.n_ops = 0
        self._local = threading.local()
        self._patches = []
        for ep in entry_points:
            try:
                owner = ep.resolve()
                original = getattr(owner, ep.attr)
            except (ImportError, AttributeError):
                self.missing.append(ep.name)
                continue
            self._patches.append((owner, ep.attr, original,
                                  self._wrap(original, ep)))
            self.timers[ep.name] = ep.timer

    def _stack(self) -> list[int] | None:
        return getattr(self._local, "stack", None)

    def _wrap(self, fn: Callable, ep: EntryPoint) -> Callable:
        spans, counts, name, hook = self.spans, self.counts, ep.name, ep.hook

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if not stack:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.n_ops)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap every wrapper in for the duration of the block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    @contextmanager
    def op(self, name: str):
        """One user-level operation: the root span its layer spans hang
        off, with the wrappers installed while it runs."""
        sid = len(self.spans)
        self.spans.append(None)
        self._local.stack = [sid]
        with self.installed():
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self._local.stack = None
                self.spans[sid] = (name, start, end, -1, self.n_ops)
                self.n_ops += 1

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus its direct children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def timer_seconds(self) -> dict[str, float]:
        """Self seconds summed per timer (root op spans excluded)."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[3] >= 0:
                out[self.timers[span[0]]] += own
        return dict(out)

    def coverage(self) -> float:
        """Share of traced op wall time attributed to some layer."""
        own = self.self_times()
        wall = unattributed = 0.0
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent < 0:
                wall += end - start
                unattributed += own[i]
        return 1.0 - unattributed / wall if wall > 0 else 0.0

    def largest_gap(self) -> tuple[str, float]:
        """The biggest stretch of op time no layer span covers, summed
        over ops by the pair of spans around it."""
        children: dict[int, list[tuple[float, float, str]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][3] < 0:
                children[parent].append((start, end, name))
        gaps: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                continue
            cursor, before = start, f"start of {name}"
            for c_start, c_end, c_name in sorted(children[i]):
                gaps[f"{before} -> {c_name}"] += c_start - cursor
                cursor, before = c_end, c_name
            gaps[f"{before} -> end of {name}"] += end - cursor
        if not gaps:
            return "no traced ops", 0.0
        where = max(gaps, key=gaps.get)
        return where, gaps[where]

    def children_named(self, parent_name: str, child_name: str
                       ) -> tuple[int, int]:
        """``(calls of parent_name, those with a direct child_name)`` —
        how often a memoised entry point actually recomputed."""
        hit_parents = {p for name, _, _, p, _ in self.spans
                       if name == child_name and p >= 0}
        calls = recomputed = 0
        for i, span in enumerate(self.spans):
            if span[0] == parent_name:
                calls += 1
                recomputed += i in hit_parents
        return calls, recomputed

    def write_chrome(self, path) -> None:
        """Chrome ``trace_event`` JSON (open in chrome://tracing or
        Perfetto); one ``X`` event per span, timestamps in microseconds."""
        base = min((s[1] for s in self.spans), default=0.0)
        events = [{
            "name": name, "ph": "X", "pid": 0, "tid": 0,
            "cat": self.timers.get(name, "op"),
            "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
            "args": {"id": i, "parent": parent, "op": op},
        } for i, (name, start, end, parent, op) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
