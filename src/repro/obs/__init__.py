"""Observability: per-rank tracing and metrics for (p)MAFIA runs.

The subsystem is strictly read-only with respect to the algorithm: it
reads the wall clock and the rank's virtual clock, counts what already
happened, and never sends a message or charges the cost model — so
clusters, CDU tables and simulated runtimes are bit-identical with
observability on or off (the conformance property asserted by
``tests/test_observability.py``).

Entry points
------------
* ``MafiaParams(trace=True, metrics=True)`` — the driver creates one
  :class:`RankObs` per rank and threads it through the communicator,
  the I/O layer and the level loop.
* :class:`RankObs` — the per-rank bundle: a
  :class:`~repro.obs.trace.RankTracer` (spans), a
  :class:`~repro.obs.metrics.MetricsRegistry` (counters/gauges/
  histograms), and the instrumentation hooks the library calls.
* ``ClusteringResult.obs`` / ``PMafiaRun.obs`` — the exported
  :class:`RankObsData` / :class:`RunObs` (picklable, survives the
  process backend).
* :func:`~repro.obs.trace.obs_session` — capture observers across
  crashed attempts (fault-injection tests).
* :func:`write_chrome_trace` / :func:`write_metrics_snapshot` /
  :func:`~repro.obs.manifest.write_manifest` — file exports (the CLI's
  ``--trace-out`` / ``--metrics-out``).

See ``docs/OBSERVABILITY.md`` for the span and metric catalogue.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from ..parallel.simtime import payload_nbytes
from . import trace as _trace
from .metrics import MetricsRegistry, merge_snapshots
from .trace import (ObsSession, RankTracer, Span, check_rank_spans,
                    check_spans_by_rank, obs_session, write_chrome_trace)

__all__ = [
    "ObsSession",
    "RankObs",
    "RankObsData",
    "RankTracer",
    "RunObs",
    "Span",
    "as_run_obs",
    "check_rank_spans",
    "check_spans_by_rank",
    "obs_session",
    "serve_summary",
    "write_chrome_trace",
    "write_metrics_snapshot",
]


class RankObs:
    """One rank's observer: tracer + metrics + the hooks the library
    calls.  Created by the driver when ``params.trace`` or
    ``params.metrics`` is set; either half may be ``None`` when its
    knob is off, and every hook degrades to (nearly) nothing."""

    def __init__(self, rank: int, *, trace: bool = True,
                 metrics: bool = True,
                 clock: Callable[[], float] | None = None) -> None:
        self.rank = rank
        self.tracer = RankTracer(rank, clock) if trace else None
        self.metrics = MetricsRegistry() if metrics else None
        self._collective_depth = 0
        _trace.register_observer(self)

    @classmethod
    def create(cls, params: Any, comm: Any) -> "RankObs | None":
        """The rank observer ``params`` asks for, or ``None`` when both
        knobs are off (the zero-cost path)."""
        want_trace = bool(getattr(params, "trace", False))
        want_metrics = bool(getattr(params, "metrics", False))
        if not (want_trace or want_metrics):
            return None
        return cls(comm.rank, trace=want_trace, metrics=want_metrics,
                   clock=comm.time)

    # -- driver wiring --------------------------------------------------
    @contextmanager
    def activate(self, comm: Any) -> Iterator["RankObs"]:
        """Attach this observer for the duration of a run: the
        communicator's collectives and the rank's fault state report
        here."""
        comm.obs = self
        fault_state = getattr(comm, "fault_state", None)
        if fault_state is not None:
            fault_state.observer = self
        try:
            yield self
        finally:
            if fault_state is not None:
                fault_state.observer = None
            comm.obs = None

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str, cat: str = "task",
             **attrs: Any) -> Iterator[dict[str, Any] | None]:
        """A traced interval around the ``with`` body; yields its
        mutable attribute dict (``None`` when tracing is off)."""
        if self.tracer is None:
            yield None
            return
        with self.tracer.span(name, cat, **attrs) as span_attrs:
            yield span_attrs

    def instant(self, name: str, cat: str = "event",
                **attrs: Any) -> None:
        """A zero-length trace event (a no-op when tracing is off)."""
        if self.tracer is not None:
            self.tracer.instant(name, cat, **attrs)

    # -- communicator hook ----------------------------------------------
    @contextmanager
    def collective(self, op: str, payload: Any) -> Iterator[None]:
        """Record one collective call: a ``comm`` span (wall + virtual
        interval) and byte/count metrics.  Collectives compose (an
        allreduce runs an allgather runs gather+bcast), so only the
        outermost call records — inner calls are the wire pattern of
        the outer one, not separate operations."""
        if self._collective_depth:
            self._collective_depth += 1
            try:
                yield
            finally:
                self._collective_depth -= 1
            return
        self._collective_depth = 1
        nbytes = payload_nbytes(payload)
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span(op, cat="comm", op=op,
                                      nbytes=nbytes):
                    yield
        finally:
            self._collective_depth = 0
            if self.metrics is not None:
                self.metrics.counter("comm.collectives", op=op).inc()
                self.metrics.counter("comm.bytes", op=op).inc(nbytes)
                self.metrics.histogram("comm.payload_nbytes",
                                       op=op).observe(nbytes)

    # -- I/O hooks -------------------------------------------------------
    def io_chunk(self, rows: int, nbytes: int,
                 kind: str = "records") -> None:
        """One chunk of a pass: a record read (``records``) or the
        replayed charge of an index-served level pass (``indexed``)."""
        if self.metrics is not None:
            self.metrics.counter("io.chunks_read", kind=kind).inc()
            self.metrics.counter("io.records_read", kind=kind).inc(rows)
            self.metrics.counter("io.bytes_read", kind=kind).inc(nbytes)

    def io_retry(self) -> None:
        """One transient read failure absorbed by the retry loop."""
        if self.metrics is not None:
            self.metrics.counter("io.read_retries").inc()

    # -- bitmap-index hooks ----------------------------------------------
    def bitmap_index_built(self, n_pairs: int, nbytes: int,
                           resident: bool) -> None:
        """The rank's bitmap index finished staging — records whether
        the byte budget kept it resident or spilled it to a scratch
        tile file."""
        self.instant("bitmap_index_built", cat="io", n_pairs=n_pairs,
                     nbytes=nbytes, resident=resident)
        if self.metrics is not None:
            self.metrics.gauge("index.pairs").set(n_pairs)
            self.metrics.gauge("index.nbytes").set(nbytes)
            self.metrics.gauge("index.resident").set(int(resident))
            if not resident:
                self.metrics.counter("index.spills").inc()

    def indexed_pass(self, units: int, and_ops: int) -> None:
        """One level pass served from the bitmap index: CDUs counted
        and bitmap ANDs executed."""
        if self.metrics is not None:
            self.metrics.counter("index.units_counted").inc(units)
            self.metrics.counter("index.and_ops").inc(and_ops)

    # -- lattice hooks ---------------------------------------------------
    def add_pairs(self, stage: str, pairs: float) -> None:
        """Unit-pair comparisons, mirroring ``comm.charge_pairs`` calls
        exactly (``stage`` is ``join`` or ``dedup``), so the metric
        reconciles with the sim backend's ``unit_pair_ops``."""
        if self.metrics is not None:
            self.metrics.counter(f"{stage}.pairs_examined").inc(pairs)

    def level_stats(self, level: int, raw: int, cdus: int,
                    dense: int) -> None:
        """Per-level lattice sizes: CDUs as generated, after repeat
        elimination, and found dense."""
        if self.metrics is not None:
            label = str(level)
            self.metrics.counter("lattice.cdus_raw", level=label).inc(raw)
            self.metrics.counter("lattice.cdus", level=label).inc(cdus)
            self.metrics.counter("lattice.dense", level=label).inc(dense)

    # -- checkpoint / fault hooks ---------------------------------------
    def checkpoint_saved(self, level: int, nbytes: int) -> None:
        """One level checkpoint written: save and byte counters."""
        if self.metrics is not None:
            self.metrics.counter("checkpoint.saves").inc()
            self.metrics.counter("checkpoint.bytes").inc(nbytes)

    def checkpoint_restored(self, level: int) -> None:
        """A run resumed from a level checkpoint: a trace instant and
        the restore counter."""
        self.instant("checkpoint_restored", cat="checkpoint", level=level)
        if self.metrics is not None:
            self.metrics.counter("checkpoint.restores").inc()

    def fault_event(self, kind: str, **attrs: Any) -> None:
        """An injected fault fired on this rank (crash, read error,
        message drop/delay) — lands in the same trace as real work."""
        self.instant(f"fault.{kind}", cat="fault", **attrs)
        if self.metrics is not None:
            self.metrics.counter("faults.injected", kind=kind).inc()

    # -- serving hooks ----------------------------------------------------
    def serve_batch(self, n_records: int, seconds: float, *,
                    hits: int, misses: int, evaluated: int,
                    bypassed: bool) -> None:
        """One scored batch from the serving engine: records answered,
        signature-cache hits/misses at record granularity, distinct
        signatures actually evaluated, and whether the batch bypassed
        the cache probe (mostly-novel traffic).  The ``score_batch``
        span itself is recorded by the server around the evaluation;
        this hook lands the metrics half."""
        if self.metrics is None:
            return
        self.metrics.counter("serve.batches").inc()
        self.metrics.counter("serve.records").inc(n_records)
        self.metrics.counter("serve.cache_hits").inc(hits)
        self.metrics.counter("serve.cache_misses").inc(misses)
        self.metrics.counter("serve.evaluations").inc(evaluated)
        if bypassed:
            self.metrics.counter("serve.cache_bypasses").inc()
        self.metrics.gauge("serve.batch_size").set(n_records)
        self.metrics.histogram("serve.batch_records").observe(n_records)
        self.metrics.histogram("serve.batch_latency_us").observe(
            seconds * 1e6)

    # -- streaming hooks --------------------------------------------------
    def stream_ingest(self, seq: int, n_records: int,
                      seconds: float) -> None:
        """One delta applied to a streaming session: records appended,
        the sequence number it carried, and the wall time of the apply
        (bin + expiry + histogram update)."""
        if self.metrics is None:
            return
        self.metrics.counter("stream.deltas").inc()
        self.metrics.counter("stream.records_ingested").inc(n_records)
        self.metrics.gauge("stream.last_seq").set(seq)
        self.metrics.histogram("stream.ingest_latency_us").observe(
            seconds * 1e6)

    def stream_expired(self, n_records: int) -> None:
        """Records aged out of the sliding window by an ingest."""
        if self.metrics is not None:
            self.metrics.counter("stream.records_expired").inc(n_records)

    def stream_snapshot(self, n_live: int, seconds: float) -> None:
        """One window snapshot: live records clustered and its wall
        time."""
        if self.metrics is None:
            return
        self.metrics.counter("stream.snapshots").inc()
        self.metrics.gauge("stream.live_records").set(n_live)
        self.metrics.histogram("stream.snapshot_latency_us").observe(
            seconds * 1e6)

    # -- export ----------------------------------------------------------
    def phase_seconds(self) -> dict[str, float]:
        """Wall seconds per driver phase, from this rank's spans."""
        return _phase_seconds(self.tracer.spans
                              if self.tracer is not None else ())

    def export(self) -> "RankObsData":
        """Freeze the buffers into a picklable per-rank record."""
        return RankObsData(
            rank=self.rank,
            spans=tuple(self.tracer.spans)
            if self.tracer is not None else (),
            metrics=self.metrics.snapshot()
            if self.metrics is not None else None)


@dataclass(frozen=True)
class RankObsData:
    """One rank's frozen observability output: its span buffer in
    record order and its metrics snapshot (either may be empty/None
    when the corresponding knob was off)."""

    rank: int
    spans: tuple[Span, ...]
    metrics: dict[str, dict[str, Any]] | None

    def phase_seconds(self) -> dict[str, float]:
        """Wall seconds per driver phase, from this rank's spans."""
        return _phase_seconds(self.spans)

    def check(self) -> list[str]:
        """Span-integrity violations for this rank (empty when clean)."""
        return check_rank_spans(self.spans)


@dataclass(frozen=True)
class RunObs:
    """A whole run's observability: one :class:`RankObsData` per rank."""

    ranks: tuple[RankObsData, ...]

    def merged_spans(self) -> list[Span]:
        """All ranks' spans on one begin-ordered timeline (stable, so
        each rank's relative record order survives)."""
        spans = [s for r in self.ranks for s in r.spans]
        spans.sort(key=lambda s: (s.begin, s.rank))
        return spans

    def merged_metrics(self) -> dict[str, Any]:
        """Per-rank snapshots plus the cross-rank total."""
        per_rank = {str(r.rank): r.metrics for r in self.ranks}
        total = merge_snapshots(r.metrics for r in self.ranks
                                if r.metrics is not None)
        return {"per_rank": per_rank, "total": total}

    def phase_seconds(self) -> dict[str, float]:
        """Wall seconds per driver phase, summed across ranks."""
        out: dict[str, float] = {}
        for r in self.ranks:
            for name, secs in r.phase_seconds().items():
                out[name] = out.get(name, 0.0) + secs
        return out

    def check(self) -> list[str]:
        """Span-integrity violations across all ranks."""
        problems: list[str] = []
        for r in self.ranks:
            problems.extend(f"rank {r.rank}: {p}" for p in r.check())
        return problems


def _phase_seconds(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in spans:
        if s.cat == "phase" and s.kind == _trace.COMPLETE:
            out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def as_run_obs(obj: Any) -> RunObs | None:
    """Coerce a :class:`RunObs`, ``PMafiaRun`` or ``ClusteringResult``
    into the run-level view (``None`` when observability was off)."""
    if obj is None or isinstance(obj, RunObs):
        return obj
    if isinstance(obj, RankObsData):
        return RunObs(ranks=(obj,))
    inner = getattr(obj, "obs", None)
    if inner is obj:
        return None
    return as_run_obs(inner)


def serve_summary(obs: Any) -> dict[str, Any] | None:
    """The serving half of an observer's metrics, flattened to one
    JSON-ready dict (``None`` when no ``serve.*`` metric was ever
    recorded — e.g. metrics off, or the observer never served).

    Counters come through as plain numbers; the latency histogram is
    summarised as count / total / min / max / mean microseconds."""
    run = as_run_obs(obs)
    if run is None:
        if isinstance(obs, RankObs):
            run = RunObs(ranks=(obs.export(),))
        else:
            return None
    total = run.merged_metrics()["total"]
    out: dict[str, Any] = {}
    for name in ("serve.batches", "serve.records", "serve.cache_hits",
                 "serve.cache_misses", "serve.evaluations",
                 "serve.cache_bypasses"):
        entry = total.get(name)
        if entry is not None:
            out[name.split(".", 1)[1]] = entry["value"]
    lat = total.get("serve.batch_latency_us")
    if lat is not None and lat["count"]:
        out["latency_us"] = {
            "count": lat["count"], "total": lat["sum"],
            "min": lat["min"], "max": lat["max"],
            "mean": lat["sum"] / lat["count"],
        }
    return out or None


def write_metrics_snapshot(path: str | Path, obs: Any) -> Path:
    """Write the merged metrics of a run (or single rank) as JSON."""
    run = as_run_obs(obs)
    if run is None:
        raise ValueError("no observability data to write "
                         "(was metrics/trace enabled?)")
    path = Path(path)
    path.write_text(json.dumps(run.merged_metrics(), indent=2,
                               sort_keys=True) + "\n")
    return path
