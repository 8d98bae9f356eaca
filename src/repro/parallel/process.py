"""Multi-process SPMD backend.

The thread backend shares one GIL, so on a multi-core machine it cannot
give real wall-clock speedup for the numpy-heavy passes.  This backend
runs each rank in its own OS process — genuine parallelism — with the
same :class:`~repro.parallel.comm.Comm` semantics: per-destination
multiprocessing queues carry ``(source, tag, payload)`` messages, and a
receiver-side stash re-orders them per (source, tag) stream.

The rank function and its arguments must be picklable (module-level
functions like :func:`repro.core.pmafia.pmafia_rank` are); for large
data sets pass a record-file *path* rather than an array so each rank
stages its own block from disk instead of pickling N×d floats through
the queue.

Large numeric ndarrays (CDU histograms, flag vectors) take a buffer
fast path instead of the pickler: the sender copies the raw bytes into
a POSIX shared-memory segment and ships only a tiny
:class:`_ShmRef` descriptor through the queue; the receiver attaches,
copies out and unlinks.  The payload therefore crosses the queue
without ever being pickled, at any nesting depth the collectives use
(gather lists, tree ``(vrank, obj)`` tuples, scatter dicts — the same
path serves flat and tree strategies).  ``Comm.serialized_arrays``
counts ndarrays that still went through the pickler, as a test hook.

Failure semantics: any child failure makes the parent terminate the
surviving processes and raise.  A child that raises reports its error
through the result queue.  A child that dies without a word (SIGKILL,
the OOM killer, ``os._exit``) is caught by the parent's exit watch:
between result reads it checks every unfinished child's exit code and
aborts the world with :class:`~repro.errors.CommError` naming the rank
and its code, instead of leaving the survivors to wait out their recv
deadline.  A rank blocked in ``recv`` past that deadline raises
:class:`~repro.errors.CommTimeoutError` (re-raised as such on the
parent), so a partitioned or livelocked peer still ends in an abort,
not a hang.  Recovery is a whole-world restart from the last level
checkpoint (:func:`repro.core.mafia.pmafia_resumable`).  A
:class:`~repro.parallel.faults.FaultPlan` can be threaded through to
rehearse exactly these scenarios.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import traceback
from collections import deque
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import CommError, CommTimeoutError
from .comm import Comm

#: default seconds a blocked recv waits before declaring the peer lost
RECV_TIMEOUT = 300.0
#: seconds the parent waits for every rank's result
RESULT_TIMEOUT = 3600.0
#: seconds between the parent's checks for a child that exited silently
_EXIT_POLL = 0.1

#: ndarrays at least this large ship as shared-memory segments instead
#: of pickles; below it the segment setup costs more than the pickle
SHM_MIN_BYTES = 1 << 16

#: containers are rewritten this deep looking for shippable arrays —
#: enough for every collective payload shape (gather list of tree
#: (vrank, obj) tuples, scatter dict of per-rank values)
_SHM_DEPTH = 3


class _ShmRef:
    """Wire descriptor for an ndarray shipped out-of-band: the pickled
    message carries only segment name, dtype and shape."""

    __slots__ = ("name", "dtype", "shape")

    def __init__(self, name: str, dtype: str, shape: tuple) -> None:
        self.name = name
        self.dtype = dtype
        self.shape = shape

    def __reduce__(self):
        return (_ShmRef, (self.name, self.dtype, self.shape))


def _untrack(seg) -> None:
    """Hand segment ownership to the receiver: the creating process must
    not let its resource tracker unlink (or warn about) a segment whose
    lifetime now belongs to the other end.  The tracker keys segments by
    the raw POSIX name (leading slash included), which ``seg.name``
    strips — use the internal name when present."""
    raw = getattr(seg, "_name", None) or "/" + seg.name
    try:
        resource_tracker.unregister(raw, "shared_memory")
    except Exception:  # noqa: BLE001 - tracker internals vary
        pass


def _shm_export(obj: Any, stats: list, depth: int = 0) -> Any:
    """Replace large numeric ndarrays in a payload with shared-memory
    references; ``stats[0]`` counts ndarrays left to the pickler."""
    if isinstance(obj, np.ndarray):
        if obj.dtype != object and obj.nbytes >= SHM_MIN_BYTES:
            seg = shared_memory.SharedMemory(create=True, size=obj.nbytes)
            try:
                view = np.ndarray(obj.shape, dtype=obj.dtype, buffer=seg.buf)
                view[...] = obj
                del view
                ref = _ShmRef(seg.name, obj.dtype.str, obj.shape)
            finally:
                seg.close()
            _untrack(seg)
            return ref
        stats[0] += 1
        return obj
    if depth < _SHM_DEPTH:
        if isinstance(obj, tuple):
            return tuple(_shm_export(x, stats, depth + 1) for x in obj)
        if isinstance(obj, list):
            return [_shm_export(x, stats, depth + 1) for x in obj]
        if isinstance(obj, dict):
            return {k: _shm_export(v, stats, depth + 1)
                    for k, v in obj.items()}
    return obj


def _shm_resolve(obj: Any, depth: int = 0) -> Any:
    """Materialise any :class:`_ShmRef` in a received payload and unlink
    the segment (receipt transfers ownership to this process)."""
    if isinstance(obj, _ShmRef):
        seg = shared_memory.SharedMemory(name=obj.name)
        try:
            src = np.ndarray(obj.shape, dtype=np.dtype(obj.dtype),
                             buffer=seg.buf)
            out = src.copy()
            del src
        finally:
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        return out
    if depth < _SHM_DEPTH:
        if isinstance(obj, tuple):
            return tuple(_shm_resolve(x, depth + 1) for x in obj)
        if isinstance(obj, list):
            return [_shm_resolve(x, depth + 1) for x in obj]
        if isinstance(obj, dict):
            return {k: _shm_resolve(v, depth + 1) for k, v in obj.items()}
    return obj


def _discard_refs(obj: Any, depth: int = 0) -> None:
    """Unlink any segments referenced by an undelivered payload (used by
    the parent when draining queues after a failed run)."""
    if isinstance(obj, _ShmRef):
        try:
            seg = shared_memory.SharedMemory(name=obj.name)
            seg.close()
            seg.unlink()
        except Exception:  # noqa: BLE001 - best-effort cleanup
            pass
        return
    if depth < _SHM_DEPTH and isinstance(obj, (tuple, list)):
        for x in obj:
            _discard_refs(x, depth + 1)
    elif depth < _SHM_DEPTH and isinstance(obj, dict):
        for x in obj.values():
            _discard_refs(x, depth + 1)


class ProcessComm(Comm):
    """One rank's endpoint: an inbox queue plus every rank's outbox."""

    def __init__(self, rank: int, size: int, inboxes: Sequence[Any],
                 strategy: str = "flat",
                 recv_timeout: float | None = None) -> None:
        if not 0 <= rank < size:
            raise CommError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size
        self.strategy = strategy
        self.recv_timeout = (RECV_TIMEOUT if recv_timeout is None
                             else recv_timeout)
        self._inboxes = list(inboxes)
        self._stash: dict[tuple[int, int], deque] = {}
        #: ndarrays this rank pickled through the queue instead of the
        #: shared-memory fast path (test hook; stays 0 for large payloads)
        self.serialized_arrays = 0

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to rank ``dest`` (FIFO per (source, tag))."""
        self._check_rank(dest)
        stats = [0]
        payload = _shm_export(obj, stats)
        self.serialized_arrays += stats[0]
        self._inboxes[dest].put((self.rank, tag, payload))

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive the next object from rank ``source`` with ``tag``."""
        self._check_rank(source)
        key = (source, tag)
        stash = self._stash.get(key)
        if stash:
            return stash.popleft()
        waited = 0.0
        step = min(0.1, max(self.recv_timeout, 1e-3))
        while waited < self.recv_timeout:
            try:
                got_source, got_tag, obj = self._inboxes[self.rank].get(
                    timeout=step)
            except queue_mod.Empty:
                waited += step
                continue
            # resolve refs immediately: stashed messages must not hold
            # shared segments open longer than necessary
            obj = _shm_resolve(obj)
            if (got_source, got_tag) == key:
                return obj
            self._stash.setdefault((got_source, got_tag),
                                   deque()).append(obj)
        raise CommTimeoutError(
            f"rank {self.rank} timed out receiving from {source} "
            f"(tag {tag}) after {self.recv_timeout:.1f}s; "
            f"peer lost or deadlocked")


def _worker(fn: Callable, rank: int, size: int, inboxes, result_queue,
            strategy: str, recv_timeout, faults, args: tuple,
            kwargs: dict) -> None:
    """Child-process entry: run the rank function, ship the outcome."""
    comm: Comm = ProcessComm(rank, size, inboxes, strategy, recv_timeout)
    if faults is not None:
        comm = faults.wrap(comm)
    try:
        value = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        result_queue.put((rank, "error",
                          (type(exc).__name__,
                           f"{type(exc).__name__}: {exc}\n"
                           f"{traceback.format_exc()}")))
        return
    result_queue.put((rank, "ok", value))


def run_processes(fn: Callable, nprocs: int, *, collectives: str = "flat",
                  recv_timeout: float | None = None, faults=None,
                  args: Sequence[Any] = (),
                  kwargs: dict[str, Any] | None = None) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` OS processes and
    return the per-rank values in rank order.

    The first failing rank's error is re-raised after every process has
    been terminated — as :class:`~repro.errors.CommTimeoutError` when
    the child hit its recv deadline, otherwise as
    :class:`~repro.errors.CommError` carrying the child traceback, or
    naming the exit code of a child that exited without reporting.
    ``faults`` (a picklable :class:`~repro.parallel.faults.FaultPlan`)
    is re-instantiated per rank inside each child.
    """
    if nprocs < 1:
        raise CommError(f"nprocs must be >= 1, got {nprocs}")
    ctx = mp.get_context()
    inboxes = [ctx.Queue() for _ in range(nprocs)]
    result_queue = ctx.Queue()
    processes = [
        ctx.Process(target=_worker,
                    args=(fn, rank, nprocs, inboxes, result_queue,
                          collectives, recv_timeout, faults,
                          tuple(args), dict(kwargs or {})),
                    name=f"spmd-rank-{rank}", daemon=True)
        for rank in range(nprocs)
    ]
    for proc in processes:
        proc.start()

    values: list[Any] = [None] * nprocs
    pending = set(range(nprocs))
    failure: CommError | None = None
    deadline = time.monotonic() + RESULT_TIMEOUT
    try:
        while pending:
            try:
                report = result_queue.get(timeout=_EXIT_POLL)
            except queue_mod.Empty:
                exited = [r for r in sorted(pending)
                          if processes[r].exitcode is not None]
                if not exited:
                    if time.monotonic() > deadline:
                        failure = CommError(
                            "timed out waiting for rank results")
                        break
                    continue
                # a child's final put can race its exit, so give the
                # queue one more read before declaring the rank lost
                try:
                    report = result_queue.get(timeout=_EXIT_POLL)
                except queue_mod.Empty:
                    rank = exited[0]
                    failure = CommError(
                        f"rank {rank} exited with code "
                        f"{processes[rank].exitcode} without reporting")
                    break
            rank, status, payload = report
            if status == "error":
                exc_name, message = payload
                error = (CommTimeoutError if exc_name == "CommTimeoutError"
                         else CommError)
                failure = error(f"rank {rank} failed:\n{message}")
                break
            values[rank] = payload
            pending.discard(rank)
    finally:
        if failure is not None:
            for proc in processes:
                if proc.is_alive():
                    proc.terminate()
        for proc in processes:
            proc.join(timeout=30)
        for q in inboxes:
            # a failed run can leave undelivered messages whose shm
            # segments nobody will ever attach; unlink them here
            try:
                while True:
                    _, _, payload = q.get_nowait()
                    _discard_refs(payload)
            except (queue_mod.Empty, OSError, ValueError):
                pass
            q.cancel_join_thread()
        result_queue.cancel_join_thread()

    if failure is not None:
        raise failure
    return values
