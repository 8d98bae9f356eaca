"""SPMD launcher: run the same function on every rank of a communicator.

This is the mpiexec of the in-process world.  ``fn(comm, *args)`` runs
once per rank; ranks communicate through the :class:`Comm` they are
given.  Three backends:

``serial``
    Size-1 world, direct call on the caller's thread.
``thread``
    One Python thread per rank with real queue-based message passing.
``sim``
    The thread backend with every communicator wrapped in
    :class:`~repro.parallel.simtime.TimedComm`, producing deterministic
    per-rank virtual runtimes on a chosen machine model.
``process``
    One OS process per rank (GIL-free real parallelism); the rank
    function and args must be picklable.  See
    :mod:`repro.parallel.process`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import CommAborted, CommError
from .comm import Comm
from .faults import FaultPlan
from .machine import MachineSpec, WorkCounters
from .serial import SerialComm
from .simtime import TimedComm
from .threads import ThreadWorld

BACKENDS = ("serial", "thread", "sim", "process")


@dataclass
class RankResult:
    """Outcome of one rank's execution."""

    rank: int
    value: Any
    #: virtual seconds on the simulated machine (0.0 for untimed backends)
    time: float = 0.0
    #: per-category work tally (sim backend only)
    counters: WorkCounters | None = None


def run_spmd(
    fn: Callable[..., Any],
    nprocs: int,
    *,
    backend: str = "thread",
    machine: MachineSpec | None = None,
    collectives: str = "flat",
    recv_timeout: float | None = None,
    faults: FaultPlan | None = None,
    args: Sequence[Any] = (),
    kwargs: dict[str, Any] | None = None,
) -> list[RankResult]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks.

    ``collectives`` picks the collective wire pattern: ``"flat"`` (the
    paper's O(p) root-centred model) or ``"tree"`` (binomial, O(log p)
    as in real MPI).  ``recv_timeout`` sets the per-rank recv deadline
    in seconds (``None`` keeps each backend's default); a rank blocked
    past it raises :class:`~repro.errors.CommTimeoutError` instead of
    hanging on a lost peer.  ``faults`` threads a deterministic
    :class:`~repro.parallel.faults.FaultPlan` through every rank's
    communicator for failure rehearsal.

    Returns one :class:`RankResult` per rank, in rank order.  If any
    rank raises, the program is aborted on all ranks and the root-cause
    exception is re-raised on the caller's thread.
    """
    if nprocs < 1:
        raise CommError(f"nprocs must be >= 1, got {nprocs}")
    if backend not in BACKENDS:
        raise CommError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if machine is not None and backend != "sim":
        raise CommError("a MachineSpec is only meaningful with backend='sim'")
    if collectives not in ("flat", "tree"):
        raise CommError(
            f"collectives must be 'flat' or 'tree', got {collectives!r}")
    kwargs = dict(kwargs or {})

    if backend == "serial":
        if nprocs != 1:
            raise CommError("backend='serial' supports exactly 1 rank; "
                            "use 'thread' or 'sim' for more")
        comm: Comm = SerialComm()
        if faults is not None:
            comm = faults.wrap(comm)
        comm.strategy = collectives
        value = fn(comm, *args, **kwargs)
        return [RankResult(rank=0, value=value)]

    if backend == "process":
        from .process import run_processes
        values = run_processes(fn, nprocs, collectives=collectives,
                               recv_timeout=recv_timeout, faults=faults,
                               args=args, kwargs=kwargs)
        return [RankResult(rank=r, value=v) for r, v in enumerate(values)]

    if backend == "sim" and machine is None:
        machine = MachineSpec.ibm_sp2()

    world = ThreadWorld(nprocs)
    results: list[RankResult | None] = [None] * nprocs
    errors: list[BaseException | None] = [None] * nprocs

    def target(rank: int) -> None:
        comm: Comm = world.comm(rank)
        if recv_timeout is not None:
            comm.recv_timeout = recv_timeout
        if backend == "sim":
            assert machine is not None
            comm = TimedComm(comm, machine)
        if faults is not None:
            comm = faults.wrap(comm)
        comm.strategy = collectives
        try:
            value = fn(comm, *args, **kwargs)
        except CommAborted as exc:
            errors[rank] = exc
        except BaseException as exc:  # noqa: BLE001 - re-raised on caller
            errors[rank] = exc
            world.abort.set()
        else:
            results[rank] = RankResult(
                rank=rank,
                value=value,
                time=comm.time(),
                counters=getattr(comm, "counters", None),
            )

    threads = [threading.Thread(target=target, args=(r,), name=f"spmd-rank-{r}")
               for r in range(nprocs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # Re-raise the root cause: the first (in rank order) exception that
    # is not a CommAborted echo; when every failure is a CommAborted —
    # i.e. the ranks aborted cooperatively — re-raise the first echo.
    first_abort: BaseException | None = None
    for exc in errors:
        if exc is None:
            continue
        if not isinstance(exc, CommAborted):
            raise exc
        if first_abort is None:
            first_abort = exc
    if first_abort is not None:
        raise first_abort
    return [r for r in results if r is not None]
