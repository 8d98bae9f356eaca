"""Deterministic, seeded fault injection for the SPMD substrate.

A :class:`FaultPlan` describes *what goes wrong and where*: rank crashes
at chosen (site, level) trigger points, message drops/delays on the
wire, and transient ``OSError``\\ s on chunk reads at chosen
(level, chunk) trigger points.  :func:`~repro.parallel.spmd.run_spmd`
threads a plan through every backend by wrapping each rank's
communicator in a :class:`FaultyComm`; the pMAFIA driver announces its
progress through :func:`fault_site` so triggers fire at well-defined
points of the algorithm, and the resilient chunk reader
(:func:`repro.io.chunks.charged_chunks`) consults the same per-rank
state before every block read.

Everything is deterministic: explicit triggers fire exactly where they
say, and the optional chaos knobs (``drop_rate`` / ``delay_rate``) draw
from a per-rank ``numpy`` generator seeded from ``(seed, rank)`` — the
same plan replays the same faults every run.  Plans are picklable, so
the process backend injects the identical schedule in its children.

See ``docs/ROBUSTNESS.md`` for a cookbook.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from .comm import Comm

#: driver sites a :class:`CrashPoint` or :class:`ReadFault` can name
SITES = ("start", "domains", "histogram", "populate", "join", "dedup")


class InjectedFailure(RuntimeError):
    """Raised on a rank the fault plan kills.  Deliberately *not* a
    :class:`~repro.errors.ReproError`: an injected crash stands in for
    an arbitrary failure (OOM, segfault surrogate, power loss) that the
    library did not raise itself."""


@dataclass(frozen=True)
class CrashPoint:
    """Kill ``rank`` when it enters ``site`` at ``level``.

    ``None`` fields are wildcards; ``CrashPoint(rank=1)`` kills rank 1
    at the first site it announces.  ``hard=True`` exits the process
    with ``os._exit(137)`` instead of raising — a SIGKILL / OOM-killer
    surrogate that leaves no chance to report an error, so only the
    exit watch in :func:`~repro.parallel.process.run_processes` can
    notice it.  Process backend only: on an in-process backend the
    exit would end the calling program itself.
    """

    rank: int
    site: str | None = None
    level: int | None = None
    hard: bool = False

    def matches(self, rank: int, site: str, level: int | None) -> bool:
        """True when this crash fires for ``rank`` at ``site``/``level``."""
        return (self.rank == rank
                and (self.site is None or self.site == site)
                and (self.level is None or self.level == level))


@dataclass(frozen=True)
class ReadFault:
    """Fail chunk reads at a (rank, level, chunk) trigger point.

    The first ``errors`` matching read attempts raise a transient
    ``OSError`` (retried by the resilient reader); with
    ``permanent=True`` every attempt fails, exhausting the retry budget.
    ``None`` fields are wildcards.
    """

    rank: int | None = None
    site: str | None = None
    level: int | None = None
    chunk: int | None = None
    errors: int = 1
    permanent: bool = False

    def matches(self, rank: int, site: str | None, level: int | None,
                chunk: int) -> bool:
        """True when this fault covers the given chunk-read attempt."""
        return ((self.rank is None or self.rank == rank)
                and (self.site is None or self.site == site)
                and (self.level is None or self.level == level)
                and (self.chunk is None or self.chunk == chunk))


@dataclass(frozen=True)
class MessageFault:
    """Drop or delay the ``nth`` message sent by ``rank`` (0-based,
    counted over all of that rank's sends, optionally filtered by
    ``dest`` / ``tag``)."""

    rank: int
    action: str = "drop"            # "drop" | "delay"
    nth: int = 0
    dest: int | None = None
    tag: int | None = None
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("drop", "delay"):
            raise ValueError(f"action must be 'drop' or 'delay', "
                             f"got {self.action!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, replayable fault schedule for one SPMD program."""

    seed: int = 0
    crashes: tuple[CrashPoint, ...] = ()
    read_faults: tuple[ReadFault, ...] = ()
    message_faults: tuple[MessageFault, ...] = ()
    #: chaos mode: per-message drop / extra-delay probabilities
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    chaos_delay: float = 0.01

    def state_for(self, rank: int) -> "RankFaults":
        """The mutable per-rank runtime state of this plan."""
        return RankFaults(self, rank)

    def wrap(self, comm: Comm) -> "FaultyComm":
        """Wrap a communicator so this plan's faults fire on its rank."""
        return FaultyComm(comm, self.state_for(comm.rank))

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable description of this plan (the scenario
        file format — see ``benchmarks/scenarios/``)."""
        return {
            "seed": self.seed,
            "crashes": [vars(c).copy() for c in self.crashes],
            "read_faults": [vars(r).copy() for r in self.read_faults],
            "message_faults": [vars(m).copy() for m in self.message_faults],
            "drop_rate": self.drop_rate,
            "delay_rate": self.delay_rate,
            "chaos_delay": self.chaos_delay,
        }

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output / a scenario file."""
        known = {"seed", "crashes", "read_faults", "message_faults",
                 "drop_rate", "delay_rate", "chaos_delay"}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown fault-plan fields {sorted(unknown)}")
        return cls(
            seed=int(spec.get("seed", 0)),
            crashes=tuple(CrashPoint(**c)
                          for c in spec.get("crashes", ())),
            read_faults=tuple(ReadFault(**r)
                              for r in spec.get("read_faults", ())),
            message_faults=tuple(MessageFault(**m)
                                 for m in spec.get("message_faults", ())),
            drop_rate=float(spec.get("drop_rate", 0.0)),
            delay_rate=float(spec.get("delay_rate", 0.0)),
            chaos_delay=float(spec.get("chaos_delay", 0.01)),
        )


class RankFaults:
    """One rank's runtime view of a :class:`FaultPlan`: tracks the
    current (site, level) position, counts messages and served read
    errors, and owns the rank's chaos generator."""

    def __init__(self, plan: FaultPlan, rank: int) -> None:
        self.plan = plan
        self.rank = rank
        self.site: str | None = None
        self.level: int | None = None
        self._sent = 0
        self._read_served: dict[int, int] = {}
        self._rng = np.random.default_rng([plan.seed, rank])
        #: the rank's :class:`repro.obs.RankObs` during instrumented
        #: runs — injected faults then land in the same trace/metrics
        #: as real work (attached by ``RankObs.activate``)
        self.observer: Any = None

    def _record(self, kind: str, **attrs: Any) -> None:
        if self.observer is not None:
            self.observer.fault_event(kind, **attrs)

    # -- driver progress + crash triggers ------------------------------
    def enter(self, site: str, level: int | None = None) -> None:
        """Record that the rank entered ``site`` at ``level``; raises
        :class:`InjectedFailure` if the plan kills it here."""
        self.site = site
        self.level = level
        for point in self.plan.crashes:
            if point.matches(self.rank, site, level):
                self._record("crash", site=site, level=level,
                             hard=point.hard)
                if point.hard:
                    # SIGKILL surrogate: no exception, no error report,
                    # no cleanup — the process is simply gone
                    os._exit(137)
                raise InjectedFailure(
                    f"injected crash on rank {self.rank} at site "
                    f"{site!r}, level {level}")

    # -- chunk-read faults ---------------------------------------------
    def on_chunk_read(self, chunk: int) -> None:
        """Raise an injected ``OSError`` if a read fault triggers for
        the current (site, level) position and this chunk index."""
        for i, rf in enumerate(self.plan.read_faults):
            if not rf.matches(self.rank, self.site, self.level, chunk):
                continue
            detail = (f"rank {self.rank}, site {self.site!r}, "
                      f"level {self.level}, chunk {chunk}")
            if rf.permanent:
                self._record("read_error", chunk=chunk, permanent=True)
                raise OSError(errno.EIO, f"injected permanent read "
                                         f"error ({detail})")
            served = self._read_served.get(i, 0)
            if served < rf.errors:
                self._read_served[i] = served + 1
                self._record("read_error", chunk=chunk, permanent=False)
                raise OSError(errno.EIO,
                              f"injected transient read error "
                              f"{served + 1}/{rf.errors} ({detail})")

    # -- message faults -------------------------------------------------
    def on_send(self, dest: int, tag: int) -> tuple[bool, float]:
        """Decide the fate of the next outgoing message.  Returns
        ``(deliver, extra_delay_seconds)``."""
        index = self._sent
        self._sent += 1
        for mf in self.plan.message_faults:
            if (mf.rank == self.rank and mf.nth == index
                    and (mf.dest is None or mf.dest == dest)
                    and (mf.tag is None or mf.tag == tag)):
                if mf.action == "drop":
                    self._record("message_drop", dest=dest, tag=tag,
                                 nth=index)
                    return False, 0.0
                self._record("message_delay", dest=dest, tag=tag,
                             nth=index, delay=mf.delay)
                return True, mf.delay
        if self.plan.drop_rate or self.plan.delay_rate:
            draw = float(self._rng.random())
            if draw < self.plan.drop_rate:
                self._record("message_drop", dest=dest, tag=tag,
                             nth=index)
                return False, 0.0
            if draw < self.plan.drop_rate + self.plan.delay_rate:
                self._record("message_delay", dest=dest, tag=tag,
                             nth=index, delay=self.plan.chaos_delay)
                return True, self.plan.chaos_delay
        return True, 0.0


class FaultyComm(Comm):
    """A communicator wrapper that injects the plan's message faults and
    exposes the rank's fault state to the driver and the I/O layer.

    Collectives run through the :class:`Comm` base implementations on
    top of the wrapped ``send`` / ``recv``, so a dropped point-to-point
    message inside a collective strands the receiver exactly as a lost
    MPI message would.
    """

    def __init__(self, inner: Comm, state: RankFaults) -> None:
        self._inner = inner
        self.fault_state = state
        self.rank = inner.rank
        self.size = inner.size
        self.strategy = inner.strategy
        # class attributes shadow __getattr__ delegation, so the flag
        # must be copied for delay charging (below) to see the wrapped
        # backend's value
        self.models_paper_costs = inner.models_paper_costs

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        deliver, delay = self.fault_state.on_send(dest, tag)
        if delay > 0:
            # On the simulated-time backend an injected delay is charged
            # to the sender's *virtual* clock only; it reaches other
            # ranks solely through the arrival stamps of this rank's
            # subsequent sends — under a tree collective that means the
            # delayed rank's subtree path, never the whole world.  Wall
            # backends sleep for real.
            if getattr(self._inner, "models_paper_costs", False):
                self._inner.charge_wait(delay)
            else:
                time.sleep(delay)
        if deliver:
            self._inner.send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        return self._inner.recv(source, tag)

    # -- cost accounting passes straight through ------------------------
    def charge_cells(self, ops: float) -> None:
        self._inner.charge_cells(ops)

    def charge_pairs(self, pairs: float) -> None:
        self._inner.charge_pairs(pairs)

    def charge_io(self, nbytes: float, chunks: int = 1) -> None:
        self._inner.charge_io(nbytes, chunks)

    def charge_wait(self, seconds: float) -> None:
        self._inner.charge_wait(seconds)

    def time(self) -> float:
        return self._inner.time()

    def __getattr__(self, name: str) -> Any:
        try:
            inner = self.__dict__["_inner"]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(inner, name)


def fault_site(comm: Comm, site: str, level: int | None = None) -> None:
    """Announce that this rank entered ``site`` at ``level``.

    No-op unless the communicator carries a fault state — the production
    driver calls this unconditionally at a cost of one ``getattr``.
    """
    state = getattr(comm, "fault_state", None)
    if state is not None:
        state.enter(site, level)
