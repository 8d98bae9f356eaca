"""Rank supervision and shard-level recovery for the process backend.

:func:`~repro.parallel.process.run_processes` has all-or-nothing
failure semantics: one dead rank aborts the world and a restart replays
from the last level checkpoint on *every* rank.  This module keeps the
world alive instead.  :func:`run_supervised` runs each rank under a
parent-side supervisor that

1. **detects** a dead or hung rank — from its error report, its process
   exit, or (optionally) a stale heartbeat — while the survivors are
   still mid-collective;
2. **parks** the survivors: a ``park`` directive delivered through a
   per-rank control queue makes each survivor unwind to its last level
   snapshot (a :class:`RecoveryInterrupt` raised at the next safe
   point) and acknowledge with the highest level it can restore;
3. **rebuilds only the lost shard**: a replacement process is spawned
   with a :class:`RecoveryBoot` telling it to restore the agreed level
   directly from the checkpoint directory and restage its own block
   from the record file and the staged PMBI bitmap index — no
   collective participation until it reaches the restore point;
4. **re-admits** the replacement: survivors resume from the same level
   under a new *epoch*, and because every pass is a deterministic
   function of the per-level state, the finished run is bit-identical
   to a fault-free one.

Epochs make mid-run membership change safe on a FIFO message substrate:
every wire tag is offset by ``epoch * _TAG_STRIDE``, so messages from
an abandoned attempt are recognised and discarded (shared-memory
segments unlinked) instead of corrupting the resumed collectives.

The protocol is deliberately conservative: anything outside the
single-failure happy path — a second rank dying while one recovery is
in flight, a failure before the program armed its recovery client, a
deterministic (fatal) error, the recovery budget running out — aborts
the world exactly like :func:`~repro.parallel.process.run_processes`
would.  See ``docs/ROBUSTNESS.md`` ("Shard recovery & gamedays").
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import CommError, CommTimeoutError, ParameterError
from .comm import Comm
from .process import (RESULT_TIMEOUT, ProcessComm, _discard_refs,
                      _shm_resolve)

#: wire tags live in per-epoch bands of this width
_TAG_STRIDE = 4096
#: shifts the negative internal collective tags (>= -3) into the band
_TAG_OFFSET = 8

#: child error types that recovery can never fix: deterministic
#: re-execution would fail identically, so the world aborts at once
FATAL_ERRORS = frozenset({
    "DataError", "ParameterError", "CheckpointError", "GridError",
    "RecordFileError", "ChecksumError", "RecoveryUnsupported",
})


class RecoveryInterrupt(BaseException):
    """Raised inside a surviving rank when the supervisor parks the
    world for a recovery round.  Derives from ``BaseException`` so the
    driver's ordinary ``except Exception`` error handling cannot
    swallow it; only the recovery loop in the driver catches it."""

    def __init__(self, epoch: int) -> None:
        super().__init__(f"parked for recovery round (epoch {epoch})")
        self.epoch = epoch


@dataclass(frozen=True)
class RecoveryBoot:
    """Spawn-time instructions for a replacement rank: join the world
    at ``epoch`` and restore ``level`` directly from the checkpoint
    directory, without using any collective before the restore point."""

    epoch: int
    level: int


@dataclass(frozen=True)
class SupervisePolicy:
    """Supervision knobs for one :func:`run_supervised` call."""

    #: seconds between a busy rank's heartbeats (rate limit)
    heartbeat_interval: float = 1.0
    #: declare a rank hung after this many seconds without a heartbeat;
    #: ``None`` disables stall detection (liveness + error reports only)
    stall_timeout: float | None = None
    #: seconds the parent waits for all survivors to acknowledge a park
    park_timeout: float = 120.0
    #: recovery rounds before the supervisor gives up and aborts
    max_recoveries: int = 2

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ParameterError(
                f"heartbeat_interval must be > 0, "
                f"got {self.heartbeat_interval}")
        if self.stall_timeout is not None \
                and self.stall_timeout <= self.heartbeat_interval:
            raise ParameterError(
                "stall_timeout must exceed heartbeat_interval, else "
                "every busy rank is declared hung between beats")
        if self.park_timeout <= 0:
            raise ParameterError(
                f"park_timeout must be > 0, got {self.park_timeout}")
        if self.max_recoveries < 0:
            raise ParameterError(
                f"max_recoveries must be >= 0, got {self.max_recoveries}")


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed recovery round, with its timeline."""

    rank: int
    epoch: int
    reason: str
    restore_level: int
    survivors: tuple[int, ...]
    detected: float
    parked: float
    respawned: float
    resumed: float

    @property
    def rto(self) -> float:
        """Recovery time objective actually achieved: seconds from
        detection to the survivors' resume directive."""
        return self.resumed - self.detected

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of this event (for recovery traces)."""
        return {
            "rank": self.rank,
            "epoch": self.epoch,
            "reason": self.reason,
            "restore_level": self.restore_level,
            "survivors": list(self.survivors),
            "rto_seconds": self.rto,
            "park_seconds": self.parked - self.detected,
            "respawn_seconds": self.respawned - self.parked,
        }


@dataclass(frozen=True)
class RecoveryReport:
    """Everything the supervisor did across one run."""

    events: tuple[RecoveryEvent, ...] = ()
    nprocs: int = 0

    @property
    def replacements(self) -> int:
        """Processes spawned beyond the initial world — survivors are
        never respawned, so this equals the number of recovery rounds."""
        return len(self.events)

    @property
    def worst_rto(self) -> float:
        return max((e.rto for e in self.events), default=0.0)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the whole report."""
        return {"nprocs": self.nprocs,
                "replacements": self.replacements,
                "worst_rto_seconds": self.worst_rto,
                "events": [e.to_dict() for e in self.events]}


class RecoveryClient:
    """The rank-side half of the recovery protocol, exposed to the
    driver as ``comm.recovery``.

    The driver *snapshots* its level frontier after every completed
    level, *arms* the client once its shard is staged (before that a
    park is refused — there is no snapshot to unwind to), *polls* at
    safe points, and on :class:`RecoveryInterrupt` calls
    :meth:`park_and_await` to trade its current position for the
    restore level the whole world agreed on.
    """

    def __init__(self, comm: "SupervisedComm",
                 boot: RecoveryBoot | None) -> None:
        self._comm = comm
        self.boot = boot
        self.armed = False
        self._snaps: dict[int, tuple[tuple, tuple]] = {}

    def snapshot(self, level: int, trace: Sequence[Any],
                 registered: Sequence[Any]) -> None:
        """Record the post-``level`` frontier as a restore candidate."""
        self._snaps[level] = (tuple(trace), tuple(registered))

    def arm(self) -> None:
        """Allow parking from here on (at least one snapshot exists)."""
        if not self._snaps:
            raise CommError("cannot arm recovery without a snapshot")
        self.armed = True

    def poll(self) -> None:
        """A safe point: heartbeat and act on any pending directive
        (may raise :class:`RecoveryInterrupt` when armed)."""
        self._comm.heartbeat()
        self._comm._poll_control()

    def park_and_await(self, intr: RecoveryInterrupt
                       ) -> tuple[int, tuple, tuple]:
        """Acknowledge the park and block until the supervisor resumes
        the world; returns ``(restore_level, trace, registered)``.

        While parked the rank keeps heartbeating so a long shard
        rebuild elsewhere is not mistaken for this rank stalling.  A
        newer park directive supersedes the current round (re-ack); the
        resume directive carries the agreed restore level, which by
        construction is one of this rank's snapshots.
        """
        comm = self._comm
        epoch = intr.epoch
        comm.heartbeat(force=True)
        comm._sup.put(("parked", comm.rank, epoch, max(self._snaps)))
        deadline = time.monotonic() + comm.park_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommTimeoutError(
                    f"rank {comm.rank} parked for recovery but no resume "
                    f"arrived within {comm.park_timeout:.1f}s")
            try:
                msg = comm._control.get(timeout=min(remaining, 0.5))
            except queue_mod.Empty:
                comm.heartbeat(force=True)
                continue
            if msg[0] == "park":
                epoch = msg[1]
                comm._sup.put(("parked", comm.rank, epoch,
                               max(self._snaps)))
                continue
            if msg[0] == "resume":
                _, new_epoch, restore_level = msg
                comm.set_epoch(new_epoch)
                for lvl in [l for l in self._snaps if l > restore_level]:
                    del self._snaps[lvl]
                trace, registered = self._snaps[restore_level]
                return restore_level, trace, registered


class SupervisedComm(ProcessComm):
    """A :class:`ProcessComm` that heartbeats to the supervisor,
    reacts to park directives, and speaks the epoch-tagged wire
    protocol so stale messages from abandoned attempts are discarded
    instead of delivered."""

    def __init__(self, rank: int, size: int, inboxes: Sequence[Any],
                 strategy: str = "flat",
                 recv_timeout: float | None = None, *,
                 sup: Any, control: Any, epoch: int = 0,
                 heartbeat_interval: float = 1.0,
                 park_timeout: float = 120.0,
                 boot: RecoveryBoot | None = None) -> None:
        super().__init__(rank, size, inboxes, strategy, recv_timeout)
        self._sup = sup
        self._control = control
        self.epoch = epoch
        self.heartbeat_interval = heartbeat_interval
        self.park_timeout = park_timeout
        self._last_hb = 0.0
        self.recovery = RecoveryClient(self, boot)

    # -- epoch-tagged wire protocol ------------------------------------
    def _wire(self, tag: int) -> int:
        base = tag + _TAG_OFFSET
        if not 0 <= base < _TAG_STRIDE:
            raise CommError(
                f"tag {tag} outside the supervised wire-tag band")
        return self.epoch * _TAG_STRIDE + base

    def set_epoch(self, epoch: int) -> None:
        """Enter a new epoch; stashed messages from older epochs are
        dropped (their arrays were already materialised — no segments
        to unlink)."""
        self.epoch = epoch
        for key in [k for k in self._stash
                    if k[1] // _TAG_STRIDE < epoch]:
            del self._stash[key]

    # -- supervisor link -----------------------------------------------
    def heartbeat(self, force: bool = False) -> None:
        """Tell the supervisor this rank is alive (rate-limited)."""
        now = time.monotonic()
        if not force and now - self._last_hb < self.heartbeat_interval:
            return
        self._last_hb = now
        try:
            self._sup.put_nowait(("hb", self.rank, self.epoch, now))
        except Exception:  # noqa: BLE001 - a full queue must not kill work
            pass

    def _poll_control(self) -> None:
        """Act on pending supervisor directives without blocking."""
        while True:
            try:
                msg = self._control.get_nowait()
            except queue_mod.Empty:
                return
            if msg[0] == "park":
                target = msg[1]
                if target <= self.epoch:
                    continue  # directive from a round already completed
                if self.recovery.armed:
                    raise RecoveryInterrupt(target)
                # no snapshot to unwind to (still staging): the world
                # cannot be rebuilt around this rank — supervisor aborts
                self._sup.put(("refused", self.rank, target))
            # a stray "resume" outside park_and_await is unreachable by
            # construction (resume follows this rank's own ack); drop it

    # -- point to point -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self.heartbeat()
        super().send(obj, dest, self._wire(tag))

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_rank(source)
        self.heartbeat()
        key = (source, self._wire(tag))
        stash = self._stash.get(key)
        if stash:
            return stash.popleft()
        waited = 0.0
        step = min(0.05, max(self.recv_timeout, 1e-3))
        while waited < self.recv_timeout:
            self._poll_control()
            self.heartbeat()
            try:
                got_source, got_tag, obj = self._inboxes[self.rank].get(
                    timeout=step)
            except queue_mod.Empty:
                waited += step
                continue
            if got_tag // _TAG_STRIDE < self.epoch:
                # a message from an abandoned attempt: unlink any
                # shared-memory segments it carries and move on
                _discard_refs(obj)
                continue
            obj = _shm_resolve(obj)
            if (got_source, got_tag) == key:
                return obj
            self._stash.setdefault((got_source, got_tag),
                                   deque()).append(obj)
        raise CommTimeoutError(
            f"rank {self.rank} timed out receiving from {source} "
            f"(tag {tag}) after {self.recv_timeout:.1f}s; "
            f"peer lost or deadlocked")

    # -- heartbeats from compute hot loops -------------------------------
    # the charge hooks are called once per chunk / pass from every
    # engine, so a rank deep in local numpy work still looks alive
    def charge_cells(self, ops: float) -> None:
        self.heartbeat()

    def charge_pairs(self, pairs: float) -> None:
        self.heartbeat()

    def charge_io(self, nbytes: float, chunks: int = 1) -> None:
        self.heartbeat()


def _supervised_worker(fn: Callable, rank: int, size: int, inboxes,
                       result_queue, sup_queue, control_queue,
                       strategy: str, recv_timeout, faults,
                       policy: SupervisePolicy, epoch: int,
                       boot: RecoveryBoot | None, args: tuple,
                       kwargs: dict) -> None:
    """Child-process entry for one supervised rank."""
    comm: Comm = SupervisedComm(
        rank, size, inboxes, strategy, recv_timeout,
        sup=sup_queue, control=control_queue, epoch=epoch,
        heartbeat_interval=policy.heartbeat_interval,
        park_timeout=policy.park_timeout, boot=boot)
    if faults is not None:
        comm = faults.wrap(comm)
    try:
        value = fn(comm, *args, **kwargs)
    except RecoveryInterrupt as exc:
        # the program let the interrupt escape: it is not recovery-aware
        result_queue.put((rank, "error", (
            "RecoveryUnsupported",
            f"rank {rank} was parked for recovery (epoch {exc.epoch}) "
            f"but the program does not handle RecoveryInterrupt")))
        return
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        result_queue.put((rank, "error",
                          (type(exc).__name__,
                           f"{type(exc).__name__}: {exc}\n"
                           f"{traceback.format_exc()}")))
        return
    result_queue.put((rank, "ok", value))


@dataclass
class _World:
    """Parent-side mutable supervision state."""

    values: list
    done: list
    last_hb: dict[int, float]
    events: list = field(default_factory=list)
    errors: deque = field(default_factory=deque)   # (rank, name, message)
    acks: dict[int, int] = field(default_factory=dict)
    refused: tuple | None = None
    epoch: int = 0


def _pump(world: _World, sup_q, result_q) -> None:
    """Drain both parent-facing queues into the world state."""
    while True:
        try:
            msg = sup_q.get_nowait()
        except queue_mod.Empty:
            break
        if msg[0] == "hb":
            _, rank, _epoch, _t = msg
            world.last_hb[rank] = time.monotonic()
        elif msg[0] == "parked":
            _, rank, epoch, high = msg
            world.last_hb[rank] = time.monotonic()
            if epoch == world.epoch:
                world.acks[rank] = high
        elif msg[0] == "refused":
            world.refused = (msg[1], msg[2])
    while True:
        try:
            rank, status, payload = result_q.get_nowait()
        except queue_mod.Empty:
            break
        if status == "ok":
            world.values[rank] = payload
            world.done[rank] = True
        else:
            world.errors.append((rank, payload[0], payload[1]))


def run_supervised(fn: Callable, nprocs: int, *,
                   collectives: str = "flat",
                   recv_timeout: float | None = None, faults=None,
                   policy: SupervisePolicy | None = None,
                   args: Sequence[Any] = (),
                   kwargs: dict[str, Any] | None = None
                   ) -> tuple[list[Any], RecoveryReport]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` supervised OS
    processes; returns the per-rank values plus a
    :class:`RecoveryReport` of every recovery round performed.

    ``fn`` must be recovery-aware (snapshot / arm / park through
    ``comm.recovery``, as :func:`repro.core.pmafia.pmafia_rank` is) for
    recovery to engage; a program that is not simply aborts on failure,
    like :func:`~repro.parallel.process.run_processes`.  ``faults``
    applies to the initial world only — a replacement rank is always
    spawned clean, so a deterministic kill-at-site plan cannot re-kill
    its own replacement.
    """
    if nprocs < 1:
        raise CommError(f"nprocs must be >= 1, got {nprocs}")
    policy = policy or SupervisePolicy()
    ctx = mp.get_context()
    inboxes = [ctx.Queue() for _ in range(nprocs)]
    result_q = ctx.Queue()
    sup_q = ctx.Queue()
    controls = [ctx.Queue() for _ in range(nprocs)]

    def spawn(rank: int, epoch: int, boot: RecoveryBoot | None,
              rank_faults) -> Any:
        proc = ctx.Process(
            target=_supervised_worker,
            args=(fn, rank, nprocs, inboxes, result_q, sup_q,
                  controls[rank], collectives, recv_timeout, rank_faults,
                  policy, epoch, boot, tuple(args), dict(kwargs or {})),
            name=f"spmd-rank-{rank}", daemon=True)
        proc.start()
        return proc

    now = time.monotonic()
    world = _World(values=[None] * nprocs, done=[False] * nprocs,
                   last_hb={r: now for r in range(nprocs)})
    procs = [spawn(r, 0, None, faults) for r in range(nprocs)]
    retired: list[Any] = []
    failure: tuple[int, str, str] | None = None
    deadline = time.monotonic() + RESULT_TIMEOUT

    def fail(rank: int, name: str, message: str) -> None:
        nonlocal failure
        if failure is None:
            failure = (rank, name, message)

    def recover(dead_rank: int, reason: str, detail: str) -> None:
        """One recovery round; sets ``failure`` instead of raising."""
        detected = time.monotonic()
        if len(world.events) >= policy.max_recoveries:
            fail(dead_rank, "CommError",
                 f"recovery budget exhausted "
                 f"({policy.max_recoveries} rounds): {detail}")
            return
        if any(world.done):
            fail(dead_rank, "CommError",
                 f"rank {dead_rank} was lost after another rank finished; "
                 f"the world cannot be rebuilt: {detail}")
            return
        proc = procs[dead_rank]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=10)
        retired.append(proc)
        world.epoch += 1
        world.acks = {}
        survivors = [r for r in range(nprocs) if r != dead_rank]
        for r in survivors:
            controls[r].put(("park", world.epoch))
        park_deadline = time.monotonic() + policy.park_timeout
        while len(world.acks) < len(survivors):
            _pump(world, sup_q, result_q)
            if world.refused is not None:
                r, _e = world.refused
                fail(dead_rank, "CommError",
                     f"rank {r} refused to park (not yet recoverable); "
                     f"aborting: {detail}")
                return
            if world.errors:
                r, name, message = world.errors.popleft()
                fail(r, name,
                     f"rank {r} failed during recovery round "
                     f"{world.epoch}:\n{message}")
                return
            if any(world.done[r] for r in survivors):
                fail(dead_rank, "CommError",
                     f"a survivor finished mid-recovery; the world "
                     f"cannot be rebuilt: {detail}")
                return
            if time.monotonic() > park_deadline:
                missing = sorted(set(survivors) - set(world.acks))
                fail(dead_rank, "CommTimeoutError",
                     f"survivors {missing} did not park within "
                     f"{policy.park_timeout:.1f}s: {detail}")
                return
            time.sleep(0.01)
        parked_t = time.monotonic()
        restore_level = min(world.acks.values())
        boot = RecoveryBoot(epoch=world.epoch, level=restore_level)
        procs[dead_rank] = spawn(dead_rank, world.epoch, boot, None)
        world.last_hb[dead_rank] = time.monotonic()
        respawned_t = time.monotonic()
        for r in survivors:
            controls[r].put(("resume", world.epoch, restore_level))
        resumed_t = time.monotonic()
        world.events.append(RecoveryEvent(
            rank=dead_rank, epoch=world.epoch, reason=reason,
            restore_level=restore_level, survivors=tuple(survivors),
            detected=detected, parked=parked_t, respawned=respawned_t,
            resumed=resumed_t))

    try:
        while not all(world.done) and failure is None:
            if time.monotonic() > deadline:
                fail(-1, "", "timed out waiting for rank results")
                break
            _pump(world, sup_q, result_q)
            if world.refused is not None:
                r, _e = world.refused
                fail(r, "CommError", f"rank {r} refused a stale park "
                                     f"directive; aborting")
                break
            if world.errors:
                rank, name, message = world.errors.popleft()
                if name in FATAL_ERRORS:
                    fail(rank, name, message)
                else:
                    recover(rank, name, message.splitlines()[0])
                continue
            # a rank whose process vanished without reporting anything
            # (hard kill, OOM): give the result queue a short grace
            # first — exit races the final "ok" put
            for r in range(nprocs):
                if world.done[r] or procs[r].is_alive():
                    continue
                time.sleep(0.05)
                _pump(world, sup_q, result_q)
                if not world.done[r] and not world.errors:
                    recover(r, "exit",
                            f"rank {r} exited with code "
                            f"{procs[r].exitcode} without reporting")
                break
            if policy.stall_timeout is not None:
                now = time.monotonic()
                for r in range(nprocs):
                    if world.done[r]:
                        continue
                    if now - world.last_hb[r] > policy.stall_timeout:
                        recover(r, "stall",
                                f"rank {r} sent no heartbeat for "
                                f"{policy.stall_timeout:.1f}s")
                        break
            time.sleep(0.01)
    finally:
        if failure is not None:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
        for proc in procs + retired:
            proc.join(timeout=30)
        for q in inboxes:
            try:
                while True:
                    _, _, payload = q.get_nowait()
                    _discard_refs(payload)
            except (queue_mod.Empty, OSError, ValueError):
                pass
            q.cancel_join_thread()
        for q in controls:
            q.cancel_join_thread()
        result_q.cancel_join_thread()
        sup_q.cancel_join_thread()

    report = RecoveryReport(events=tuple(world.events), nprocs=nprocs)
    if failure is not None:
        rank, exc_name, message = failure
        if exc_name == "CommTimeoutError":
            raise CommTimeoutError(f"rank {rank} failed:\n{message}")
        raise CommError(f"rank {rank} failed:\n{message}")
    return world.values, report
