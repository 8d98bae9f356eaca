"""User-facing entry points: serial MAFIA and parallel pMAFIA."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

import os

from ..errors import DataError
from ..io.resilient import RetryPolicy
from ..obs import RunObs
from ..params import MafiaParams
from ..parallel.faults import FaultPlan
from ..parallel.machine import MachineSpec, WorkCounters
from ..parallel.serial import SerialComm
from ..parallel.spmd import RankResult, run_spmd
from .pmafia import pmafia_rank
from .result import ClusteringResult


def mafia(data: Any, params: MafiaParams | None = None,
          domains: np.ndarray | None = None) -> ClusteringResult:
    """Serial MAFIA: cluster ``data`` on a single (virtual) processor.

    ``data`` may be an ``(n, d)`` array, any
    :class:`~repro.io.chunks.DataSource`, or a path to a record file.
    The algorithm is completely unsupervised — ``params`` only carries
    the α/β knobs whose defaults the paper recommends.
    """
    return pmafia_rank(SerialComm(), data, params, domains)


@dataclass(frozen=True)
class PMafiaRun:
    """Outcome of a parallel run: the clustering (identical on every
    rank, asserted) plus per-rank virtual times and work tallies.

    ``obs`` bundles every rank's observability export into a
    :class:`repro.obs.RunObs` when the run was traced or metered
    (``None`` otherwise); like ``ClusteringResult.obs`` it does not
    participate in equality.
    """

    result: ClusteringResult
    nprocs: int
    backend: str
    rank_times: tuple[float, ...]
    counters: tuple[WorkCounters | None, ...]
    obs: RunObs | None = field(default=None, compare=False)

    @property
    def makespan(self) -> float:
        """Virtual completion time: the slowest rank's clock (0.0 on
        untimed backends)."""
        return max(self.rank_times) if self.rank_times else 0.0


def pmafia(data: Any, nprocs: int, params: MafiaParams | None = None,
           *, backend: str = "thread", machine: MachineSpec | None = None,
           collectives: str = "flat",
           domains: np.ndarray | None = None) -> PMafiaRun:
    """Parallel pMAFIA on ``nprocs`` ranks.

    ``backend='thread'`` exercises the real SPMD message-passing path;
    ``backend='sim'`` additionally produces deterministic virtual
    runtimes on ``machine`` (default: the paper's IBM SP2).
    ``collectives`` selects flat (paper's model) or binomial-tree wire
    patterns for the Reduce/broadcast steps.
    """
    if nprocs == 1 and backend == "thread":
        backend = "serial"
    ranks = run_spmd(pmafia_rank, nprocs, backend=backend, machine=machine,
                     collectives=collectives, args=(data, params, domains))
    return _collect_run(ranks, nprocs, backend)


def _collect_run(ranks: list[RankResult], nprocs: int,
                 backend: str) -> PMafiaRun:
    """Cross-check the per-rank results and bundle them into a run."""
    results = [r.value for r in ranks]
    first = results[0]
    for other in results[1:]:
        if (other.cdus_per_level() != first.cdus_per_level()
                or other.dense_per_level() != first.dense_per_level()
                or len(other.clusters) != len(first.clusters)):
            raise DataError("ranks disagree on the clustering result")
    obs = None
    if any(r.obs is not None for r in results):
        obs = RunObs(ranks=tuple(r.obs for r in results
                                 if r.obs is not None))
    return PMafiaRun(result=first, nprocs=nprocs, backend=backend,
                     rank_times=tuple(r.time for r in ranks),
                     counters=tuple(r.counters for r in ranks),
                     obs=obs)


def pmafia_resumable(data: Any, nprocs: int,
                     params: MafiaParams | None = None, *,
                     checkpoint_dir: str | os.PathLike,
                     backend: str = "thread",
                     machine: MachineSpec | None = None,
                     collectives: str = "flat",
                     domains: np.ndarray | None = None,
                     resume: bool = True,
                     recv_timeout: float | None = None,
                     retry: RetryPolicy | None = None,
                     faults: FaultPlan | None = None,
                     max_restarts: int = 0) -> PMafiaRun:
    """Fault-tolerant pMAFIA: per-level checkpoints plus restart.

    Rank 0 serialises the level frontier into ``checkpoint_dir`` after
    every completed level.  With ``resume=True`` (default) each call
    restarts from the newest checkpoint left by a killed run — only the
    remaining levels are recomputed, and the final
    :class:`~repro.core.result.ClusteringResult` is bit-identical to an
    uninterrupted run.  ``resume=False`` clears old checkpoints and
    starts fresh.

    ``max_restarts`` > 0 additionally retries failed attempts
    in-process (each retry resumes from the last checkpoint).  A
    ``faults`` plan applies to the *first* attempt only, so an injected
    crash followed by an automatic restart rehearses the full
    kill-and-recover cycle in a single call.  ``recv_timeout`` and
    ``retry`` bound lost peers and transient chunk-read failures — see
    ``docs/ROBUSTNESS.md``.
    """
    if max_restarts < 0:
        raise DataError(f"max_restarts must be >= 0, got {max_restarts}")
    if nprocs == 1 and backend == "thread":
        backend = "serial"
    attempts = max_restarts + 1
    for attempt in range(attempts):
        try:
            ranks = run_spmd(
                pmafia_rank, nprocs, backend=backend, machine=machine,
                collectives=collectives, recv_timeout=recv_timeout,
                faults=faults if attempt == 0 else None,
                args=(data, params, domains),
                kwargs={"checkpoint_dir": os.fspath(checkpoint_dir),
                        "resume": resume or attempt > 0,
                        "retry": retry})
        except Exception:
            if attempt == attempts - 1:
                raise
        else:
            return _collect_run(ranks, nprocs, backend)
    raise AssertionError("unreachable")  # pragma: no cover
