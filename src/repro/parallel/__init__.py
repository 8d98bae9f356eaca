"""In-process SPMD substrate: MPI-like communicators, a thread backend
with real message passing, and a deterministic simulated-time backend
with an IBM SP2 machine model (see DESIGN.md §2 for the substitution
rationale)."""

from .comm import Comm, REDUCE_OPS
from .faults import (CrashPoint, FaultPlan, FaultyComm, InjectedFailure,
                     MessageFault, RankFaults, ReadFault, fault_site)
from .machine import MachineSpec, WorkCounters
from .process import ProcessComm, run_processes
from .serial import SerialComm
from .simtime import TimedComm, payload_nbytes
from .spmd import BACKENDS, RankResult, run_spmd
from .threads import ThreadComm, ThreadWorld

__all__ = [
    "BACKENDS",
    "Comm",
    "CrashPoint",
    "FaultPlan",
    "FaultyComm",
    "InjectedFailure",
    "MachineSpec",
    "MessageFault",
    "ProcessComm",
    "RankFaults",
    "RankResult",
    "REDUCE_OPS",
    "ReadFault",
    "SerialComm",
    "ThreadComm",
    "ThreadWorld",
    "TimedComm",
    "WorkCounters",
    "fault_site",
    "payload_nbytes",
    "run_processes",
    "run_spmd",
]
