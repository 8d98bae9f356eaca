"""Deterministic simulated-time communicator.

:class:`TimedComm` wraps any real communicator (in practice the thread
backend) and maintains a per-rank *virtual clock*:

* ``charge_cells`` / ``charge_pairs`` / ``charge_io`` advance the clock
  by the :class:`~repro.parallel.machine.MachineSpec` cost of the work a
  rank actually performed;
* every ``send`` stamps the message with its arrival time — the sender's
  clock after paying latency + size/bandwidth — and ``recv`` advances the
  receiver's clock to at least that arrival;
* because the base-class collectives are composed from send/recv, clock
  *synchronisation at collectives falls out for free*: a gather leaves the
  root at the max of all participants' clocks plus the message costs, and
  the following bcast propagates that time back out — exactly the flat
  Reduce pattern whose cost the paper models as O(αSp) per pass.

The result: run the real algorithm on real data at any scale, and read
off deterministic "IBM SP2 seconds" per rank for speedup curves.

Charging policy for engine variants
-----------------------------------
The virtual machine models the *paper's* implementation: per-record
scans that re-read 8-byte records on every pass.  Faster engines in
this codebase (the per-rank bitmap index, the hash join) must
therefore **charge what the modelled machine would have paid, not what
they actually did**: the join charges the paper's triangular pair
count over equation (1) fences, and level passes charge float-width
I/O per chunk and the naive per-CDU cell cost in the same order and
amounts as a record scan — the bitmap-index
engine performs zero reads yet *replays* the identical
``charge_io``/``charge_cells`` sequence over the same chunk
boundaries.  Charges are plain float additions, so an identical call
sequence yields bit-identical clocks: virtual SP2 times are invariant
under the index's residency (``bitmap_budget``) while wall clock
drops.  Staging passes (bitmap index, shared-to-local copy) charge
nothing, as §5.2 excludes them.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

from .comm import Comm
from .machine import MachineSpec, WorkCounters


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a message payload in bytes.

    Numpy arrays and byte strings are counted exactly; containers are
    summed recursively with a small per-element framing overhead; any
    other object falls back to its pickled size.
    """
    if obj is None:
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 64
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj) + 16
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace")) + 16
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 16 + sum(payload_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return 16 + sum(payload_nbytes(k) + payload_nbytes(v)
                        for k, v in obj.items())
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TimedComm(Comm):
    """A communicator that also runs a virtual clock for its rank."""

    #: every charge is the paper's SP2 cost model (see ``Comm``)
    models_paper_costs = True

    def __init__(self, inner: Comm, machine: MachineSpec) -> None:
        self._inner = inner
        self.machine = machine
        self.rank = inner.rank
        self.size = inner.size
        self.clock = 0.0
        self.counters = WorkCounters()

    # -- point to point, with time stamps --------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        nbytes = payload_nbytes(obj)
        self.clock += self.machine.message_seconds(nbytes)
        self.counters.messages += 1
        self.counters.message_bytes += nbytes
        self._inner.send((self.clock, obj), dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        arrival, obj = self._inner.recv(source, tag)
        self.clock = max(self.clock, arrival)
        return obj

    # -- work charging ----------------------------------------------------
    def charge_cells(self, ops: float) -> None:
        self.clock += self.machine.cell_seconds(ops)
        self.counters.record_cell_ops += ops

    def charge_pairs(self, pairs: float) -> None:
        self.clock += self.machine.pair_seconds(pairs)
        self.counters.unit_pair_ops += pairs

    def charge_io(self, nbytes: float, chunks: int = 1) -> None:
        self.clock += self.machine.io_seconds(nbytes, chunks)
        self.counters.io_bytes += nbytes
        self.counters.io_chunks += chunks

    def charge_wait(self, seconds: float) -> None:
        # idle waiting (e.g. an injected message delay) advances only
        # this rank's clock; downstream ranks feel it solely through the
        # arrival stamps of messages this rank sends afterwards
        self.clock += seconds

    def time(self) -> float:
        return self.clock
