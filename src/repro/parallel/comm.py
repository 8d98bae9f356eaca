"""Abstract MPI-like communicator.

The pMAFIA paper runs SPMD over MPI on an IBM SP2.  This module defines
the communicator interface the algorithms are written against; concrete
backends live in :mod:`repro.parallel.serial`, :mod:`.threads` and
:mod:`.simtime`.  The interface follows mpi4py conventions: generic
Python objects for ``send``/``bcast``/``gather`` and numpy arrays for
``allreduce`` (the paper's Reduce stores the combined vector *on every
processor*, i.e. an all-reduce).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import CommError

#: Binary associative reduction operators usable with :meth:`Comm.allreduce`.
REDUCE_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
    "prod": np.multiply,
    "land": np.logical_and,
    "lor": np.logical_or,
}


def resolve_op(op: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Look up a reduction operator by name."""
    try:
        return REDUCE_OPS[op]
    except KeyError:
        raise CommError(
            f"unknown reduce op {op!r}; expected one of {sorted(REDUCE_OPS)}"
        ) from None


def _observed(fn):
    """Report a public collective to the rank's observer, when one is
    attached (``comm.obs``, set by the driver for instrumented runs).

    Disabled cost: one attribute load and ``None`` check per call.
    Collectives compose — ``allreduce`` runs ``allgather`` runs
    ``gather`` + ``bcast`` — so the observer keeps a nesting depth and
    records only the outermost call; the payload reported is this
    rank's local contribution (first positional argument).  Observing
    never sends, never charges the cost model and only *reads* the
    virtual clock, so results and simulated times are unchanged.
    """
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        obs = self.obs
        if obs is None:
            return fn(self, *args, **kwargs)
        with obs.collective(fn.__name__, args[0] if args else None):
            return fn(self, *args, **kwargs)
    return wrapper


class Comm:
    """Communicator interface (one instance per SPMD rank).

    Subclasses must implement the point-to-point primitives ``send`` /
    ``recv``; the collectives here are written on top of them and come
    in two wire patterns selected by :attr:`strategy`:

    ``"flat"``
        Root-centred stars: the root exchanges one message per peer —
        O(p) messages on the root's critical path.  This is the cost
        model the paper's analysis assumes (communication O(α·S·p) per
        pass, §4.5).
    ``"tree"``
        Binomial trees, as real MPI implementations use — O(log p)
        latency on the critical path.

    Both produce identical results; the simulated-time backend makes
    their cost difference measurable (see the collectives ablation).
    """

    #: this process's rank in ``[0, size)``
    rank: int
    #: number of ranks in the communicator
    size: int
    #: collective wire pattern: "flat" (paper's model) or "tree"
    strategy: str = "flat"
    #: True when the backend's charges model the paper's measured SP2
    #: (the simulated-time backend): an injected delay is then charged
    #: to the virtual clock instead of slept on the wall clock
    models_paper_costs: bool = False
    #: the rank's observer (:class:`repro.obs.RankObs`) while a traced
    #: or metered run is active; ``None`` keeps collectives on the
    #: zero-cost path
    obs: Any = None

    # -- point to point ------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to rank ``dest`` (FIFO per (source, tag))."""
        raise NotImplementedError

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive the next object from rank ``source`` with ``tag``."""
        raise NotImplementedError

    # -- collectives ---------------------------------------------------
    @_observed
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        self.allgather(None)

    @_observed
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to every rank; returns it."""
        self._check_rank(root)
        if self.size == 1:
            return obj
        if self.strategy == "tree":
            return self._bcast_tree(obj, root)
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(obj, r, tag=_TAG_BCAST)
            return obj
        return self.recv(root, tag=_TAG_BCAST)

    def _bcast_tree(self, obj: Any, root: int) -> Any:
        """Binomial-tree broadcast: each rank receives once from its
        parent, then forwards to exponentially spaced children."""
        p = self.size
        vrank = (self.rank - root) % p          # virtual rank, root at 0
        mask = 1
        while mask < p:
            if vrank & mask:
                obj = self.recv((self.rank - mask) % p, tag=_TAG_BCAST)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < p:
                self.send(obj, (self.rank + mask) % p, tag=_TAG_BCAST)
            mask >>= 1
        return obj

    @_observed
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank on ``root`` (rank order);
        returns ``None`` on non-root ranks."""
        self._check_rank(root)
        if self.size == 1:
            return [obj]
        if self.strategy == "tree":
            return self._gather_tree(obj, root)
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for r in range(self.size):
                if r != root:
                    out[r] = self.recv(r, tag=_TAG_GATHER)
            return out
        self.send(obj, root, tag=_TAG_GATHER)
        return None

    def _gather_tree(self, obj: Any, root: int) -> list[Any] | None:
        """Binomial-tree gather: each rank folds its children's
        ``(vrank, obj)`` lists into its own, then ships the merged list
        to its parent."""
        p = self.size
        vrank = (self.rank - root) % p
        collected: list[tuple[int, Any]] = [(vrank, obj)]
        mask = 1
        while mask < p:
            if vrank & mask:
                self.send(collected, (self.rank - mask) % p,
                          tag=_TAG_GATHER)
                return None
            if vrank + mask < p:
                collected.extend(
                    self.recv((self.rank + mask) % p, tag=_TAG_GATHER))
            mask <<= 1
        out: list[Any] = [None] * p
        for child_vrank, value in collected:
            out[(child_vrank + root) % p] = value
        return out

    @_observed
    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object per rank onto every rank (rank order)."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    @_observed
    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one object per rank from ``root``."""
        self._check_rank(root)
        if self.rank == root and (objs is None or len(objs) != self.size):
            raise CommError(
                f"scatter needs exactly {self.size} objects on root")
        if self.size == 1:
            return objs[0]
        if self.strategy == "tree":
            return self._scatter_tree(objs, root)
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(objs[r], r, tag=_TAG_SCATTER)
            return objs[root]
        return self.recv(root, tag=_TAG_SCATTER)

    def _scatter_tree(self, objs: Sequence[Any] | None, root: int) -> Any:
        """Binomial-tree scatter (the mirror of :meth:`_bcast_tree`):
        each parent forwards to a child only the per-rank payloads the
        child's subtree will consume, keyed by virtual rank."""
        p = self.size
        vrank = (self.rank - root) % p
        if vrank == 0:
            payload = {v: objs[(v + root) % p] for v in range(p)}
        mask = 1
        while mask < p:
            if vrank & mask:
                payload = self.recv((self.rank - mask) % p,
                                    tag=_TAG_SCATTER)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < p:
                child = {v: payload[v]
                         for v in range(vrank + mask,
                                        min(vrank + 2 * mask, p))}
                self.send(child, (self.rank + mask) % p, tag=_TAG_SCATTER)
            mask >>= 1
        return payload[vrank]

    @_observed
    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        """Element-wise combine an equal-shaped array from every rank and
        return the combined vector on *all* ranks (the paper's Reduce).

        The wire pattern is the underlying allgather (unchanged by any
        backend fast path); the fold accumulates in place when the
        operator's output dtype matches, so combining p large histograms
        allocates one result buffer instead of p.
        """
        fn = resolve_op(op)
        array = np.asarray(array)
        contributions = self.allgather(array)
        result = contributions[0].copy()
        inplace = _can_fold_inplace(fn, result)
        for contrib in contributions[1:]:
            if contrib.shape != result.shape:
                raise CommError(
                    f"allreduce shape mismatch: {contrib.shape} vs {result.shape}")
            if inplace and contrib.dtype == result.dtype:
                fn(result, contrib, out=result)
            else:
                result = fn(result, contrib)
        return result

    @_observed
    def reduce(self, array: np.ndarray, op: str = "sum",
               root: int = 0) -> np.ndarray | None:
        """Like :meth:`allreduce` but the result lands only on ``root``."""
        fn = resolve_op(op)
        contributions = self.gather(np.asarray(array), root=root)
        if contributions is None:
            return None
        result = contributions[0].copy()
        inplace = _can_fold_inplace(fn, result)
        for contrib in contributions[1:]:
            if inplace and contrib.dtype == result.dtype:
                fn(result, contrib, out=result)
            else:
                result = fn(result, contrib)
        return result

    # -- cost accounting hooks (overridden by the sim backend) ----------
    def charge_cells(self, ops: float) -> None:
        """Charge ``ops`` record x cell updates (histogram build or CDU
        population) to this rank's virtual clock.  No-op outside the
        simulated-time backend."""

    def charge_pairs(self, pairs: float) -> None:
        """Charge ``pairs`` unit-pair comparisons (CDU join / repeat
        elimination) to this rank's virtual clock.  No-op outside the
        simulated-time backend."""

    def charge_io(self, nbytes: float, chunks: int = 1) -> None:
        """Charge a local-disk read of ``nbytes`` in ``chunks`` chunk
        accesses to this rank's virtual clock.  No-op outside the
        simulated-time backend."""

    def charge_wait(self, seconds: float) -> None:
        """Charge ``seconds`` of idle waiting (an injected message delay,
        a stalled device) to this rank's virtual clock.  No-op outside
        the simulated-time backend, where wall sleeps stand in."""

    def time(self) -> float:
        """This rank's virtual time in seconds (0.0 when untimed)."""
        return 0.0

    # -- helpers ---------------------------------------------------------
    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self.size:
            raise CommError(f"rank {r} out of range for size {self.size}")


def _can_fold_inplace(fn, result: np.ndarray) -> bool:
    """Whether folding with ``out=result`` preserves the out-of-place
    dtype (``np.logical_or`` on int arrays yields bool out-of-place but
    would stay int with ``out=``, so it must take the copying path)."""
    if not isinstance(fn, np.ufunc) or result.size == 0:
        return False
    empty = result[:0]
    return fn(empty, empty).dtype == result.dtype


_TAG_BCAST = -1
_TAG_GATHER = -2
_TAG_SCATTER = -3
