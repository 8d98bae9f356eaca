"""Batch membership scoring: the reference scorer and the server.

:func:`score_batch_naive` is the obvious implementation of the paper's
membership rule — locate every record's cell on the training grid
(:meth:`repro.types.Grid.locate_records`, the histogram pass's own
rule) and test it against each cluster's dense units — kept as the
ground truth the compiled engine is property-tested (and benchmarked)
against.

:class:`ClusterServer` is the front door: it loads a
:class:`~repro.core.result.ClusteringResult` (or its JSON export, or a
pre-compiled model) and scores record batches through the compiled
evaluator.  Whether a cache keyed by bin signature sits in front of
the evaluator is the model's call, not the caller's: the cache engages
when ``cache_size > 0`` and :attr:`CompiledModel.cache_pays` — when
evaluating a record costs more than probing a table for it, which a
model with a few clusters in one mask word never does and one with
hundreds of clusters always does.  Otherwise every batch is
``eval_idx(digitize(records))``, exactly the ``cache_size=0`` path.

An engaged cache is one sorted table: ascending keys (uint64, or
packed signature rows for very wide models), the matching membership
rows and each entry's ``last_used`` batch tick.  A whole batch is
probed with a single ``searchsorted`` and its hits answered with one
row gather; the missing records are grouped so each novel signature is
evaluated once, and a fill merges the sorted novel keys in and, past
``cache_size`` entries, drops the least recently used ones in one
vectorized step — LRU at batch granularity, with a hard bound of
``cache_size`` entries.  A batch whose signatures are mostly novel
(more than :data:`BYPASS_FRACTION` of its records) leaves the table
untouched and is evaluated whole; it has still paid for its keys, the
probe and the grouping, so cold traffic through an engaged cache costs
more than it would uncached (docs/PERFORMANCE.md has the figures).

The server is thread-safe (one lock guards the table swap and the
counters) and daemon-friendly: :meth:`ClusterServer.ascore_batch`
awaits the scoring on an executor so an asyncio service can serve
concurrent requests, and all counters are exposed via
:meth:`ClusterServer.stats` and — when constructed with an observer —
as ``serve.*`` metrics and spans (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..core.units import row_keys
from ..errors import DataError
from ..types import Cluster
from .compile import CompiledModel, compile_result

#: a batch whose distinct missing signatures exceed this fraction of its
#: records is evaluated vectorized and leaves the cache untouched
BYPASS_FRACTION = 0.25


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)``, but
    through a stable argsort — radix sort on integer keys, several
    times faster than unique's comparison sort on large batches (void
    keys sort by memcmp)."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    starts = np.empty(len(ranked), dtype=bool)
    starts[0] = True
    starts[1:] = ranked[1:] != ranked[:-1]
    group_of_rank = np.cumsum(starts) - 1
    inverse = np.empty(len(ranked), dtype=np.int64)
    inverse[order] = group_of_rank
    return ranked[starts], order[starts], inverse


def score_batch_naive(result_or_grid: Any, clusters: Sequence[Cluster],
                      records: np.ndarray) -> np.ndarray:
    """Reference scorer: ``(n, n_clusters)`` bool, True where the
    record's cell on the clustering's grid (``grid.locate_records``) is
    one of the cluster's ``units_bins`` rows."""
    grid = getattr(result_or_grid, "grid", result_or_grid)
    records = np.atleast_2d(np.asarray(records, dtype=np.float64))
    cells = grid.locate_records(records)
    member = np.empty((len(cells), len(clusters)), dtype=bool)
    for ci, cluster in enumerate(clusters):
        dims = list(cluster.subspace.dims)
        member[:, ci] = np.isin(
            row_keys(cells[:, dims]),
            row_keys(cluster.units_bins.astype(np.uint8)))
    return member


@dataclass(frozen=True)
class BatchScores:
    """One scored batch: membership plus the cluster metadata needed to
    answer "which clusters, in which subspaces" without re-touching the
    model."""

    #: (n, n_clusters) bool — record i belongs to cluster c
    membership: np.ndarray
    #: per cluster, its subspace dims
    subspaces: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return int(self.membership.shape[0])

    @property
    def n_clusters(self) -> int:
        return int(self.membership.shape[1])

    def cluster_ids(self, i: int) -> list[int]:
        """The cluster indices record ``i`` belongs to."""
        return np.nonzero(self.membership[i])[0].tolist()

    def record_subspaces(self, i: int) -> list[tuple[int, ...]]:
        """The subspaces of record ``i``'s clusters, in cluster order."""
        return [self.subspaces[c] for c in self.cluster_ids(i)]

    def subspace_masks(self) -> np.ndarray:
        """Per record, the union of its clusters' dimensions as packed
        uint64 bit masks: ``(n, ceil(maxdim/64))``, bit ``d`` of the
        row set iff the record matched a cluster whose subspace
        contains dimension ``d``."""
        maxdim = max((d for dims in self.subspaces for d in dims),
                     default=-1)
        n_words = max(1, -(-(maxdim + 1) // 64))
        cluster_bits = np.zeros((self.n_clusters, n_words),
                                dtype=np.uint64)
        for c, dims in enumerate(self.subspaces):
            for d in dims:
                cluster_bits[c, d // 64] |= np.uint64(1) << np.uint64(d % 64)
        out = np.zeros((len(self), n_words), dtype=np.uint64)
        for c in range(self.n_clusters):
            out[self.membership[:, c]] |= cluster_bits[c]
        return out

    def counts(self) -> np.ndarray:
        """Members per cluster over this batch: ``(n_clusters,)``."""
        return self.membership.sum(axis=0)


class ClusterServer:
    """Serve cluster membership for record batches at array speed.

    Parameters
    ----------
    model:
        A :class:`CompiledModel`, a ``ClusteringResult`` or its
        ``result_to_dict`` payload — anything :func:`compile_result`
        accepts.
    cache_size:
        Upper bound on the cache entries (distinct bin signatures)
        retained, least recently used evicted first; ``0`` disables the
        cache.  A model whose evaluation is cheaper than a probe
        (:attr:`CompiledModel.cache_pays` false) builds no cache at
        any size.
    obs:
        An optional :class:`repro.obs.RankObs`; when given, every batch
        records a ``score_batch`` span and ``serve.*`` metrics.  The
        ``None`` default is the zero-cost path.
    """

    def __init__(self, model: Any, *, cache_size: int = 65_536,
                 obs: Any = None) -> None:
        if isinstance(model, CompiledModel):
            self.model = model
        else:
            self.model = compile_result(model)
        if cache_size < 0:
            raise DataError(f"cache_size must be >= 0, got {cache_size}")
        self.cache_size = int(cache_size)
        #: whether batches go through the cache (fixed at construction)
        self.cache_engaged = self.cache_size > 0 and self.model.cache_pays
        self._obs = obs
        self._lock = threading.Lock()
        self._batches = 0
        self._records = 0
        self._bypasses = 0
        self._evaluated = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._tick = 0
        # the cache: (ascending keys, membership rows, last_used tick per
        # entry), replaced whole under the lock; a hit stamps its tick in
        # place, so a stamp into a table another thread has since
        # replaced loses one refresh, never an answer
        self._table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- construction ----------------------------------------------------
    @classmethod
    def from_json(cls, text: str, **kwargs: Any) -> "ClusterServer":
        """Build from a result or compiled-model JSON string (the two
        versioned export formats of :mod:`repro.core.export`)."""
        from ..core.export import model_from_dict, result_from_dict
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid model JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise DataError("model JSON must be an object")
        if payload.get("format") == "pmafia-compiled-model":
            return cls(model_from_dict(payload), **kwargs)
        return cls(result_from_dict(payload), **kwargs)

    @classmethod
    def from_file(cls, path: str | Path, **kwargs: Any) -> "ClusterServer":
        """Build from a result / compiled-model JSON file on disk."""
        return cls.from_json(Path(path).read_text(), **kwargs)

    # -- scoring ---------------------------------------------------------
    def score_batch(self, records: np.ndarray) -> BatchScores:
        """Score one record block: ``BatchScores`` with an ``(n,
        n_clusters)`` membership matrix.  Identical to
        :func:`score_batch_naive` on the model's grid bit for bit, for
        any cache state."""
        records = np.atleast_2d(np.asarray(records, dtype=np.float64))
        n = records.shape[0]
        t0 = time.perf_counter()
        span = (self._obs.span("score_batch", cat="serve", n_records=n)
                if self._obs is not None else nullcontext())
        with span:
            codes = self.model.digitize(records)
            if not self.cache_engaged:
                membership = self.model.eval_idx(codes)
                hits, misses, evaluated, bypassed = 0, 0, n, False
            else:
                membership, hits, misses, evaluated, bypassed = \
                    self._score_cached(codes, n)
        seconds = time.perf_counter() - t0
        with self._lock:
            self._batches += 1
            self._records += n
            self._evaluated += evaluated
            self._bypasses += bypassed
            self._hits += hits
            self._misses += misses
        if self._obs is not None:
            self._obs.serve_batch(n, seconds, hits=hits, misses=misses,
                                  evaluated=evaluated, bypassed=bypassed)
        return BatchScores(membership=membership,
                           subspaces=self.model.subspaces)

    def _score_cached(self, codes: np.ndarray, n: int
                      ) -> tuple[np.ndarray, int, int, int, bool]:
        """The cached path: probe the table with one ``searchsorted``,
        answer hits with one row gather, then group only the missing
        records and evaluate each novel signature once.  Hit/miss
        counts are record-granular; a bypassed batch counts as
        neither, only as a bypass."""
        if n == 0:
            return (np.zeros((0, self.model.n_clusters), dtype=bool),
                    0, 0, 0, False)
        keys = self.model.group_keys(codes)
        with self._lock:
            self._tick += 1
            tick, table = self._tick, self._table
        if table is not None:
            pk, pr, used = table
            pos = np.searchsorted(pk, keys)
            np.minimum(pos, len(pk) - 1, out=pos)
            hit = pk[pos] == keys
            n_hit = int(np.count_nonzero(hit))
        else:
            hit = None
            n_hit = 0
        if n_hit == n:
            used[pos] = tick
            return pr[pos], n, 0, 0, False

        if hit is None:
            miss_idx = None
            miss_keys = keys
        else:
            miss_idx = np.nonzero(~hit)[0]
            miss_keys = keys[miss_idx]
        uniq, first, inverse = _group(miss_keys)
        u = len(uniq)
        if u > BYPASS_FRACTION * n:
            # mostly-novel traffic: filling the cache would cost more
            # than it saves, so evaluate vectorized and leave the
            # cache untouched
            return self.model.eval_idx(codes), 0, 0, n, True

        first_global = first if miss_idx is None else miss_idx[first]
        fresh = self.model.eval_idx(codes[first_global])
        if miss_idx is None:
            membership = fresh[inverse]
        else:
            hit_pos = pos[hit]
            used[hit_pos] = tick
            membership = np.empty((n, self.model.n_clusters),
                                  dtype=bool)
            membership[hit] = pr[hit_pos]
            membership[miss_idx] = fresh[inverse]
        with self._lock:
            self._fill(uniq, fresh, tick)
        return membership, n_hit, n - n_hit, u, False

    def _fill(self, new_keys: np.ndarray, new_rows: np.ndarray,
              tick: int) -> None:
        """Merge freshly evaluated signatures (ascending — :func:`_group`
        output) into the table, then drop the least recently used
        entries past ``cache_size``.  The caller holds the lock.  Keys
        a concurrent batch has inserted since this one probed are
        refreshed, not duplicated."""
        if self._table is None:
            keys, rows = new_keys, np.ascontiguousarray(new_rows)
            used = np.full(len(keys), tick, dtype=np.int64)
        else:
            keys, rows, used = self._table
            at = np.searchsorted(keys, new_keys)
            present = keys[np.minimum(at, len(keys) - 1)] == new_keys
            if present.any():
                used[at[present]] = tick
                novel = ~present
                at, new_keys, new_rows = \
                    at[novel], new_keys[novel], new_rows[novel]
            keys = np.insert(keys, at, new_keys)
            rows = np.insert(rows, at, new_rows, axis=0)
            used = np.insert(used, at, tick)
        excess = len(keys) - self.cache_size
        if excess > 0:
            keep = np.ones(len(keys), dtype=bool)
            keep[np.argpartition(used, excess - 1)[:excess]] = False
            keys, rows, used = keys[keep], rows[keep], used[keep]
            self._evictions += excess
        self._table = (keys, rows, used)

    def score_one(self, record: Sequence[float]) -> BatchScores:
        """Score a single record (a length-1 batch)."""
        return self.score_batch(np.asarray(record, dtype=np.float64)
                                .reshape(1, -1))

    async def ascore_batch(self, records: np.ndarray,
                           executor: Any = None) -> BatchScores:
        """Asyncio-friendly scoring: runs :meth:`score_batch` on the
        event loop's default (or the given) executor so a daemon can
        serve concurrent requests without blocking the loop."""
        import asyncio
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            executor, self.score_batch, records)

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Lifetime serving counters plus the cache's own (JSON-ready;
        ``"cache"`` is ``None`` when ``cache_size`` is 0, and its
        ``"engaged"`` says whether this model's batches use it)."""
        with self._lock:
            cache = None if self.cache_size == 0 else {
                "entries": 0 if self._table is None else len(self._table[0]),
                "maxsize": self.cache_size,
                "hits": self._hits, "misses": self._misses,
                "evictions": self._evictions,
                "engaged": self.cache_engaged}
            return {
                "batches": self._batches,
                "records": self._records,
                "evaluations": self._evaluated,
                "cache_bypasses": self._bypasses,
                "n_clusters": self.model.n_clusters,
                "n_terms": self.model.n_terms,
                "cache": cache,
            }
