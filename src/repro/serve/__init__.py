"""Cluster serving: compiled DNF membership scoring at batch speed.

The millions-of-users front door over a finished clustering.  Compile
a :class:`~repro.core.result.ClusteringResult`'s minimal DNF cluster
descriptions once (:func:`compile_result`), then answer "which clusters
does this record belong to, in which subspaces" for whole record
batches via vectorized packed-interval evaluation — a record is in a
cluster when training would locate it in one of the cluster's cells —
with a bounded LRU cache keyed by per-record bin signature (one sorted
table) so hot traffic skips evaluation entirely.

Entry points
------------
* :class:`ClusterServer` — load a result (object, dict or JSON file),
  call :meth:`~ClusterServer.score_batch`; thread-safe, asyncio-aware
  (:meth:`~ClusterServer.ascore_batch`), optionally metered through a
  :class:`repro.obs.RankObs` (``serve.*`` metrics + spans).
* :func:`compile_result` / :func:`compile_clusters` — build the
  reusable :class:`CompiledModel` directly, over the clustering's grid.
* :func:`score_batch_naive` — the reference scorer (training's locate
  rule plus a unit lookup) the compiled engine is property-tested and
  benchmarked against.
* ``repro.core.export.model_to_json`` / ``model_from_json`` — the
  versioned compiled-model interchange format.

See ``docs/SERVING.md`` for the full query API, cache semantics and
performance numbers, and ``examples/score_stream.py`` for an
end-to-end walkthrough.
"""

from __future__ import annotations

from .compile import (CompiledModel, compile_arrays, compile_clusters,
                      compile_result)
from .engine import BatchScores, ClusterServer, score_batch_naive

__all__ = [
    "BatchScores",
    "ClusterServer",
    "CompiledModel",
    "compile_arrays",
    "compile_clusters",
    "compile_result",
    "score_batch_naive",
]
