#!/usr/bin/env python3
"""Serve a clustering model against a skewed record stream.

Clusters a synthetic data set once, compiles the result into the
packed-interval serving engine (`repro.serve`), ships the compact
compiled-model JSON the way a serving process would receive it, then
scores a simulated hot-key stream in batches — showing whether the
model engages the signature cache (a two-cluster model evaluates faster
than a cache probe, so it does not) and the batch API's per-record
answers (cluster ids and their subspaces).

Run:  python examples/score_stream.py
"""

from __future__ import annotations

import numpy as np

from repro import MafiaParams, mafia
from repro.core.export import model_to_json
from repro.datagen import ClusterSpec, generate
from repro.serve import ClusterServer


def main() -> None:
    # --- train: two clusters in their own 4-d subspaces (paper §5.1)
    specs = [
        ClusterSpec.box([1, 6, 7, 8],
                        [(20, 40), (10, 30), (50, 80), (60, 70)],
                        name="regime A"),
        ClusterSpec.box([2, 3, 4, 5],
                        [(5, 25), (40, 60), (70, 90), (30, 50)],
                        name="regime B"),
    ]
    dataset = generate(n_records=20_000, n_dims=10, clusters=specs,
                       seed=11)
    result = mafia(dataset.records, MafiaParams(chunk_records=5000))
    print(f"model: {len(result.clusters)} clusters from "
          f"{dataset.n_records} records")

    # --- ship: the compact compiled-model JSON is all a scorer needs
    server = ClusterServer(result)
    wire = model_to_json(server.model)
    server = ClusterServer.from_json(wire)
    print(f"compiled model: {server.model.n_terms} DNF terms, "
          f"{len(wire)} bytes on the wire")

    # --- serve: a skewed stream — many requests, few distinct records
    rng = np.random.default_rng(7)
    hot = dataset.records[rng.integers(0, dataset.n_records, size=200)]
    matched = 0
    for _ in range(10):  # ten batches of 2 000 requests
        batch = hot[rng.integers(0, len(hot), size=2000)]
        scores = server.score_batch(batch)
        matched += int(scores.membership.any(axis=1).sum())
    stats = server.stats()
    print(f"served {stats['records']} requests in {stats['batches']} "
          f"batches: {matched} matched >=1 cluster")
    cache = stats["cache"]
    print(f"cache engaged: {cache['engaged']} — {cache['hits']} hits, "
          f"{stats['evaluations']} evaluations "
          f"(distinct hot signatures <= {len(hot)})")

    # --- answer shape: one record's clusters and their subspaces
    one = server.score_one(hot[0])
    ids = one.cluster_ids(0)
    print(f"record 0 -> clusters {ids}, subspaces "
          f"{[tuple(s) for s in one.record_subspaces(0)]}")


if __name__ == "__main__":
    main()
