"""Seeded streaming soak: a long drifting workload with oracle gates.

Drives a :class:`~repro.stream.engine.StreamingSession` on the
simulated-time backend through a deterministic drifting workload until
the virtual clock covers a target span (default 1800 s — a 30-minute
shift on the paper's machine model), taking periodic snapshots.  Two
gates decide pass/fail:

- **oracle gate** — every sampled snapshot must be bit-identical to a
  cold batch run over exactly the live window (cluster signature, DNF
  terms, per-level trace and ``pairs_examined``);
- **staleness gate** — the p95 snapshot wall latency must stay under
  the staleness budget, i.e. the incremental engine keeps serving
  fresh clusterings instead of degenerating into cold reruns.

Runnable as ``python -m repro.stream.soak``; exits non-zero when a
gate fails and writes a JSON report either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from typing import Any

import numpy as np

from ..core.result import ClusteringResult
from ..params import MafiaParams
from ..parallel.comm import Comm
from ..parallel.spmd import run_spmd
from .engine import StreamingSession


def result_fingerprint(result: ClusteringResult) -> str:
    """A stable digest of everything the differential oracle compares:
    clusters (subspace, member bins, point counts, DNF terms) and the
    per-level trace (sizes, dense units, dense counts)."""
    h = hashlib.sha256()
    h.update(str(result.n_records).encode())
    for c in result.clusters:
        h.update(repr(tuple(c.subspace.dims)).encode())
        h.update(np.ascontiguousarray(c.units_bins, dtype=np.int64)
                 .tobytes())
        h.update(str(c.point_count).encode())
        h.update(repr(c.dnf).encode())
    for tr in result.trace:
        h.update(repr((tr.level, tr.n_cdus_raw, tr.n_cdus,
                       tr.n_dense)).encode())
        h.update(tr.dense.tobytes())
        h.update(np.ascontiguousarray(tr.dense_counts,
                                      dtype=np.int64).tobytes())
    return h.hexdigest()


def pairs_examined(result: ClusteringResult) -> float:
    """join + dedup pairs from a metered result's metrics export."""
    if result.obs is None or result.obs.metrics is None:
        return float("nan")
    m = result.obs.metrics
    total = 0.0
    for name in ("join.pairs_examined", "dedup.pairs_examined"):
        if name in m:
            total += m[name]["value"]
    return total


def _drifting_block(rng: np.random.Generator, step: int, n: int,
                    d: int) -> np.ndarray:
    """One delta of a slowly drifting workload: a 3-d embedded cluster
    whose center wanders across the domain plus uniform noise, so the
    histogram, and with it the bin edges, drift."""
    block = rng.uniform(0.0, 100.0, size=(n, d))
    center = 20.0 + 55.0 * (0.5 + 0.5 * np.sin(step / 17.0))
    n_cluster = (2 * n) // 3
    for dim in (1, 3, 5):
        if dim < d:
            block[:n_cluster, dim] = rng.uniform(center, center + 8.0,
                                                 n_cluster)
    return block


def _soak_rank(comm: Comm, cfg: dict) -> dict:
    """One rank of the soak: every rank generates the identical seeded
    delta stream, so the cold oracle's live window is reconstructable
    without extra collectives."""
    params: MafiaParams = cfg["params"]
    d = cfg["dims"]
    domains = np.array([[0.0, 100.0]] * d)
    rng = np.random.default_rng(cfg["seed"])
    spill_dir = cfg.get("spill_dir") if comm.size == 1 else None
    session = StreamingSession(
        params, comm=comm, domains=domains,
        window_records=cfg["window_records"],
        spill_dir=spill_dir,
        compact_segments=cfg["compact_segments"])

    from ..core.pmafia import pmafia_rank  # deferred: heavy module

    history: list[np.ndarray] = []
    snapshot_wall: list[float] = []
    oracle_checks = 0
    failures: list[dict[str, Any]] = []
    step = 0
    while True:
        if comm.rank == 0:
            more = (comm.time() < cfg["target_virtual"]
                    and step < cfg["max_deltas"])
        else:
            more = None
        if not comm.bcast(more, root=0):
            break
        block = _drifting_block(rng, step, cfg["delta_records"], d)
        history.append(block)
        session.ingest(block)
        step += 1
        if step % cfg["snapshot_every"]:
            continue
        t0 = time.perf_counter()
        snap = session.snapshot()
        snapshot_wall.append(time.perf_counter() - t0)
        if step % cfg["oracle_every"]:
            continue
        oracle_checks += 1
        live = np.ascontiguousarray(
            np.concatenate(history, axis=0)[-cfg["window_records"]:])
        cold = pmafia_rank(comm, live, params, domains)
        mismatch = {}
        if result_fingerprint(snap) != result_fingerprint(cold):
            mismatch["fingerprint"] = [result_fingerprint(snap),
                                       result_fingerprint(cold)]
        sp, cp = pairs_examined(snap), pairs_examined(cold)
        if not (np.isnan(sp) and np.isnan(cp)) and sp != cp:
            mismatch["pairs_examined"] = [sp, cp]
        if mismatch:
            failures.append({"step": step, **mismatch})
    session.close()
    return {
        "deltas": step,
        "oracle_checks": oracle_checks,
        "failures": failures,
        "snapshot_wall": snapshot_wall,
        "virtual_seconds": comm.time(),
        "metrics": (session.obs.export().metrics
                    if session.obs is not None else None),
    }


def run_soak(*, seed: int = 20260807, nprocs: int = 2,
             backend: str = "sim", dims: int = 8,
             delta_records: int = 400, window_records: int = 4000,
             snapshot_every: int = 4, oracle_every: int = 8,
             target_virtual: float = 1800.0, max_deltas: int = 200,
             staleness_budget: float = 10.0,
             compact_segments: int = 16,
             spill_dir: str | None = None,
             params: MafiaParams | None = None) -> dict:
    """Run the soak and evaluate its gates; returns the JSON report."""
    params = (params or MafiaParams(fine_bins=200, tau=16)).with_(
        metrics=True)
    cfg = {
        "seed": seed, "dims": dims, "delta_records": delta_records,
        "window_records": window_records,
        "snapshot_every": snapshot_every, "oracle_every": oracle_every,
        "target_virtual": target_virtual, "max_deltas": max_deltas,
        "compact_segments": compact_segments,
        "spill_dir": spill_dir, "params": params,
    }
    t0 = time.perf_counter()
    ranks = run_spmd(_soak_rank, nprocs, backend=backend, args=(cfg,))
    wall = time.perf_counter() - t0
    rank0 = ranks[0].value
    latencies = sorted(rank0["snapshot_wall"])
    p95 = (latencies[max(0, int(len(latencies) * 0.95) - 1)]
           if latencies else 0.0)
    gates = {
        "oracle": not rank0["failures"] and rank0["oracle_checks"] > 0,
        "staleness": p95 <= staleness_budget,
    }
    stream_metrics = {}
    if rank0["metrics"]:
        stream_metrics = {k: v["value"] for k, v in
                          rank0["metrics"].items()
                          if k.startswith("stream.")
                          and "value" in v}
    return {
        "seed": seed, "nprocs": nprocs, "backend": backend,
        "deltas": rank0["deltas"],
        "oracle_checks": rank0["oracle_checks"],
        "failures": rank0["failures"],
        "virtual_seconds": rank0["virtual_seconds"],
        "wall_seconds": wall,
        "snapshots": len(rank0["snapshot_wall"]),
        "p95_snapshot_seconds": p95,
        "staleness_budget_seconds": staleness_budget,
        "stream_metrics": stream_metrics,
        "gates": gates,
        "ok": all(gates.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream.soak",
        description="Seeded streaming soak with oracle + staleness gates")
    parser.add_argument("--seed", type=int, default=20260807)
    parser.add_argument("--nprocs", type=int, default=2)
    parser.add_argument("--backend", default="sim")
    parser.add_argument("--dims", type=int, default=8)
    parser.add_argument("--delta-records", type=int, default=400)
    parser.add_argument("--window", type=int, default=4000,
                        dest="window_records")
    parser.add_argument("--snapshot-every", type=int, default=4)
    parser.add_argument("--oracle-every", type=int, default=8)
    parser.add_argument("--target-virtual", type=float, default=1800.0,
                        help="virtual seconds to cover (default: a "
                        "30-minute-equivalent shift)")
    parser.add_argument("--max-deltas", type=int, default=200)
    parser.add_argument("--staleness-budget", type=float, default=10.0,
                        help="p95 snapshot wall-latency gate, seconds")
    parser.add_argument("--spill", action="store_true",
                        help="stage deltas in a temp spill dir "
                        "(nprocs=1 only)")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    spill_dir = None
    tmp = None
    if args.spill:
        tmp = tempfile.TemporaryDirectory(prefix="pmafia-soak-")
        spill_dir = tmp.name
    try:
        report = run_soak(
            seed=args.seed, nprocs=args.nprocs, backend=args.backend,
            dims=args.dims, delta_records=args.delta_records,
            window_records=args.window_records,
            snapshot_every=args.snapshot_every,
            oracle_every=args.oracle_every,
            target_virtual=args.target_virtual,
            max_deltas=args.max_deltas,
            staleness_budget=args.staleness_budget,
            spill_dir=spill_dir)
    finally:
        if tmp is not None:
            tmp.cleanup()
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
