"""The four workloads: inputs, set-up, one measured step, output checks.

All are closed loops with one caller.  A step's program calls are timed
around the call only; input generation and every correctness check run
outside the timed region.  A workload's measured loop runs in whole
cycles (``cycle`` steps) so periodic traffic is always sampled evenly.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import MafiaParams, mafia
from repro.core.export import write_result_json
from repro.core.mafia import pmafia
from repro.serve import ClusterServer
from repro.stream import StreamingSession

from . import inputs
from .spec import ROOT

#: 200 fine bins windowed in pairs: 1-unit windows aligned with the
#: planted extents (the same settings the repo's other benches use)
PARAMS = MafiaParams(fine_bins=200, window_size=2, chunk_records=50_000)


@dataclass
class Step:
    """One measured step: the latency the workload reports, seconds per
    kind of program call made, and the records pushed through."""

    latency: float
    parts: dict[str, float]
    records: int
    traced: bool = False
    peak_mb: float = 0.0

    @property
    def busy(self) -> float:
        return sum(self.parts.values())


@dataclass
class Checks:
    """Output checks: ``attempted`` checked outputs, ``failures`` the
    descriptions of those that were wrong."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def cluster_digest(result) -> str:
    """sha256 over every cluster's (subspace dims, unit bins, points)."""
    h = hashlib.sha256()
    for c in result.clusters:
        h.update(repr((tuple(c.subspace.dims), c.units_bins.tolist(),
                       int(c.point_count))).encode())
    return h.hexdigest()


def result_fingerprint(result) -> str:
    """The cluster digest plus the whole per-level trace."""
    h = hashlib.sha256(cluster_digest(result).encode())
    for tr in result.trace:
        h.update(repr((tr.level, tr.n_cdus_raw, tr.n_cdus,
                       tr.n_dense)).encode())
        h.update(tr.dense.tobytes())
        h.update(np.asarray(tr.dense_counts, dtype=np.int64).tobytes())
    return h.hexdigest()


def naive_membership(model: dict, records: np.ndarray) -> np.ndarray:
    """The serving oracle, straight off the result JSON: a record is in
    a cluster when some DNF term has ``lo <= x < hi`` on every dim."""
    clusters = model["clusters"]
    out = np.zeros((len(records), len(clusters)), dtype=bool)
    for ci, cluster in enumerate(clusters):
        for term in cluster["dnf"]:
            hit = np.ones(len(records), dtype=bool)
            for dim, (lo, hi) in zip(cluster["subspace"], term["intervals"]):
                hit &= (records[:, dim] >= lo) & (records[:, dim] < hi)
            out[:, ci] |= hit
    return out


def _timed(fn: Callable, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class Workload:
    """Base protocol; see the subclasses."""

    cycle = 1

    def setup(self) -> float:
        """Build fresh program state ready for the first measured step;
        returns the seconds spent in program calls."""
        raise NotImplementedError

    def step(self, i: int, op) -> Step:
        """Run measured step ``i``; ``op(name)`` brackets each call."""
        raise NotImplementedError

    def verify(self, committed: str | None) -> Checks:
        """Output checks run after the loop (``committed`` is the digest
        recorded for this seed, if any)."""
        raise NotImplementedError

    def extras(self) -> dict[str, float]:
        """Numbers the workload knows beyond its step timings."""
        return {}


class Batch(Workload):
    """``mafia()`` over one planted data set, repeated."""

    def __init__(self, planted: inputs.Planted, sim_leg: bool) -> None:
        self.records = planted.records
        self.planted = sorted(planted.subspaces)
        self.domains = inputs.domains(self.records.shape[1])
        self.sim_leg = sim_leg
        self.digests: list[str] = []
        self.recovered: list[bool] = []
        self.sim = None

    def _record(self, result) -> None:
        self.digests.append(cluster_digest(result))
        self.recovered.append(
            sorted(c.subspace.dims for c in result.clusters) == self.planted)

    def setup(self) -> float:
        result, seconds = _timed(mafia, self.records, PARAMS, self.domains)
        self._record(result)
        return seconds

    def step(self, i: int, op) -> Step:
        with op("mafia"):
            result, seconds = _timed(mafia, self.records, PARAMS,
                                     self.domains)
        self._record(result)
        return Step(seconds, {"mafia": seconds}, len(self.records))

    def verify(self, committed: str | None) -> Checks:
        checks = Checks()
        first = self.digests[0]
        for i, (digest, ok) in enumerate(zip(self.digests, self.recovered)):
            checks.expect(digest == first,
                          f"run {i}: digest {digest[:12]} != {first[:12]}")
            checks.expect(ok, f"run {i}: planted subspaces not recovered")
        if committed is not None:
            checks.expect(first == committed,
                          f"digest {first[:12]} != committed "
                          f"{committed[:12]}")
        if self.sim_leg:
            self.sim = pmafia(self.records, 4, PARAMS, backend="sim",
                              domains=self.domains)
            checks.expect(cluster_digest(self.sim.result) == first,
                          "4-rank sim leg disagrees with serial mafia()")
        return checks

    def extras(self) -> dict[str, float]:
        if self.sim is None:
            return {}
        counters = [c for c in self.sim.counters if c is not None]
        times = self.sim.rank_times
        return {
            "sim.makespan_s": self.sim.makespan,
            "sim.unit_pair_ops": sum(c.unit_pair_ops for c in counters),
            "sim.record_cell_ops": sum(c.record_cell_ops for c in counters),
            "sim.io_bytes": sum(c.io_bytes for c in counters),
            "sim.imbalance": max(times) / (sum(times) / len(times)),
            "comm.messages": sum(c.messages for c in counters),
            "comm.message_bytes": sum(c.message_bytes for c in counters),
        }


class Stream(Workload):
    """A sliding-window session: fill, then (ingest, snapshot) per
    step under drifting traffic."""

    #: every CHECK_EVERY-th snapshot is compared with a cold mafia();
    #: prime, so the checks walk every phase of the drift period
    CHECK_EVERY = 37

    def __init__(self, source: inputs.DriftStream) -> None:
        self.source = source
        self.cycle = source.PERIOD
        self.domains = inputs.domains(source.N_DIMS)
        self.n_fill = source.window // source.delta
        self.fill = [source.block(t) for t in range(self.n_fill)]
        self.sampled: list[tuple[int, str]] = []
        self.session = None

    def setup(self) -> float:
        start = time.perf_counter()
        # drift_threshold=0 rebuilds segment artifacts at every ingest
        # that moved the histogram.  Under the default 0.25 a snapshot
        # can reuse a segment's cached counts after the bin edges moved
        # (WindowSegment.counts_for consults its cache before the edges
        # fingerprint) and differ from the cold run; see README.md.
        session = StreamingSession(PARAMS, domains=self.domains,
                                   window_records=self.source.window,
                                   drift_threshold=0.0)
        for block in self.fill:
            session.ingest(block)
        session.snapshot()
        seconds = time.perf_counter() - start
        self.session, self.t = session, self.n_fill
        return seconds

    def step(self, i: int, op) -> Step:
        block = self.source.block(self.t)
        with op("ingest"):
            _, ingest = _timed(self.session.ingest, block)
        with op("snapshot"):
            result, snapshot = _timed(self.session.snapshot)
        if i % self.CHECK_EVERY == 0:
            self.sampled.append((self.t, result_fingerprint(result)))
        self.t += 1
        return Step(snapshot, {"ingest": ingest, "snapshot": snapshot},
                    len(block))

    def verify(self, committed: str | None) -> Checks:
        checks = Checks()
        for t, fingerprint in self.sampled:
            live = np.concatenate([self.source.block(u) for u in
                                   range(t - self.n_fill + 1, t + 1)])
            cold = mafia(live, PARAMS, domains=self.domains)
            checks.expect(result_fingerprint(cold) == fingerprint,
                          f"snapshot after delta {t} != cold mafia()")
        return checks


def train(seed: int, scale: float, model_path: str, pool_path: str) -> None:
    """serve_mixed's inputs: batch_d15's clustering as result JSON, and
    the hot pool drawn from its training records."""
    training = inputs.batch_d15(seed, scale).records
    write_result_json(Path(model_path),
                      mafia(training, PARAMS, domains=inputs.domains(15)))
    np.save(pool_path, inputs.ServeTraffic.hot_pool(seed, training))


#: ``train`` in a fresh interpreter: argv is seed, scale, model, pool
TRAIN_CHILD = ("import sys; from benchmarks.e2e.workloads import train; "
               "train(int(sys.argv[1]), float(sys.argv[2]), *sys.argv[3:])")
#: the training child is killed (and the run fails) after this long
TRAIN_TIMEOUT_S = 120


class Serve(Workload):
    """A ``ClusterServer`` over batch_d15's clustering, fed a 3:1 mix of
    hot (cache-hitting) and novel (cache-bypassing) batches."""

    cycle = len(inputs.ServeTraffic.CYCLE)
    #: every CHECK_EVERY-th batch is compared with the naive oracle
    CHECK_EVERY = 50

    def __init__(self, seed: int, scale: float, work_dir: Path) -> None:
        # training runs in a child interpreter: its heap would otherwise
        # stay in this process and swamp the server's peak RSS.  A plain
        # subprocess, not multiprocessing: spawning through multiprocessing
        # starts a resource-tracker process that outlives this one.
        # subprocess.run waits for the child, and kills and reaps it when
        # the timeout or any other exception cuts the wait short.
        self.model_path = work_dir / "batch_d15.json"
        pool_path = work_dir / "hot_pool.npy"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        child = subprocess.run(
            [sys.executable, "-c", TRAIN_CHILD, str(seed), str(scale),
             str(self.model_path), str(pool_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            timeout=TRAIN_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"training the serve model exited "
                               f"{child.returncode}")
        self.model = json.loads(self.model_path.read_text())
        self.traffic = inputs.ServeTraffic(seed, np.load(pool_path), scale)
        self.warm = self.traffic.batch(0)
        self.sampled: list[tuple[int, np.ndarray]] = []
        self.server = None

    def setup(self) -> float:
        start = time.perf_counter()
        server = ClusterServer.from_file(self.model_path)
        server.score_batch(self.warm)
        seconds = time.perf_counter() - start
        self.server, self.start_stats = server, server.stats()
        return seconds

    def step(self, i: int, op) -> Step:
        index = i + 1                   # batch 0 warmed the server
        batch = self.traffic.batch(index)
        with op("score_batch"):
            scores, seconds = _timed(self.server.score_batch, batch)
        if index % self.CHECK_EVERY == 0:
            self.sampled.append((index, scores.membership.copy()))
        return Step(seconds, {self.traffic.kind(index): seconds},
                    len(batch))

    def verify(self, committed: str | None) -> Checks:
        checks = Checks()
        for index, membership in self.sampled:
            expected = naive_membership(self.model, self.traffic.batch(index))
            checks.expect(np.array_equal(membership, expected),
                          f"batch {index} != naive oracle")
        return checks

    def extras(self) -> dict[str, float]:
        now, then = self.server.stats(), self.start_stats
        hits = now["cache"]["hits"] - then["cache"]["hits"]
        misses = now["cache"]["misses"] - then["cache"]["misses"]
        batches = now["batches"] - then["batches"]
        records = now["records"] - then["records"]
        return {
            "serve.cache_hit_ratio": hits / max(1, hits + misses),
            "serve.bypass_ratio": (now["cache_bypasses"]
                                   - then["cache_bypasses"]) / max(1, batches),
            "serve.evaluated_ratio": (now["evaluations"]
                                      - then["evaluations"]) / max(1, records),
        }


def make(name: str, seed: int, scale: float, work_dir: Path) -> Workload:
    """Build a workload's inputs (untimed)."""
    if name == "batch_d15":
        return Batch(inputs.batch_d15(seed, scale), sim_leg=True)
    if name == "batch_deep_d50":
        return Batch(inputs.batch_deep_d50(seed, scale), sim_leg=False)
    if name == "stream_drift":
        return Stream(inputs.DriftStream(seed, scale))
    if name == "serve_mixed":
        return Serve(seed, scale, work_dir)
    raise ValueError(f"unknown workload {name!r}")
