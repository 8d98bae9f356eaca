#!/usr/bin/env python
"""Pinned hot-path benchmark suite with a JSON trajectory output.

Runs the kernels the system's wall-clock time actually goes to —
record location, bitmap-index staging, the indexed AND/popcount
population pass on clustered level-N lattices (``populate_levelN_indexed``),
histogramming, the CDU join and repeat elimination — including a bulk
clustered-lattice join on > 20k raw CDUs, and a serving triple
(``score_batch_naive`` / ``_compiled`` / ``_cached``) that scores one
skewed hot-key batch through the reference scorer (locate plus a unit
lookup), the compiled packed-interval evaluator and a cache-warm
``ClusterServer`` — plus an end-to-end 5-level pMAFIA run with the
bitmap index resident and spilled, and writes one JSON document
(kernel → median seconds, machine info, e2e times).  Kernels are for
diagnosis; the end-to-end numbers that judge a change come from
``python -m benchmarks.e2e``.

Usage::

    python benchmarks/run_bench.py --output BENCH_pr2.json
    python benchmarks/run_bench.py --smoke --output bench.json \
        --compare benchmarks/bench_smoke_baseline.json --fail-over 3.0

``--smoke`` runs a scaled-down suite suitable for CI; ``--compare``
checks each kernel's median against a previously committed baseline of
the *same* suite and exits non-zero when any kernel regressed by more
than ``--fail-over`` (default 3x — wide enough for shared-runner noise,
narrow enough to catch an accidentally de-vectorised kernel).

The e2e section verifies that the resident and spilled runs produce
identical clusters and that the result passes
``repro.analysis.verify_result`` (an independent brute-force recount),
so a reported time can never come from a silently wrong fast path.

The observability section re-runs the e2e workload with tracing and
metrics off vs on, reports the enabled-tracing overhead ratio, and —
under ``--max-obs-overhead`` (CI passes 1.10) — fails when the
instrumented run is more than that factor slower.  ``--obs-dir DIR``
additionally exports the instrumented run's Chrome trace, metrics
snapshot and run manifest to ``DIR`` after validating span integrity,
which is what the CI smoke job uploads as workflow artifacts.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import platform
import statistics
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
for p in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402

from repro.analysis.verify import verify_result  # noqa: E402
from repro.core.candidates import hash_join_plan, join_all  # noqa: E402
from repro.core.histogram import fine_histogram_local  # noqa: E402
from repro.core.mafia import mafia  # noqa: E402
from repro.core.population import (IndexedPopulator,  # noqa: E402
                                   populate_local)
from repro.core.units import UnitTable  # noqa: E402
from repro.io import ArraySource, stage_bitmap_index  # noqa: E402
from repro.parallel import SerialComm  # noqa: E402
from repro.serve import (ClusterServer, compile_clusters,  # noqa: E402
                         score_batch_naive)
from repro.types import (Cluster, DimensionGrid, DNFTerm, Grid,  # noqa: E402
                         Subspace)

from benchmarks.workloads import (bench_params, clustered_dataset,  # noqa: E402
                                  domains)

SCHEMA = "pmafia-bench/1"


def uniform_grid(d: int, nbins: int) -> Grid:
    dims = []
    for j in range(d):
        dims.append(DimensionGrid(dim=j, lo=0.0, hi=100.0, n_fine=nbins,
                                  cuts=tuple(range(nbins + 1)),
                                  thresholds=(1.0,) * nbins))
    return Grid(dims=tuple(dims))


def random_units(n_units: int, k: int, n_dims: int, nbins: int,
                 seed: int) -> UnitTable:
    rng = np.random.default_rng(seed)
    units = []
    for _ in range(n_units):
        dims = sorted(rng.choice(n_dims, size=k, replace=False).tolist())
        units.append([(d, int(rng.integers(0, nbins))) for d in dims])
    return UnitTable.from_pairs(units).unique()


def clustered_units(n_clusters: int, cluster_dim: int, level: int,
                    n_dims: int, nbins: int, seed: int) -> UnitTable:
    """Level-``level`` units from embedded clusters: every ``level``-subset
    of each cluster's dimensions, at the cluster's bins.  This is the
    lattice shape MAFIA actually joins — units sharing most of their
    tokens — so joinable pairs are everywhere and the raw CDU count is
    combinatorial in ``cluster_dim``."""
    from itertools import combinations

    rng = np.random.default_rng(seed)
    units = []
    for _ in range(n_clusters):
        dims = sorted(rng.choice(n_dims, size=cluster_dim,
                                 replace=False).tolist())
        bins = {d: int(rng.integers(0, nbins)) for d in dims}
        for subset in combinations(dims, level):
            units.append([(d, bins[d]) for d in subset])
    return UnitTable.from_pairs(units).unique()


def serving_grid(n_dims: int, nbins: int, seed: int) -> Grid:
    """Adaptive-grid-shaped serving grid: ``nbins`` bins per dim over
    [0, 100) at random cuts of 1000 fine intervals."""
    rng = np.random.default_rng(seed)
    dims = []
    for j in range(n_dims):
        inner = np.sort(rng.choice(np.arange(1, 1000), size=nbins - 1,
                                   replace=False))
        dims.append(DimensionGrid(dim=j, lo=0.0, hi=100.0, n_fine=1000,
                                  cuts=(0, *inner.tolist(), 1000),
                                  thresholds=(1.0,) * nbins))
    return Grid(dims=tuple(dims))


def dnf_clusters(grid: Grid, n_clusters: int, seed: int) -> list[Cluster]:
    """Synthetic serving clusters shaped like MAFIA output over
    ``grid``: a few subspace dims each, 2-10 DNF terms per cluster,
    each term a box of 1-4 bins per dim whose bounds are grid edges;
    a cluster's units are every cell of its boxes' union."""
    from itertools import product

    rng = np.random.default_rng(seed)
    clusters = []
    for _ in range(n_clusters):
        k = int(rng.integers(3, 6))
        dims = sorted(rng.choice(grid.ndim, size=k, replace=False).tolist())
        sub = Subspace(tuple(dims))
        cells = set()
        terms = []
        for _ in range(int(rng.integers(2, 11))):
            box = []
            for d in dims:
                first = int(rng.integers(0, grid[d].nbins))
                stop = min(grid[d].nbins, first + int(rng.integers(1, 5)))
                box.append((first, stop))
            cells.update(product(*(range(a, b) for a, b in box)))
            terms.append(DNFTerm(subspace=sub, intervals=tuple(
                (grid[d].edges[a], grid[d].edges[b])
                for d, (a, b) in zip(dims, box))))
        clusters.append(Cluster(
            subspace=sub, units_bins=np.array(sorted(cells)),
            dnf=tuple(terms), point_count=1))
    return clusters


def median_time(fn, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def min_time(fn, runs: int) -> float:
    """Best-of-N: the right statistic for overhead *ratios*, where
    scheduler noise only ever inflates a sample."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def build_suite(smoke: bool, only: str | None = None):
    """The pinned kernel set at full or smoke scale.

    Returns ``(kernels, e2e_config, *loads)`` where kernels maps name ->
    (callable, runs).  ``only`` is an fnmatch glob over kernel names:
    kernels it doesn't match are dropped *and* the expensive workload
    staging behind them (bitmap index, serving model, streaming
    session) is skipped entirely, so ``--only 'score_batch_*'`` builds
    just that workload.  Loads whose block was skipped come back
    ``None``.
    """
    if smoke:
        n_records, n_dims, nbins = 20_000, 8, 8
        chunk = 10_000
        join_units, dedup_base = 200, 1_000
        runs = 3
    else:
        # the reference load: 200k records x ~3000 4-d CDUs
        n_records, n_dims, nbins = 200_000, 15, 10
        chunk = 50_000
        join_units, dedup_base = 800, 5_000
        runs = 5

    rng = np.random.default_rng(7)
    records = rng.random((n_records, n_dims)) * 100.0
    source = ArraySource(records)
    grid = uniform_grid(n_dims, nbins)
    comm = SerialComm()

    def wanted(*names):
        """Does the ``--only`` glob (if any) match one of ``names``?"""
        return only is None or any(fnmatch.fnmatch(n, only)
                                   for n in names)

    # bulk join load: at full scale the 8 x C(12,3) = 1760-unit lattice
    # emits > 20k raw CDUs, the regime where a quadratic pivot loop
    # would dominate and the sub-signature hash join's single lexsort
    # does not.
    bulk = bulk_plan = bulk_raw = None
    if wanted("cdu_join_hash_bulk", "hash_join_plan_bulk",
              "cdu_dedup_bulk"):
        if smoke:
            bulk = clustered_units(3, 8, 3, 20, nbins, seed=12)
        else:
            bulk = clustered_units(8, 12, 3, 30, nbins, seed=12)
        bulk_plan = hash_join_plan(bulk)
        bulk_raw = join_all(bulk, plan=bulk_plan).cdus

    # level-N population loads: one *nested* clustered lattice — every
    # level's units extend the previous level's, the shape real level
    # passes count — timed on the bitmap index.  One populator is
    # shared across levels, exactly as `mafia()` runs it, and passed
    # over every level once first so the index tiles are warm.
    index = indexed_pop = None
    level_units = {}
    if wanted("bitmap_index_build",
              *(f"populate_level{lv}_indexed" for lv in (2, 3, 4))):
        index = stage_bitmap_index(source, comm, grid, chunk)
        indexed_pop = IndexedPopulator(index)
        lattice_clusters = 8 if smoke else 40
        lattice_dim = 5 if smoke else 6
        level_units = {
            lv: clustered_units(lattice_clusters, lattice_dim, lv, n_dims,
                                nbins, seed=20)
            for lv in (1, 2, 3, 4)
        }
        for lvu in level_units.values():
            populate_local(source, comm, grid, lvu, chunk,
                           indexed=indexed_pop)
        del level_units[1]      # level 1 only warms the index

    # serving load: a skewed hot-key trace — every record in the batch
    # is one of ``pool_n`` distinct rows, the shape of production
    # scoring traffic — so all three engines score the *same* batch:
    # the reference scorer, the compiled packed-interval
    # evaluator, and a cache-warm server answering from signatures.
    # same model shape at both scales (32 clusters in a 3-word mask:
    # the shape that makes the cache pay, CompiledModel.cache_pays);
    # smoke just shrinks the batch
    serve_load = None
    serve_grid = serve_cls = serve_model = serve_server = None
    serve_records = None
    if wanted("score_batch_naive", "score_batch_compiled",
              "score_batch_cached"):
        serve_dims, serve_n_clusters = 12, 32
        if smoke:
            serve_batch, serve_pool = 100_000, 1_000
        else:
            serve_batch, serve_pool = 1_000_000, 4_000
        serve_grid = serving_grid(serve_dims, 12, seed=30)
        serve_cls = dnf_clusters(serve_grid, serve_n_clusters, seed=31)
        serve_model = compile_clusters(serve_grid, serve_cls)
        rng31 = np.random.default_rng(32)
        pool = rng31.uniform(0.0, 100.0, size=(serve_pool, serve_dims))
        serve_records = pool[rng31.integers(0, serve_pool,
                                            size=serve_batch)]
        serve_server = ClusterServer(serve_model)
        serve_server.score_batch(serve_records)       # warm the cache
        serve_identical = bool(np.array_equal(
            serve_model.score(serve_records),
            score_batch_naive(serve_grid, serve_cls, serve_records)))
        serve_load = {
            "n_clusters": int(serve_model.n_clusters),
            "n_terms": int(serve_model.n_terms),
            "n_dims": int(serve_dims),
            "batch_records": int(serve_batch),
            "hot_pool_rows": int(serve_pool),
            "identical": serve_identical,
            # the cached row must time the cache, not the evaluator
            "cache_engaged": serve_server.stats()["cache"]["engaged"],
        }

    # streaming load: a warm sliding-window session under drifting
    # traffic.  ``ingest_delta`` slides the window by one delta;
    # ``snapshot_vs_cold`` clusters the live window incrementally —
    # its headline ratio (doc["stream"]["snapshot_speedup"]) is
    # against ``cold_batch_window``, a cold batch run over the same
    # live records, and both sides must agree bit for bit.
    stream_load = None
    stream_session = stream_block = stream_live = stream_params = None
    stream_domains = None
    if wanted("ingest_delta", "snapshot_vs_cold", "cold_batch_window"):
        from repro.stream import StreamingSession
        from repro.stream.soak import result_fingerprint
        stream_dims = 8
        stream_domains = np.array([[0.0, 100.0]] * stream_dims)
        if smoke:
            stream_delta, stream_window = 400, 3_200
        else:
            stream_delta, stream_window = 2_000, 16_000
        stream_params = bench_params(chunk, tau=16)
        stream_rng = np.random.default_rng(33)
        stream_state = {"step": 0, "history": []}

        def stream_block():
            i = stream_state["step"]
            stream_state["step"] += 1
            block = stream_rng.uniform(0.0, 100.0,
                                       size=(stream_delta, stream_dims))
            center = 20.0 + 55.0 * (0.5 + 0.5 * np.sin(i / 17.0))
            k = (2 * stream_delta) // 3
            for dim in (1, 3, 5):
                block[:k, dim] = stream_rng.uniform(center, center + 8.0,
                                                    k)
            stream_state["history"].append(block)
            keep = -(-stream_window // stream_delta) + 1
            stream_state["history"] = stream_state["history"][-keep:]
            return block

        def stream_live():
            return np.ascontiguousarray(
                np.concatenate(stream_state["history"])[-stream_window:])

        stream_session = StreamingSession(stream_params,
                                          domains=stream_domains,
                                          window_records=stream_window)
        for _ in range(stream_window // stream_delta):
            stream_session.ingest(stream_block())
        stream_session.snapshot()           # warm indexes and memos
        stream_identical = bool(
            result_fingerprint(stream_session.snapshot())
            == result_fingerprint(mafia(stream_live(), stream_params,
                                        domains=stream_domains)))
        stream_load = {
            "delta_records": int(stream_delta),
            "window_records": int(stream_window),
            "n_dims": int(stream_dims),
            "identical": stream_identical,
        }

    dense = random_units(join_units, 3, min(n_dims, 12), 6, seed=9)
    rng10 = np.random.default_rng(10)
    dup = []
    for _ in range(dedup_base):
        ds = sorted(rng10.choice(min(n_dims, 12), size=4,
                                 replace=False).tolist())
        dup.append([(d, int(rng10.integers(0, 6))) for d in ds])
    dup_table = UnitTable.from_pairs(dup * 10)

    kernels = {
        "locate_records": (lambda: grid.locate_records(records), runs),
        "fine_histogram_local": (
            lambda: fine_histogram_local(source, comm,
                                         np.array([[0.0, 100.0]] * n_dims),
                                         1000 if not smoke else 200, chunk),
            runs),
        "cdu_join": (lambda: join_all(dense), runs),
        "repeat_mask": (lambda: dup_table.repeat_mask(), runs),
        "cdu_join_hash_bulk": (lambda: join_all(bulk), runs),
        "hash_join_plan_bulk": (lambda: hash_join_plan(bulk), runs),
        "cdu_dedup_bulk": (lambda: bulk_raw.repeat_mask(), runs),
        "bitmap_index_build": (
            lambda: stage_bitmap_index(source, comm, grid, chunk), runs),
        "score_batch_naive": (
            lambda: score_batch_naive(serve_grid, serve_cls,
                                      serve_records), runs),
        "score_batch_compiled": (
            lambda: serve_model.score(serve_records), runs),
        "score_batch_cached": (
            lambda: serve_server.score_batch(serve_records), runs),
        "ingest_delta": (
            lambda: stream_session.ingest(stream_block()), runs),
        "snapshot_vs_cold": (lambda: stream_session.snapshot(), runs),
        "cold_batch_window": (
            lambda: mafia(stream_live(), stream_params,
                          domains=stream_domains), runs),
    }
    for lv, lvu in level_units.items():
        kernels[f"populate_level{lv}_indexed"] = (
            lambda u=lvu: populate_local(source, comm, grid, u, chunk,
                                         indexed=indexed_pop), runs)

    kernels = {name: kv for name, kv in kernels.items() if wanted(name)}

    index_load = None
    if index is not None:
        index_load = {
            "levels": sorted(level_units),
            "units_per_level": {str(lv): int(u.n_units)
                                for lv, u in level_units.items()},
            "index_nbytes": int(index.nbytes),
            "resident": bool(index.resident),
        }

    join_load = {}
    if bulk is not None:
        join_load.update(n_units=int(bulk.n_units),
                         raw_cdus=int(bulk_plan.n_pairs))

    if smoke:
        e2e = dict(n_records=20_000, n_dims=8, n_clusters=2, cluster_dim=4,
                   chunk=10_000)
    else:
        e2e = dict(n_records=200_000, n_dims=15, n_clusters=10,
                   cluster_dim=5, chunk=50_000)
    return kernels, e2e, join_load, index_load, serve_load, stream_load


def cluster_signature(result):
    """An order-stable, comparison-safe digest of the clusters."""
    return [
        (tuple(c.subspace.dims), c.units_bins.tolist(), c.point_count)
        for c in result.clusters
    ]


def run_e2e(cfg: dict) -> dict:
    ds = clustered_dataset(cfg["n_records"], cfg["n_dims"],
                           n_clusters=cfg["n_clusters"],
                           cluster_dim=cfg["cluster_dim"], seed=3)
    doms = domains(cfg["n_dims"])
    base = bench_params(chunk_records=cfg["chunk"])

    # the default run keeps the bitmap index resident; a one-byte
    # budget spills it to mmap tiles and must not change the result
    t0 = time.perf_counter()
    resident = mafia(ds.records, base, domains=doms)
    t_resident = time.perf_counter() - t0

    t0 = time.perf_counter()
    spilled = mafia(ds.records, base.with_(bitmap_budget=1), domains=doms)
    t_spilled = time.perf_counter() - t0

    identical = cluster_signature(resident) == cluster_signature(spilled)
    trace_identical = len(resident.trace) == len(spilled.trace) and all(
        a.level == b.level and a.n_cdus == b.n_cdus
        and a.n_dense == b.n_dense
        and np.array_equal(a.dense_counts, b.dense_counts)
        for a, b in zip(resident.trace, spilled.trace))
    report = verify_result(resident, ds.records, cfg["chunk"])

    return {
        "workload": cfg,
        "levels": len(resident.trace),
        "n_clusters_found": len(resident.clusters),
        "resident_s": round(t_resident, 4),
        "spilled_s": round(t_spilled, 4),
        "clusters_identical": bool(identical),
        "trace_identical": bool(trace_identical),
        "verify_ok": bool(report.ok),
        "verify_findings": report.findings,
    }


def run_obs_overhead(cfg: dict, runs: int,
                     obs_dir: Path | None = None) -> dict:
    """Median e2e wall time with observability off vs fully on.

    The two configurations must produce identical clusters (the
    conformance property — tracing only *reads* clocks).  When
    ``obs_dir`` is given, the instrumented run's Chrome trace, metrics
    snapshot and run manifest are written there after an integrity
    check of the merged span timeline.
    """
    from repro.obs import as_run_obs, write_chrome_trace, \
        write_metrics_snapshot
    from repro.obs.manifest import MANIFEST_NAME, build_manifest, \
        write_manifest

    ds = clustered_dataset(cfg["n_records"], cfg["n_dims"],
                           n_clusters=cfg["n_clusters"],
                           cluster_dim=cfg["cluster_dim"], seed=3)
    doms = domains(cfg["n_dims"])
    base = bench_params(chunk_records=cfg["chunk"])
    on = base.with_(trace=True, metrics=True)

    plain = mafia(ds.records, base, domains=doms)   # warm caches
    traced = None

    def run_off():
        nonlocal plain
        plain = mafia(ds.records, base, domains=doms)

    def run_on():
        nonlocal traced
        traced = mafia(ds.records, on, domains=doms)

    # interleave the legs so slow-machine drift hits both mins alike
    offs, ons = [], []
    for _ in range(runs):
        offs.append(min_time(run_off, 1))
        ons.append(min_time(run_on, 1))
    t_off, t_on = min(offs), min(ons)
    identical = cluster_signature(plain) == cluster_signature(traced)

    run_obs = as_run_obs(traced)
    span_problems = run_obs.check()
    out = {
        "workload": cfg,
        "runs": runs,
        "obs_off_s": round(t_off, 4),
        "obs_on_s": round(t_on, 4),
        "overhead": round(t_on / t_off, 4) if t_off > 0 else None,
        "clusters_identical": bool(identical),
        "n_spans": len(run_obs.merged_spans()),
        "span_problems": span_problems,
    }
    if obs_dir is not None:
        obs_dir.mkdir(parents=True, exist_ok=True)
        # trace.json carries the stage_bitmap_index span and
        # metrics.json the index.* counters
        write_chrome_trace(obs_dir / "trace.json", run_obs.merged_spans())
        write_metrics_snapshot(obs_dir / "metrics.json", run_obs)
        write_manifest(obs_dir / MANIFEST_NAME,
                       build_manifest(traced,
                                      phases=run_obs.phase_seconds()))
        (obs_dir / "index_spill.json").write_text(
            json.dumps(index_spill_stats(run_obs, ds, cfg), indent=2)
            + "\n")
        out["obs_dir"] = str(obs_dir)
    return out


def index_spill_stats(run_obs, ds, cfg: dict) -> dict:
    """The bitmap-index health document the CI smoke job uploads: the
    instrumented run's ``index.*`` counters plus a forced-spill probe
    (budget 1 byte) proving the mmap fallback stays bit-compatible."""
    merged = run_obs.merged_metrics().get("total", {})
    metrics = {k: v["value"] for k, v in merged.items()
               if k.startswith("index.")}

    comm = SerialComm()
    source = ArraySource(ds.records)
    grid = uniform_grid(cfg["n_dims"], 10)
    spilled = stage_bitmap_index(source, comm, grid, cfg["chunk"],
                                 budget=1)
    probe = {
        "budget": 1,
        "resident": bool(spilled.resident),
        "nbytes": int(spilled.nbytes),
        "n_pairs": int(spilled.n_pairs),
        "spilled_to_disk": spilled.path is not None,
    }
    return {"schema": "pmafia-index-spill/1", "metrics": metrics,
            "forced_spill_probe": probe}


def machine_info() -> dict:
    import multiprocessing
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": multiprocessing.cpu_count(),
    }


def compare(current: dict, baseline_path: Path, fail_over: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("suite") != current.get("suite"):
        print(f"warning: comparing {current.get('suite')} run against "
              f"{baseline.get('suite')} baseline; kernel loads differ",
              file=sys.stderr)
    failures = []
    for name, entry in current["kernels"].items():
        ref = baseline.get("kernels", {}).get(name)
        if ref is None:
            continue
        ratio = entry["median_s"] / ref["median_s"] if ref["median_s"] else 0
        marker = ""
        if ratio > fail_over:
            failures.append(name)
            marker = f"  REGRESSED (> {fail_over:.1f}x)"
        print(f"  {name:32s} {entry['median_s']:.4f}s vs "
              f"{ref['median_s']:.4f}s  ({ratio:.2f}x){marker}")
    if failures:
        print(f"FAIL: {len(failures)} kernel(s) regressed more than "
              f"{fail_over:.1f}x over baseline: {', '.join(failures)}")
        return 1
    print("compare: no kernel regressed past the threshold")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down suite for CI")
    ap.add_argument("--only", metavar="KERNEL_GLOB", default=None,
                    help="run only kernels matching this fnmatch glob "
                         "(e.g. 'score_batch_*' or 'populate_*'); "
                         "workload staging behind unmatched kernels is "
                         "skipped and their summary sections are "
                         "omitted")
    ap.add_argument("--output", type=Path, default=None,
                    help="write the JSON document here")
    ap.add_argument("--compare", type=Path, default=None,
                    help="baseline JSON to diff kernel medians against")
    ap.add_argument("--fail-over", type=float, default=3.0,
                    help="fail when any kernel is this many times slower "
                         "than the baseline (default 3.0)")
    ap.add_argument("--min-serve-speedup", type=float, default=0.0,
                    help="fail unless the compiled serving evaluator "
                         "beats the reference scorer by this "
                         "factor (or the engines disagree on any "
                         "record)")
    ap.add_argument("--skip-e2e", action="store_true",
                    help="kernels only (no end-to-end runs)")
    ap.add_argument("--max-obs-overhead", type=float, default=0.0,
                    help="fail when the traced e2e run is more than this "
                         "factor slower than untraced (0 = report only; "
                         "CI passes 1.10 — measured overhead is ~2.5%%, "
                         "the headroom absorbs shared-runner noise on "
                         "the ~50 ms probe)")
    ap.add_argument("--obs-dir", type=Path, default=None,
                    help="export the instrumented smoke run's trace.json, "
                         "metrics.json and run_manifest.json here")
    args = ap.parse_args(argv)

    suite = "smoke" if args.smoke else "full"
    print(f"suite: {suite}")
    (kernels, e2e_cfg, join_load, index_load, serve_load,
     stream_load) = build_suite(args.smoke, only=args.only)
    if not kernels:
        print(f"no kernel matches --only {args.only!r}", file=sys.stderr)
        return 2

    doc = {"schema": SCHEMA, "suite": suite, "machine": machine_info(),
           "kernels": {}}
    if args.only:
        doc["only"] = args.only
    for name, (fn, runs) in kernels.items():
        median = median_time(fn, runs)
        doc["kernels"][name] = {"median_s": round(median, 5), "runs": runs}
        print(f"  {name:32s} {median:.4f}s  (median of {runs})")

    def have(*names):
        return all(n in doc["kernels"] for n in names)

    if join_load and have("cdu_join_hash_bulk"):
        doc["join"] = join_load
        print(f"  bulk join: {join_load['n_units']} units -> "
              f"{join_load['raw_cdus']} raw CDUs")

    if index_load is not None:
        doc["index"] = index_load
        print(f"  bitmap index: {index_load['index_nbytes'] / 1e6:.2f} MB "
              f"resident")

    if serve_load is not None and have("score_batch_naive",
                                       "score_batch_compiled",
                                       "score_batch_cached"):
        naive_s = doc["kernels"]["score_batch_naive"]["median_s"]
        comp_s = doc["kernels"]["score_batch_compiled"]["median_s"]
        cache_s = doc["kernels"]["score_batch_cached"]["median_s"]
        doc["serve"] = dict(
            serve_load,
            compiled_speedup=round(naive_s / comp_s, 2) if comp_s else None,
            cached_speedup=round(comp_s / cache_s, 2) if cache_s else None,
            compiled_records_per_s=round(serve_load["batch_records"]
                                         / comp_s) if comp_s else None,
            cached_records_per_s=round(serve_load["batch_records"]
                                       / cache_s) if cache_s else None)
        print(f"  serving: {serve_load['n_clusters']} clusters / "
              f"{serve_load['n_terms']} terms, "
              f"{serve_load['batch_records']} records over "
              f"{serve_load['hot_pool_rows']} hot rows — compiled is "
              f"{doc['serve']['compiled_speedup']}x over naive "
              f"({doc['serve']['compiled_records_per_s']:,} rec/s), "
              f"cache-warm {doc['serve']['cached_speedup']}x over compiled "
              f"({doc['serve']['cached_records_per_s']:,} rec/s), "
              f"identical: {serve_load['identical']}, cache engaged: "
              f"{serve_load['cache_engaged']}")

    if stream_load is not None and have("snapshot_vs_cold",
                                        "cold_batch_window",
                                        "ingest_delta"):
        snap_s = doc["kernels"]["snapshot_vs_cold"]["median_s"]
        cold_s = doc["kernels"]["cold_batch_window"]["median_s"]
        ingest_s = doc["kernels"]["ingest_delta"]["median_s"]
        doc["stream"] = dict(
            stream_load,
            snapshot_speedup=round(cold_s / snap_s, 2) if snap_s else None,
            ingest_records_per_s=round(stream_load["delta_records"]
                                       / ingest_s) if ingest_s else None)
        print(f"  streaming: {stream_load['window_records']}-record "
              f"window, {stream_load['delta_records']}-record deltas — "
              f"incremental snapshot is "
              f"{doc['stream']['snapshot_speedup']}x over a cold batch "
              f"run ({doc['stream']['ingest_records_per_s']:,} rec/s "
              f"ingest), identical: {stream_load['identical']}")

    if not args.skip_e2e:
        print("running end-to-end resident vs spilled index ...")
        doc["e2e"] = run_e2e(e2e_cfg)
        e = doc["e2e"]
        print(f"  resident: {e['resident_s']:.2f}s  "
              f"spilled: {e['spilled_s']:.2f}s  "
              f"levels: {e['levels']}  "
              f"clusters identical: {e['clusters_identical']}  "
              f"verified: {e['verify_ok']}")

        print("running end-to-end observability off vs on ...")
        # the per-span cost is fixed, so the ratio needs a run long
        # enough to resolve 5%: keep the smoke e2e tiny for the
        # correctness legs but give the overhead probe >= 200k records
        obs_cfg = dict(e2e_cfg,
                       n_records=max(e2e_cfg["n_records"], 200_000))
        doc["obs"] = run_obs_overhead(obs_cfg, runs=7,
                                      obs_dir=args.obs_dir)
        o = doc["obs"]
        print(f"  off: {o['obs_off_s']:.2f}s  on: {o['obs_on_s']:.2f}s  "
              f"overhead: {o['overhead']}x  spans: {o['n_spans']}  "
              f"clusters identical: {o['clusters_identical']}")
        if args.obs_dir is not None:
            print(f"  wrote trace/metrics/manifest to {args.obs_dir}")

    if args.output is not None:
        args.output.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.output}")

    rc = 0
    if args.compare is not None:
        rc = compare(doc, args.compare, args.fail_over)
    if "serve" in doc and not doc["serve"]["identical"]:
        print("FAIL: compiled serving evaluator disagrees with the "
              "reference scorer")
        rc = 1
    if "serve" in doc and not doc["serve"]["cache_engaged"]:
        print("FAIL: score_batch_cached's server did not engage its "
              "cache, so the row times the evaluator")
        rc = 1
    if args.min_serve_speedup and \
            (doc.get("serve", {}).get("compiled_speedup")
             or 0) < args.min_serve_speedup:
        print(f"FAIL: compiled serving speedup "
              f"{doc.get('serve', {}).get('compiled_speedup')}x below "
              f"required {args.min_serve_speedup}x")
        rc = 1
    if not args.skip_e2e:
        e = doc["e2e"]
        if not (e["clusters_identical"] and e["trace_identical"]
                and e["verify_ok"]):
            print("FAIL: resident and spilled runs disagree or "
                  "verification failed")
            rc = 1
        o = doc["obs"]
        if not o["clusters_identical"] or o["span_problems"]:
            print("FAIL: observability changed the clustering or produced "
                  f"an inconsistent trace: {o['span_problems']}")
            rc = 1
        if args.max_obs_overhead and \
                (o["overhead"] or 0) > args.max_obs_overhead:
            print(f"FAIL: enabled-tracing overhead {o['overhead']}x "
                  f"exceeds allowed {args.max_obs_overhead}x")
            rc = 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
