"""The layer catalogue: which entry points each layer exposes to its
callers, the per-layer metrics derived from their spans, and the
end-to-end metric each layer should move.

Entry points are wrapped at the names the callers bind (see
:mod:`benchmarks.e2e.tracer`): the batch loop's module globals in
``repro.core.pmafia``, the streaming engine's in ``repro.stream.engine``
and class attributes.  Every timer below is *self* seconds — inclusive
time minus time inside wrapped children.
"""

from __future__ import annotations

from collections import Counter

from .tracer import EntryPoint, Tracer

PMAFIA = "repro.core.pmafia"
STREAM = "repro.stream.engine"


def _nbytes(obj) -> int:
    if obj is None:
        return 0
    if hasattr(obj, "nbytes"):                       # BitmapIndex
        return int(obj.nbytes)
    return int(obj.n_records * obj.n_dims * obj.dtype.itemsize)


def _grid(counts, args, kwargs, grid) -> None:
    counts["grid.bins"] += sum(dg.nbins for dg in grid)


def _staged(counts, args, kwargs, artifact) -> None:
    counts["staging.bytes"] += _nbytes(artifact)


def _strategy(counts, args, kwargs, result) -> None:
    counts[f"join.{result[0]}_levels"] += 1


def _joined(counts, args, kwargs, result) -> None:
    counts["join.raw_cdus"] += result[0].n_units


def _lattice_step(counts, args, kwargs, step) -> None:
    counts["join.raw_cdus"] += step.n_raw
    counts["dedup.raw"] += step.n_raw
    counts["dedup.unique"] += step.cdus.n_units


def _deduped(counts, args, kwargs, result) -> None:
    counts["dedup.raw"] += args[1].n_units            # (comm, raw, tau)
    counts["dedup.unique"] += result[0].n_units


def _populated(counts, args, kwargs, per_cdu_counts) -> None:
    counts["populate.cdus"] += len(per_cdu_counts)


def _identified(counts, args, kwargs, result) -> None:
    mask, n_dense = result
    counts["identify.cdus"] += len(mask)
    counts["identify.dense"] += n_dense


def _assembled(counts, args, kwargs, clusters) -> None:
    counts["assembly.registered_units"] += sum(t.n_units for t, _ in args[1])


def entry_points() -> list[EntryPoint]:
    """Every wrapped name, grouped by layer."""
    eps = [
        # histogram (core.histogram)
        EntryPoint(PMAFIA, "global_domains", "histogram.s"),
        EntryPoint(PMAFIA, "fine_histogram_global", "histogram.s"),
        EntryPoint(STREAM, "block_histogram", "histogram.s"),
        # grid (core.adaptive_grid)
        EntryPoint(PMAFIA, "build_grid", "grid.s", _grid),
        EntryPoint(STREAM, "build_grid", "grid.s", _grid),
        # staging (io.binned, io.bitmap_index)
        EntryPoint(PMAFIA, "stage_binned", "staging.binned_s", _staged),
        EntryPoint(PMAFIA, "stage_bitmap_index", "staging.index_s", _staged),
        EntryPoint("repro.stream.window", "build_bitmap_index",
                   "staging.index_s", _staged),
        EntryPoint(STREAM, "append_bitmap_tiles", "staging.append_s",
                   _staged),
        # join (core.candidates, core.fptree, core.directmine)
        EntryPoint(PMAFIA, "resolved_join_strategy", "join.s", _strategy),
        EntryPoint(STREAM, "resolved_join_strategy", "join.s", _strategy),
        EntryPoint(PMAFIA, "_find_candidate_dense_units", "join.s", _joined),
        EntryPoint(STREAM, "_find_candidate_dense_units", "join.s", _joined),
        EntryPoint(PMAFIA, "lattice_step", "join.s", _lattice_step),
        EntryPoint(PMAFIA, "replay_join_charges", "join.s"),
        EntryPoint(f"{STREAM}:StreamingSession", "_join", "join.s"),
        # dedup (core.dedup)
        EntryPoint(PMAFIA, "_eliminate_repeat_cdus", "dedup.s", _deduped),
        EntryPoint(STREAM, "_eliminate_repeat_cdus", "dedup.s", _deduped),
        EntryPoint(PMAFIA, "replay_dedup_charges", "dedup.s"),
        EntryPoint(f"{STREAM}:StreamingSession", "_dedup", "dedup.s"),
        # populate (core.population)
        EntryPoint(PMAFIA, "populate_global", "populate.s", _populated),
        EntryPoint("repro.core.directmine:DirectMiner", "counts_for",
                   "populate.s", _populated),
        EntryPoint(f"{STREAM}:StreamingSession", "_populate", "populate.s",
                   _populated),
        # identify (core.identify)
        EntryPoint(PMAFIA, "_identify_dense", "identify.s", _identified),
        EntryPoint(STREAM, "_identify_dense", "identify.s", _identified),
        EntryPoint(PMAFIA, "dense_units", "identify.s"),
        EntryPoint(STREAM, "dense_units", "identify.s"),
        # assembly (core.dnf, core.merge)
        EntryPoint(PMAFIA, "registrations_for_report", "assembly.s"),
        EntryPoint(STREAM, "registrations_for_report", "assembly.s"),
        EntryPoint(PMAFIA, "assemble_clusters", "assembly.s", _assembled),
        EntryPoint(STREAM, "assemble_clusters", "assembly.s", _assembled),
        # serve (serve.compile, serve.engine); score_batch's own self
        # time is the signature-cache work around the three kernels
        EntryPoint("repro.serve.compile:CompiledModel", "digitize",
                   "serve.digitize_s"),
        EntryPoint("repro.serve.compile:CompiledModel", "group_keys",
                   "serve.keys_s"),
        EntryPoint("repro.serve.compile:CompiledModel", "eval_idx",
                   "serve.eval_s"),
        EntryPoint("repro.serve.engine:ClusterServer", "score_batch",
                   "serve.cache_s"),
    ]
    # comm (parallel): the serial communicator's collectives
    eps += [EntryPoint("repro.parallel.serial:SerialComm", name, "comm.s")
            for name in ("barrier", "bcast", "gather", "allgather",
                         "scatter", "allreduce", "reduce")]
    return eps


#: layer -> (its metrics, the end-to-end metrics@workloads it should move)
LAYERS = {
    "histogram": (("histogram.s",),
                  ("latency_ms_p50@batch_d15",
                   "throughput_rec_per_s@stream_drift")),
    "grid": (("grid.s", "grid.calls", "grid.bins"), ("control",)),
    "staging": (("staging.binned_s", "staging.index_s", "staging.append_s",
                 "staging.bytes"),
                ("latency_ms_p50@batch_d15", "peak_rss_mb@batch_d15",
                 "throughput_rec_per_s@stream_drift")),
    "join": (("join.s", "join.raw_cdus", "join.pairwise_levels",
              "join.hash_levels", "join.fptree_levels", "join.direct_levels",
              "join.memo_hit_ratio"),
             ("latency_ms_p50@batch_deep_d50",
              "latency_ms_p50@stream_drift")),
    "dedup": (("dedup.s", "dedup.unique_ratio", "dedup.memo_hit_ratio"),
              ("latency_ms_p50@batch_deep_d50",)),
    "populate": (("populate.s", "populate.cdus", "populate.dense_ratio"),
                 ("latency_ms_p50@batch_d15", "latency_ms_p50@stream_drift")),
    "identify": (("identify.s",), ("control",)),
    "assembly": (("assembly.s", "assembly.registered_units"),
                 ("latency_ms_p50@batch_deep_d50",)),
    "comm": (("comm.s", "comm.calls", "comm.messages", "comm.message_bytes",
              "sim.makespan_s", "sim.unit_pair_ops", "sim.record_cell_ops",
              "sim.io_bytes", "sim.imbalance"),
             ("sim.makespan_s@batch_d15",)),
    "serve": (("serve.digitize_s", "serve.keys_s", "serve.eval_s",
               "serve.cache_s", "serve.cache_hit_ratio", "serve.bypass_ratio",
               "serve.evaluated_ratio"),
              ("latency_ms_p50@serve_mixed",
               "throughput_rec_per_s@serve_mixed")),
    "trace": (("trace.coverage", "trace.overhead"), ()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, steps: int) -> dict[str, float]:
    """Span-derived per-layer metrics, seconds and counts per measured
    step.  Metrics the workload sets itself (``serve.*_ratio``,
    ``sim.*``, ``comm.messages``, ``trace.overhead``) default to 0."""
    out = {name: 0.0 for names, _ in LAYERS.values() for name in names}
    for timer, seconds in tracer.timer_seconds().items():
        out[timer] = seconds / steps
    c = tracer.counts
    for key in ("grid.bins", "staging.bytes", "join.raw_cdus",
                "populate.cdus", "assembly.registered_units"):
        out[key] = c[key] / steps
    for engine in ("pairwise", "hash", "fptree", "direct"):
        out[f"join.{engine}_levels"] = c[f"join.{engine}_levels"] / steps
    calls = Counter(tracer.timers.get(span[0]) for span in tracer.spans)
    out["grid.calls"] = calls["grid.s"] / steps
    out["comm.calls"] = calls["comm.s"] / steps
    out["dedup.unique_ratio"] = _ratio(c["dedup.unique"], c["dedup.raw"])
    out["populate.dense_ratio"] = _ratio(c["identify.dense"],
                                         c["identify.cdus"])
    for layer, inner in (("join", "engine._find_candidate_dense_units"),
                         ("dedup", "engine._eliminate_repeat_cdus")):
        calls, recomputed = tracer.children_named(
            f"StreamingSession._{layer}", inner)
        out[f"{layer}.memo_hit_ratio"] = _ratio(calls - recomputed, calls)
    out["trace.coverage"] = tracer.coverage()
    return out
