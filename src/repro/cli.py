"""Command-line interface.

Three subcommands cover the workflow a downstream user needs:

``pmafia generate``
    Build a synthetic data set (paper §5.1 generator) into a binary
    record file; cluster specs as ``dim:lo:hi`` triples, ``--cluster``
    repeatable.
``pmafia run``
    Cluster a record file (or .npy / CSV) with (p)MAFIA or the CLIQUE
    baseline, serially or on an SPMD backend; results print as text or
    JSON.
``pmafia info``
    Inspect a record file's header.
``pmafia score``
    Serve cluster membership for a record stream against a finished
    result (or a pre-compiled model): which clusters each record
    belongs to, in which subspaces, at batch speed through the
    compiled DNF engine (``docs/SERVING.md``).
``pmafia stream``
    Replay a record file as ordered deltas through the incremental
    streaming engine (``docs/STREAMING.md``): sliding-window ingest,
    periodic snapshots, optional spill/resume.  Every snapshot is
    bit-identical to a cold ``pmafia run`` over the live window.

Exposed as the ``pmafia`` console script and ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .core.export import result_to_json
from .core.mafia import mafia, pmafia, pmafia_resumable
from .errors import ReproError
from .datagen.generator import generate
from .datagen.spec import ClusterSpec
from .io.records import RecordFile, read_header, write_records
from .obs import as_run_obs, write_chrome_trace, write_metrics_snapshot
from .obs.manifest import MANIFEST_NAME, build_manifest, write_manifest
from .params import CliqueParams, MafiaParams


def _parse_cluster(text: str) -> ClusterSpec:
    """Parse ``dim:lo:hi[,dim:lo:hi...]`` into a ClusterSpec box."""
    dims: list[int] = []
    extents: list[tuple[float, float]] = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise argparse.ArgumentTypeError(
                f"cluster extent {part!r} is not dim:lo:hi")
        dims.append(int(pieces[0]))
        extents.append((float(pieces[1]), float(pieces[2])))
    order = sorted(range(len(dims)), key=lambda i: dims[i])
    return ClusterSpec.box([dims[i] for i in order],
                           [extents[i] for i in order])


def _load_records(path: Path) -> np.ndarray:
    """Read records from a pmafia record file, .npy array or CSV."""
    if path.suffix == ".npy":
        records = np.load(path)
    elif path.suffix in (".csv", ".txt"):
        records = np.loadtxt(path, delimiter="," if path.suffix == ".csv"
                             else None)
    else:
        return RecordFile(path).read_all()
    return np.atleast_2d(np.asarray(records, dtype=np.float64))


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate(args.records, args.dims, args.cluster or [],
                       noise_fraction=args.noise, seed=args.seed)
    write_records(args.output, dataset.records)
    print(f"wrote {dataset.n_records} records x {dataset.n_dims} dims "
          f"({dataset.n_noise} noise) to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    info = read_header(args.data)
    print(f"{info.path}: {info.n_records} records x {info.n_dims} dims, "
          f"dtype {info.dtype}, {info.data_nbytes / 1e6:.2f} MB")
    return 0


def _write_observability(args: argparse.Namespace, run: object,
                         result: object, nprocs: int) -> None:
    """Export the run's trace / metrics / manifest as requested by
    ``--trace-out`` / ``--metrics-out``."""
    if args.trace_out is None and args.metrics_out is None:
        return
    run_obs = as_run_obs(run)
    if run_obs is None:  # pragma: no cover - params force obs on
        raise ReproError("run produced no observability data")
    if args.trace_out is not None:
        write_chrome_trace(args.trace_out, run_obs.merged_spans())
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
    if args.metrics_out is not None:
        write_metrics_snapshot(args.metrics_out, run_obs)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
    out = args.trace_out if args.trace_out is not None else args.metrics_out
    manifest = build_manifest(result, phases=run_obs.phase_seconds(),
                              nprocs=nprocs,
                              virtual_seconds=getattr(run, "makespan", 0.0))
    write_manifest(Path(out).parent / MANIFEST_NAME, manifest)


def _cmd_score(args: argparse.Namespace) -> int:
    import json as _json

    from .core.export import (model_from_dict, model_to_json,
                              result_from_dict)
    from .obs import RankObs, RunObs, serve_summary
    from .serve import ClusterServer

    try:
        payload = _json.loads(Path(args.model).read_text())
    except _json.JSONDecodeError as exc:
        raise ReproError(f"invalid model JSON: {exc}") from exc
    result = None
    if isinstance(payload, dict) \
            and payload.get("format") == "pmafia-compiled-model":
        model = model_from_dict(payload)
    else:
        result = result_from_dict(payload)
        model = result

    obs = None
    if args.trace_out is not None or args.metrics_out is not None:
        obs = RankObs(0, trace=args.trace_out is not None,
                      metrics=args.metrics_out is not None)
    server = ClusterServer(
        model, cache_size=0 if args.no_cache else args.cache_size,
        obs=obs)

    if args.export_model is not None:
        Path(args.export_model).write_text(
            model_to_json(server.model) + "\n")
        print(f"wrote compiled model to {args.export_model}",
              file=sys.stderr)

    if str(args.data) == "-":
        records = np.atleast_2d(
            np.loadtxt(sys.stdin, delimiter=",", ndmin=2))
    else:
        records = _load_records(Path(args.data))
    n = records.shape[0]

    counts = np.zeros(server.model.n_clusters, dtype=np.int64)
    matched = 0
    for start in range(0, n, args.batch):
        scores = server.score_batch(records[start:start + args.batch])
        counts += scores.counts()
        member_any = scores.membership.any(axis=1)
        matched += int(member_any.sum())
        if args.summary_only:
            continue
        for i in range(len(scores)):
            ids = scores.cluster_ids(i)
            if args.json:
                print(_json.dumps(
                    {"record": start + i, "clusters": ids,
                     "subspaces": [list(s) for s
                                   in scores.record_subspaces(i)]},
                    separators=(",", ":")))
            else:
                print(f"{start + i}\t"
                      f"{','.join(map(str, ids)) if ids else '-'}")

    stats = server.stats()
    summary = {
        "records": n, "matched": matched,
        "clusters": {str(c): int(counts[c])
                     for c in range(len(counts)) if counts[c]},
        "server": stats,
    }
    if args.json and args.summary_only:
        print(_json.dumps(summary, indent=2))
    else:
        cache = stats["cache"]
        if cache is None:
            cached = "cache off"
        elif not cache["engaged"]:
            cached = ("cache not engaged: this model evaluates faster "
                      "than a cache probe")
        else:
            cached = f"{cache['hits']} cache hits"
        print(f"scored {n} records: {matched} in >=1 cluster; "
              f"{stats['evaluations']} evaluations, {cached}",
              file=sys.stderr)

    if obs is not None:
        run_obs = RunObs(ranks=(obs.export(),))
        if args.trace_out is not None:
            write_chrome_trace(args.trace_out, run_obs.merged_spans())
            print(f"wrote trace to {args.trace_out}", file=sys.stderr)
        if args.metrics_out is not None:
            write_metrics_snapshot(args.metrics_out, run_obs)
            print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
        if result is not None:
            # only a full result carries the params/grid the manifest
            # describes; a bare compiled model does not
            out = (args.trace_out if args.trace_out is not None
                   else args.metrics_out)
            manifest = build_manifest(
                result, phases=run_obs.phase_seconds(),
                serve=serve_summary(run_obs))
            write_manifest(Path(out).parent / MANIFEST_NAME, manifest)
    return 0


def _scan_domains(path: Path) -> np.ndarray:
    """Per-dimension ``[lo, hi]`` over the whole file.

    The streaming session needs the value domains up front (they fix
    the fine-histogram bin scale for the session's lifetime), so the
    CLI makes the one design call a library caller would make
    explicitly: scan the replayed file once for its extents.  A true
    deployment would pass known schema domains instead.
    """
    if path.suffix in (".npy", ".csv", ".txt"):
        records = _load_records(path)
        return np.stack([records.min(axis=0), records.max(axis=0)],
                        axis=1)
    rf = RecordFile(path)
    lo = np.full(rf.n_dims, np.inf)
    hi = np.full(rf.n_dims, -np.inf)
    step = 262_144
    for start in range(0, rf.n_records, step):
        block = rf.read_block(start, min(start + step, rf.n_records))
        lo = np.minimum(lo, block.min(axis=0))
        hi = np.maximum(hi, block.max(axis=0))
    return np.stack([lo, hi], axis=1)


def _stream_rank(comm: object, cfg: dict) -> dict:
    """One rank of ``pmafia stream`` (module-level so the process
    backend can pickle it).  Every rank replays the same file; the
    session broadcasts each delta from root, so identical local reads
    only save wire traffic."""
    from .stream import (BlockDeltaSource, RecordDeltaSource,
                         StreamingSession)

    path = Path(cfg["path"])
    if path.suffix in (".npy", ".csv", ".txt"):
        source: object = BlockDeltaSource(_load_records(path),
                                          cfg["delta_records"])
    else:
        source = RecordDeltaSource(path, cfg["delta_records"])
    session = StreamingSession(
        cfg["params"], comm=comm, domains=cfg["domains"],
        window_records=cfg["window"],
        spill_dir=cfg["spill_dir"], resume=cfg["resume"])
    result = None
    applied = 0
    for delta in source:
        if not session.ingest(delta.block, seq=delta.seq):
            continue  # already applied by a resumed session
        applied += 1
        if cfg["snapshot_every"] and applied % cfg["snapshot_every"] == 0:
            result = session.snapshot()
            if comm.rank == 0:
                print(f"delta {delta.seq}: {session.n_live} live "
                      f"records, {len(result.clusters)} cluster(s)",
                      file=sys.stderr)
    if session.n_live and (result is None
                           or cfg["snapshot_every"] == 0
                           or applied % cfg["snapshot_every"]):
        result = session.snapshot()
    obs = session.obs.export() if session.obs is not None else None
    session.close()
    return {"result": result, "obs": obs, "applied": applied,
            "last_seq": session.last_seq}


def _cmd_stream(args: argparse.Namespace) -> int:
    from .obs import RunObs
    from .parallel.spmd import run_spmd

    params = MafiaParams(alpha=args.alpha, beta=args.beta,
                         fine_bins=args.fine_bins,
                         window_size=args.merge_window,
                         chunk_records=args.chunk,
                         report=args.report,
                         metrics=args.metrics_out is not None)
    cfg = {
        "path": str(args.data),
        "delta_records": args.delta_records,
        "window": args.window,
        "snapshot_every": args.snapshot_every,
        "spill_dir": (None if args.spill_dir is None
                      else str(args.spill_dir)),
        "resume": args.resume,
        "params": params,
        "domains": _scan_domains(Path(args.data)),
    }
    ranks = run_spmd(_stream_rank, args.procs, backend=args.backend,
                     args=(cfg,))
    rank0 = ranks[0].value
    result = rank0["result"]
    if result is None:
        print("stream drained with an empty window; nothing to report",
              file=sys.stderr)
        return 0
    print(f"applied {rank0['applied']} delta(s) through "
          f"seq {rank0['last_seq']}", file=sys.stderr)
    if args.metrics_out is not None:
        exports = tuple(r.value["obs"] for r in ranks
                        if r.value["obs"] is not None)
        write_metrics_snapshot(args.metrics_out, RunObs(ranks=exports))
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
    if args.json:
        print(result_to_json(result))
    else:
        print(result.summary())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.algorithm == "clique":
        params = CliqueParams(bins=args.bins, threshold=args.threshold,
                              chunk_records=args.chunk)
        from .clique.clique import clique, pclique
        if args.procs == 1:
            result = clique(_load_records(Path(args.data)), params)
        else:
            result = pclique(_load_records(Path(args.data)), args.procs,
                             params, backend=args.backend).result
    else:
        params = MafiaParams(alpha=args.alpha, beta=args.beta,
                             fine_bins=args.fine_bins,
                             window_size=args.window,
                             chunk_records=args.chunk,
                             report=args.report,
                             bitmap_budget=args.bitmap_budget,
                             trace=args.trace_out is not None,
                             metrics=args.metrics_out is not None)
        data: object = Path(args.data)
        if Path(args.data).suffix in (".npy", ".csv", ".txt"):
            data = _load_records(Path(args.data))
        scenario = None
        if args.chaos_scenario is not None:
            from .gameday import load_scenario
            scenario = load_scenario(args.chaos_scenario)
            print(f"chaos scenario {scenario.name!r}: "
                  f"{scenario.description}", file=sys.stderr)
        run = None
        if args.checkpoint_dir is not None:
            # --chaos-scenario implies --checkpoint-dir (checked in main)
            chaos: dict = {}
            if scenario is not None:
                from dataclasses import replace as _dc_replace
                if scenario.params:
                    params = _dc_replace(params, **scenario.params)
                chaos = dict(recv_timeout=scenario.recv_timeout,
                             retry=scenario.retry, faults=scenario.faults,
                             max_restarts=(scenario.max_restarts
                                           if scenario.recovery == "restart"
                                           else 0))
            run = pmafia_resumable(data, args.procs, params,
                                   checkpoint_dir=args.checkpoint_dir,
                                   backend=args.backend,
                                   collectives=args.collectives,
                                   resume=args.resume, **chaos)
            result = run.result
        elif args.procs == 1:
            result = mafia(data, params)
        else:
            run = pmafia(data, args.procs, params,
                         backend=args.backend,
                         collectives=args.collectives)
            result = run.result
        _write_observability(args, run if run is not None else result,
                             result, args.procs)

    if args.verify:
        from .analysis.verify import verify_result
        source = (_load_records(Path(args.data))
                  if Path(args.data).suffix in (".npy", ".csv", ".txt")
                  else RecordFile(Path(args.data)))
        report = verify_result(result, source, chunk_records=args.chunk)

    if args.json:
        print(result_to_json(result))
    else:
        print(result.summary())
    if args.verify:
        print(report.summary())
        if not report.ok:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmafia",
        description="pMAFIA subspace clustering (ICPP 2000 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="create a synthetic record file")
    gen.add_argument("output", type=Path, help="record file to write")
    gen.add_argument("--records", type=int, default=100_000)
    gen.add_argument("--dims", type=int, default=10)
    gen.add_argument("--cluster", action="append", type=_parse_cluster,
                     metavar="d:lo:hi[,d:lo:hi...]",
                     help="one embedded cluster (repeatable)")
    gen.add_argument("--noise", type=float, default=0.10,
                     help="noise fraction (paper: 0.10)")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="inspect a record file header")
    info.add_argument("data", type=Path)
    info.set_defaults(func=_cmd_info)

    score = sub.add_parser(
        "score", help="serve cluster membership for a record stream")
    score.add_argument("model", type=Path,
                       help="result JSON (pmafia run --json) or compiled "
                            "model JSON (pmafia-compiled-model)")
    score.add_argument("data",
                       help="record file (.bin), .npy array, CSV, or - "
                            "for CSV on stdin")
    score.add_argument("--batch", type=int, default=65_536,
                       help="records scored per batch")
    score.add_argument("--cache-size", type=int, default=65_536,
                       dest="cache_size",
                       help="upper bound on signature-cache entries "
                            "(least recently used evicted first); the "
                            "cache engages only for a model that "
                            "evaluates slower than a cache probe")
    score.add_argument("--no-cache", action="store_true", dest="no_cache",
                       help="disable the signature cache (every batch "
                            "evaluates vectorized)")
    score.add_argument("--json", action="store_true",
                       help="emit JSON: one object per record (or the "
                            "whole summary with --summary-only)")
    score.add_argument("--summary-only", action="store_true",
                       dest="summary_only",
                       help="suppress per-record output; print only "
                            "per-cluster counts and server stats")
    score.add_argument("--export-model", type=Path, default=None,
                       dest="export_model", metavar="PATH",
                       help="also write the compiled model as versioned "
                            "JSON for faster future loads")
    score.add_argument("--trace-out", type=Path, default=None,
                       dest="trace_out", metavar="PATH",
                       help="write the serving session's score_batch "
                            "spans as Chrome trace_event JSON")
    score.add_argument("--metrics-out", type=Path, default=None,
                       dest="metrics_out", metavar="PATH",
                       help="write the serve.* metrics snapshot as JSON; "
                            "when the model input is a full result, a "
                            "run_manifest.json with a serve section "
                            "lands next to the first output path")
    score.set_defaults(func=_cmd_score)

    stream = sub.add_parser(
        "stream", help="replay a data file as an incremental stream")
    stream.add_argument("data", type=Path,
                        help="record file (.bin), .npy array or CSV to "
                             "replay as ordered deltas")
    stream.add_argument("--delta-records", type=int, default=10_000,
                        dest="delta_records",
                        help="records per ingested delta")
    stream.add_argument("--window", type=int, default=None,
                        help="sliding-window size in records (default: "
                             "unbounded — no expiry)")
    stream.add_argument("--snapshot-every", type=int, default=0,
                        dest="snapshot_every", metavar="N",
                        help="take a snapshot every N applied deltas "
                             "(default: only at end-of-stream)")
    stream.add_argument("--procs", type=int, default=1)
    stream.add_argument("--backend", choices=("thread", "sim", "process"),
                        default="thread")
    stream.add_argument("--spill-dir", type=Path, default=None,
                        dest="spill_dir",
                        help="stage segments + manifest here so a "
                             "killed session can --resume "
                             "(single-process sessions only)")
    stream.add_argument("--resume", action="store_true",
                        help="restore the session from --spill-dir's "
                             "manifest; already-applied deltas replay "
                             "as no-ops")
    stream.add_argument("--alpha", type=float, default=1.5)
    stream.add_argument("--beta", type=float, default=0.35)
    stream.add_argument("--fine-bins", type=int, default=1000,
                        dest="fine_bins")
    stream.add_argument("--merge-window", type=int, default=5,
                        dest="merge_window",
                        help="adaptive-bin merge window (pmafia run's "
                             "--window; renamed here to avoid clashing "
                             "with the sliding record window)")
    stream.add_argument("--chunk", type=int, default=50_000)
    stream.add_argument("--report", choices=("merged", "paper", "maximal"),
                        default="merged")
    stream.add_argument("--metrics-out", type=Path, default=None,
                        dest="metrics_out", metavar="PATH",
                        help="write the per-rank stream.* counter "
                             "snapshot as JSON")
    stream.add_argument("--json", action="store_true",
                        help="emit the final snapshot as JSON")
    stream.set_defaults(func=_cmd_stream)

    run = sub.add_parser("run", help="cluster a data file")
    run.add_argument("data", type=Path,
                     help="record file (.bin), .npy array or CSV")
    run.add_argument("--algorithm", choices=("mafia", "clique"),
                     default="mafia")
    run.add_argument("--procs", type=int, default=1)
    run.add_argument("--backend", choices=("thread", "sim", "process"),
                     default="thread")
    run.add_argument("--alpha", type=float, default=1.5,
                     help="density significance factor (paper: >= 1.5)")
    run.add_argument("--beta", type=float, default=0.35,
                     help="window merge threshold (paper: 0.25-0.75)")
    run.add_argument("--fine-bins", type=int, default=1000, dest="fine_bins")
    run.add_argument("--window", type=int, default=5)
    run.add_argument("--chunk", type=int, default=50_000,
                     help="records per out-of-core chunk (B)")
    run.add_argument("--report", choices=("merged", "paper", "maximal"),
                     default="merged",
                     help="cluster-reporting semantics (DESIGN.md 4.1)")
    run.add_argument("--bitmap-budget", type=int, default=1 << 28,
                     dest="bitmap_budget", metavar="BYTES",
                     help="byte budget for the per-(dim,bin) bitmap "
                          "index: it stays in RAM when it fits and "
                          "spills to an mmap tile file otherwise; "
                          "results are identical either way (default "
                          "256 MiB)")
    run.add_argument("--collectives", choices=("flat", "tree"),
                     default="flat",
                     help="collective wire pattern for parallel runs")
    run.add_argument("--checkpoint-dir", type=Path, default=None,
                     dest="checkpoint_dir",
                     help="MAFIA only: write a checkpoint after every "
                          "completed level into this directory")
    run.add_argument("--resume", action="store_true",
                     help="restart from the newest checkpoint in "
                          "--checkpoint-dir instead of starting fresh")
    run.add_argument("--chaos-scenario", type=Path, default=None,
                     dest="chaos_scenario", metavar="PATH",
                     help="MAFIA only: inject the named chaos scenario "
                          "(benchmarks/scenarios/*.json) into this run "
                          "and recover per its recovery mode; requires "
                          "--checkpoint-dir and --backend process")
    run.add_argument("--bins", type=int, default=10,
                     help="CLIQUE: uniform bins per dimension")
    run.add_argument("--threshold", type=float, default=0.01,
                     help="CLIQUE: global density threshold fraction")
    run.add_argument("--trace-out", type=Path, default=None,
                     dest="trace_out", metavar="PATH",
                     help="MAFIA only: enable tracing and write the "
                          "merged per-rank timeline as Chrome "
                          "trace_event JSON (open in chrome://tracing "
                          "or https://ui.perfetto.dev)")
    run.add_argument("--metrics-out", type=Path, default=None,
                     dest="metrics_out", metavar="PATH",
                     help="MAFIA only: enable metrics and write the "
                          "per-rank + merged counter snapshot as JSON; "
                          "a run_manifest.json lands next to the first "
                          "output path")
    run.add_argument("--json", action="store_true",
                     help="emit the full result as JSON")
    run.add_argument("--verify", action="store_true",
                     help="independently re-check every invariant of the "
                          "result against the data before reporting")
    run.set_defaults(func=_cmd_run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "score":
        if args.batch <= 0:
            parser.error("--batch must be positive")
        if args.cache_size < 0:
            parser.error("--cache-size must be >= 0 (--no-cache turns "
                         "the cache off)")
    if args.command == "stream":
        if args.resume and args.spill_dir is None:
            parser.error("--resume requires --spill-dir")
        if args.spill_dir is not None and args.procs != 1:
            parser.error("--spill-dir requires --procs 1 (segment "
                         "spill files hold one rank's slice; a "
                         "multi-rank session cannot resume them)")
    if args.command == "run":
        if args.resume and args.checkpoint_dir is None:
            parser.error("--resume requires --checkpoint-dir")
        if args.chaos_scenario is not None:
            if args.checkpoint_dir is None:
                parser.error("--chaos-scenario requires --checkpoint-dir "
                             "(a restart resumes from its checkpoints)")
            if args.backend != "process":
                parser.error("--chaos-scenario requires --backend process "
                             "— only OS processes can be killed "
                             "independently")
            if args.algorithm == "clique":
                parser.error("--chaos-scenario is not supported with "
                             "--algorithm clique")
        if args.checkpoint_dir is not None and args.algorithm == "clique":
            parser.error("--checkpoint-dir is not supported with "
                         "--algorithm clique")
        if (args.algorithm == "clique"
                and (args.trace_out is not None
                     or args.metrics_out is not None)):
            parser.error("--trace-out/--metrics-out are not supported "
                         "with --algorithm clique")
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
