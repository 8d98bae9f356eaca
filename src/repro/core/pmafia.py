"""The pMAFIA driver — Algorithm 2 of the paper, runnable on any
communicator (1 rank = serial MAFIA; the thread backend = real SPMD; the
sim backend = SPMD with virtual IBM SP2 clocks).

Per level the driver performs, exactly as Algorithms 2-6 prescribe:

1. *Find-candidate-dense-units* — triangular CDU join, task-partitioned
   by equation (1) when ``Ndu > τ``; per-rank fragments are gathered on
   the parent, concatenated in rank order and broadcast.
2. *Eliminate-repeat-CDUs* — repeat marking task-partitioned the same
   way (Ncdu substituted for Ndu), flags OR-reduced, unique fragments
   rebuilt per rank, gathered and broadcast.
3. CDU *population* — the data-parallel pass over each rank's N/p local
   records in chunks of B, counts sum-Reduced.
4. *Identify-dense-units* — per-rank flag blocks (even Ncdu/p split),
   a Reduce for the flags and another for the dense count.
5. *Build-dense-unit-data-structures* — the dense sub-table (all ranks
   hold the full CDU table and global mask after the reduces).

The loop terminates when no dense units remain; the parent then
assembles clusters from the maximal dense units of every level and
broadcasts the result (print-clusters()).  That loop is
:func:`walk_lattice`, which the streaming snapshot and CLIQUE run too.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..errors import DataError
from ..io.bitmap_index import (grid_fingerprint, index_nbytes,
                               stage_bitmap_index)
from ..io.chunks import DataSource, as_source
from ..io.partition import block_range
from ..io.resilient import RetryPolicy
from ..io.staging import stage_local
from ..obs import RankObs
from ..obs.manifest import MANIFEST_NAME, build_manifest, write_manifest
from ..params import CliqueParams, MafiaParams
from ..parallel.comm import Comm
from ..parallel.faults import fault_site
from ..types import Cluster, Grid, Subspace
from .adaptive_grid import build_grid
from .checkpoint import (check_compatible, clear_checkpoints,
                         load_latest_checkpoint, save_checkpoint)
from .candidates import hash_join_plan, join_block
from .dedup import drop_repeats, repeat_flags_block
from .dnf import dnf_terms, maximal_mask, merged_mask
from .histogram import code_dtype, fine_histogram_global, global_domains
from .identify import dense_flags_block, dense_units, unit_thresholds
from .merge import face_adjacent_components
from .partition import even_splits, prefix_work, triangular_splits
from .population import IndexedPopulator, populate_global
from .result import ClusteringResult, LevelTrace
from .units import MAX_DIMS, UnitTable, group_sort, pack_tokens


def _ospan(obs: RankObs | None, name: str, cat: str = "task", **attrs):
    """A span on this rank's observer, or a free no-op when untraced."""
    if obs is None:
        return nullcontext({})
    return obs.span(name, cat=cat, **attrs)


def _local_view(comm: Comm, data: Any) -> tuple[DataSource, int, int]:
    """Resolve this rank's view of the data: a source plus the record
    range it owns.

    Arrays / in-memory sources are shared, each rank reading its N/p
    block; a path names a shared record file that is first staged onto
    "local disk" (§4.1) and then read whole.
    """
    if isinstance(data, (str, os.PathLike)):
        local = stage_local(comm, Path(data))
        return local, 0, local.n_records
    source = as_source(data)
    start, stop = block_range(source.n_records, comm.size, comm.rank)
    return source, start, stop


def _level_one_cdus(grid: Grid) -> UnitTable:
    """Every bin of every dimension is a level-1 candidate dense unit."""
    if grid.ndim > MAX_DIMS:
        raise DataError(
            f"{grid.ndim} dimensions exceed the byte-array limit {MAX_DIMS}")
    dims = []
    bins = []
    for dg in grid:
        dims.extend([dg.dim] * dg.nbins)
        bins.extend(range(dg.nbins))
    return UnitTable(dims=np.asarray(dims, dtype=np.uint8)[:, None],
                     bins=np.asarray(bins, dtype=np.uint8)[:, None])


def _find_candidate_dense_units(comm: Comm, dense: UnitTable, tau: int,
                                block_join=None
                                ) -> tuple[UnitTable, np.ndarray]:
    """Algorithm 3: build level-(k+1) CDUs from the level-k dense units.

    Returns the concatenated raw CDU table (identical on every rank) and
    the global combined-mask over the dense units.  By default every
    rank builds the sub-signature
    :class:`~repro.core.candidates.HashJoinPlan` once (replicated cheap
    vectorised work, the same trade repeat marking makes) and joins its
    share of pivot rows from it; CLIQUE passes its canonical-order join
    as ``block_join``.  Above τ the ranks are fenced by equation (1)
    (:func:`~repro.core.partition.triangular_splits`) whatever the
    join, so per-rank ``pairs_examined``, message sizes and virtual
    times are the paper's, and the rank-order concatenation below
    reproduces the serial row order.
    """
    ndu = dense.n_units
    if block_join is None:
        block_join = partial(join_block, plan=hash_join_plan(dense))
    if comm.size > 1 and ndu > tau:
        offsets = triangular_splits(ndu, comm.size)
        lo, hi = offsets[comm.rank], offsets[comm.rank + 1]
        jr = block_join(dense, lo, hi)
        comm.charge_pairs(jr.pairs_examined)
        if comm.obs is not None:
            comm.obs.add_pairs("join", jr.pairs_examined)
        fragments = comm.gather(jr.cdus.tobytes(), root=0)
        if comm.rank == 0:
            full = UnitTable.concat_all(
                [UnitTable.frombytes(f) for f in fragments])
            payload = full.tobytes()
        else:
            payload = None
        payload = comm.bcast(payload, root=0)
        full = UnitTable.frombytes(payload)
        combined = comm.allreduce(jr.combined, op="lor")
        return full, combined
    jr = block_join(dense, 0, ndu)
    comm.charge_pairs(jr.pairs_examined)
    if comm.obs is not None:
        comm.obs.add_pairs("join", jr.pairs_examined)
    return jr.cdus, jr.combined


def _eliminate_repeat_cdus(comm: Comm, raw: UnitTable, tau: int,
                           want_order: bool = False
                           ) -> tuple[UnitTable, np.ndarray | None]:
    """Algorithm 4: drop repeated CDUs, task-parallel above τ.

    With ``want_order`` the packed token keys this pass sorts anyway
    are reused to also return the unique table's lexicographic
    permutation — the exact order the indexed populator's shared-prefix
    walk wants (pair ids are monotone in the tokens), handed to
    ``populate_global(order=...)`` so the populate pass skips its own
    lexsort.  Otherwise the second element is ``None``.
    """
    n = raw.n_units
    words = pack_tokens(raw.tokens())

    def kept_order(keep: np.ndarray) -> np.ndarray | None:
        # both branches produce raw.select(keep) in original index
        # order (the rank-order fragment concatenation re-assembles
        # exactly that), so one sort of the kept keys is the unique
        # table's canonical permutation on every rank
        return group_sort(words[keep]) if want_order else None

    if comm.size > 1 and n > tau:
        offsets = triangular_splits(n, comm.size)
        lo, hi = offsets[comm.rank], offsets[comm.rank + 1]
        pairs = prefix_work(n, hi) - prefix_work(n, lo)
        comm.charge_pairs(pairs)
        if comm.obs is not None:
            comm.obs.add_pairs("dedup", pairs)
        flags = repeat_flags_block(raw, lo, hi, words=words)
        repeats = comm.allreduce(flags, op="lor")
        # build-cdu-with-unique-elements: each rank rebuilds its even
        # 1/p-th of the unique table; parent concatenates in rank order.
        even = even_splits(n, comm.size)
        elo, ehi = even[comm.rank], even[comm.rank + 1]
        keep = ~repeats
        keep_mask = np.zeros(n, dtype=bool)
        keep_mask[elo:ehi] = keep[elo:ehi]
        fragment = raw.select(keep_mask)
        fragments = comm.gather(fragment.tobytes(), root=0)
        if comm.rank == 0:
            unique = UnitTable.concat_all(
                [UnitTable.frombytes(f) for f in fragments])
            payload = unique.tobytes()
        else:
            payload = None
        payload = comm.bcast(payload, root=0)
        return UnitTable.frombytes(payload), kept_order(keep)
    comm.charge_pairs(n)
    if comm.obs is not None:
        comm.obs.add_pairs("dedup", n)
    repeats = raw.repeat_mask(words)
    return drop_repeats(raw, repeats), kept_order(~repeats)


def _identify_dense(comm: Comm, cdus: UnitTable, counts: np.ndarray,
                    grid: Grid, tau: int, min_points: int = 0
                    ) -> tuple[np.ndarray, int]:
    """Algorithm 5: dense mask over the CDU table plus the global Ndu."""
    thresholds = unit_thresholds(grid, cdus)
    n = cdus.n_units
    if comm.size > 1 and n > tau:
        offsets = even_splits(n, comm.size)
        lo, hi = offsets[comm.rank], offsets[comm.rank + 1]
        comm.charge_cells(hi - lo)
        flags = dense_flags_block(counts, thresholds, lo, hi, min_points)
        mask = comm.allreduce(flags, op="lor")
        local_count = np.array([int(flags.sum())], dtype=np.int64)
        ndu = int(comm.allreduce(local_count, op="sum")[0])
        return mask, ndu
    comm.charge_cells(n)
    mask = dense_flags_block(counts, thresholds, 0, n, min_points)
    return mask, int(mask.sum())


#: (dense units, their counts) registered as potential clusters
Registered = list[tuple[UnitTable, np.ndarray]]


def _maximal_registrations(trace: tuple[LevelTrace, ...],
                           mask_fn=maximal_mask) -> Registered:
    """The ``report='maximal'`` / ``'merged'`` policies: every dense unit
    passing ``mask_fn`` against the next level seeds a cluster."""
    registered: Registered = []
    for i, level in enumerate(trace):
        if level.n_dense == 0:
            continue
        higher = trace[i + 1].dense if i + 1 < len(trace) else None
        mask = mask_fn(level.dense, higher)
        if mask.any():
            registered.append((level.dense.select(mask),
                               level.dense_counts[mask]))
    return registered


def registrations_for_report(trace: tuple[LevelTrace, ...],
                             registered: Registered,
                             report: str) -> Registered:
    """The registrations to assemble for a given ``report`` policy.

    ``"paper"`` reports the units registered during the level loop
    verbatim; ``"maximal"`` / ``"merged"`` re-derive them from the
    trace.
    """
    if report == "maximal":
        return _maximal_registrations(tuple(trace))
    if report == "merged":
        return _maximal_registrations(tuple(trace), merged_mask)
    return registered


def assemble_clusters(grid: Grid, registered: Registered,
                      terms=dnf_terms) -> tuple[Cluster, ...]:
    """print-clusters(): merge connected registered dense units into
    clusters, reported highest dimensionality first, each with the DNF
    ``terms`` builds from its units' bins."""
    clusters: list[Cluster] = []
    for table, counts in registered:
        if table.n_units == 0:
            continue
        for dims, rows in table.group_by_subspace().items():
            subspace = Subspace(dims)
            bins = table.bins[rows].astype(np.int64)
            labels = face_adjacent_components(bins)
            for label in range(int(labels.max()) + 1):
                member_bins = bins[labels == label]
                clusters.append(Cluster(
                    subspace=subspace,
                    units_bins=member_bins,
                    dnf=terms(grid, subspace, member_bins),
                    point_count=int(counts[rows][labels == label].sum()),
                ))
    clusters.sort(key=lambda c: (-c.dimensionality, c.subspace.dims,
                                 c.units_bins.tolist()))
    return tuple(clusters)


def walk_lattice(comm: Comm, grid: Grid,
                 params: MafiaParams | CliqueParams,
                 indexed: IndexedPopulator, obs: RankObs | None,
                 trace: list[LevelTrace], registered: Registered,
                 on_level: Callable[[int], None] | None = None, *,
                 block_join=None, prune_cdus=None, prune_dense=None,
                 terms=dnf_terms
                 ) -> tuple[tuple[LevelTrace, ...], tuple[Cluster, ...]]:
    """Algorithm 2's level loop over a fixed grid, then print-clusters().

    Per level: join the dense units (Algorithm 3), register the
    non-combinable ones, drop repeats (Algorithm 4), populate from the
    rank's staged bitmap index ``indexed`` (:func:`populate_global`,
    handed the CDUs' lexicographic order, which the dedup computes
    anyway) and identify the dense units (Algorithm 5).  The walk
    continues from ``trace`` / ``registered`` (both extended in place;
    empty for a fresh walk) and calls ``on_level(level)`` after each
    completed level.  Rank 0 then assembles the clusters under
    ``params.report`` and broadcasts them.  A batch run and a stream
    snapshot differ only in the records ``indexed`` covers.

    CLIQUE swaps in its own steps, each defaulting to pMAFIA's:
    ``block_join`` replaces the hash join; ``prune_cdus(cdus, dense)``
    returns a keep-mask over the deduplicated CDUs, and a level it
    empties ends the walk; ``prune_dense(dense, counts)`` thins a
    level's dense units before it is traced; ``terms`` replaces
    :func:`~repro.core.dnf.dnf_terms`.
    """
    def level_pass(cdus: UnitTable, raw_count: int, level: int,
                   order: np.ndarray | None = None) -> LevelTrace:
        fault_site(comm, "populate", level)
        with _ospan(obs, "level", cat="level", level=level) as sp:
            with _ospan(obs, "population", cat="phase"):
                counts = populate_global(None, comm, grid, cdus,
                                         params.chunk_records,
                                         indexed=indexed, order=order)
            mask, ndu = _identify_dense(comm, cdus, counts, grid,
                                        params.tau, params.min_bin_points)
            dense, dense_counts = dense_units(cdus, counts, mask)
            if prune_dense is not None:
                dense, dense_counts = prune_dense(dense, dense_counts)
                ndu = dense.n_units
            if sp is not None:
                sp["n_cdus"] = cdus.n_units
                sp["n_dense"] = ndu
            if obs is not None:
                obs.level_stats(level, raw_count, cdus.n_units, ndu)
            return LevelTrace(level=level, n_cdus_raw=raw_count,
                              n_cdus=cdus.n_units, n_dense=ndu,
                              dense=dense, dense_counts=dense_counts)

    def completed(level: int) -> None:
        if on_level is not None:
            on_level(level)

    if not trace:
        cdus = _level_one_cdus(grid)
        trace.append(level_pass(cdus, cdus.n_units, 1))
        completed(1)
    current = trace[-1]
    while current.n_dense > 0:
        dense, dense_counts = current.dense, current.dense_counts
        if current.level >= params.max_dimensionality:
            registered.append((dense, dense_counts))
            break
        fault_site(comm, "join", current.level)
        with _ospan(obs, "join", cat="phase"):
            raw, combined = _find_candidate_dense_units(
                comm, dense, params.tau, block_join)
        # non-combinable dense units are registered as potential clusters
        if (~combined).any():
            registered.append((dense.select(~combined),
                               dense_counts[~combined]))
        if raw.n_units == 0:
            if combined.any():
                registered.append((dense.select(combined),
                                   dense_counts[combined]))
            break
        fault_site(comm, "dedup", current.level)
        with _ospan(obs, "dedup", cat="phase"):
            cdus, pop_order = _eliminate_repeat_cdus(comm, raw, params.tau,
                                                     want_order=True)
        if prune_cdus is not None:
            keep = prune_cdus(cdus, dense)
            # the kept rows' lexicographic order is the dedup's, filtered
            pop_order = (np.cumsum(keep) - 1)[pop_order[keep[pop_order]]]
            cdus = cdus.select(keep)
            if cdus.n_units == 0:
                registered.append((dense.select(combined),
                                   dense_counts[combined]))
                break
        nxt = level_pass(cdus, raw.n_units, current.level + 1,
                         order=pop_order)
        trace.append(nxt)
        if nxt.n_dense == 0 and combined.any():
            # the combinable units were the top of the lattice after all
            registered.append((dense.select(combined),
                               dense_counts[combined]))
        current = nxt
        completed(current.level)
    with _ospan(obs, "assembly", cat="phase"):
        clusters = None
        if comm.rank == 0:
            reg = registrations_for_report(tuple(trace), registered,
                                           params.report)
            clusters = assemble_clusters(grid, reg, terms)
        clusters = comm.bcast(clusters, root=0)
    return tuple(trace), clusters


def pmafia_rank(comm: Comm, data: Any, params: MafiaParams | None = None,
                domains: np.ndarray | None = None, *,
                checkpoint_dir: Any = None, resume: bool = False,
                retry: RetryPolicy | None = None) -> ClusteringResult:
    """Run one rank of pMAFIA (Algorithm 2).  Call through
    :func:`repro.core.mafia.mafia` or :func:`pmafia` unless you are
    driving your own SPMD program.

    With ``checkpoint_dir`` set, rank 0 serialises the level frontier
    after every completed level; with ``resume`` additionally set, the
    run restarts from the newest checkpoint in that directory (all
    ranks receive the restored state by broadcast), re-running only the
    remaining passes — the result is bit-identical to an uninterrupted
    run because every later pass is a deterministic function of the
    per-level state.  ``retry`` bounds transient chunk-read failures
    (see :mod:`repro.io.resilient`).

    With ``params.trace`` / ``params.metrics`` set, a per-rank
    :class:`~repro.obs.RankObs` observes the whole run (spans, counters,
    collective sizes) without touching the cost model — the returned
    result carries its export in ``.obs`` and, on a checkpointed rank 0,
    a ``run_manifest.json`` is written next to the checkpoints.  With
    both knobs off this wrapper adds a single ``None`` check.
    """
    params = params or MafiaParams()
    obs = RankObs.create(params, comm)
    if obs is None:
        return _pmafia_rank(comm, data, params, domains,
                            checkpoint_dir=checkpoint_dir, resume=resume,
                            retry=retry, obs=None)
    with obs.activate(comm):
        with obs.span("run", cat="run", rank=comm.rank, size=comm.size):
            result = _pmafia_rank(comm, data, params, domains,
                                  checkpoint_dir=checkpoint_dir,
                                  resume=resume, retry=retry, obs=obs)
        if checkpoint_dir is not None and comm.rank == 0:
            manifest = build_manifest(result, phases=obs.phase_seconds(),
                                      nprocs=comm.size,
                                      virtual_seconds=comm.time())
            write_manifest(Path(checkpoint_dir) / MANIFEST_NAME, manifest)
    return replace(result, obs=obs.export())


def _pmafia_rank(comm: Comm, data: Any, params: MafiaParams,
                 domains: np.ndarray | None, *, checkpoint_dir: Any,
                 resume: bool, retry: RetryPolicy | None,
                 obs: RankObs | None) -> ClusteringResult:
    """The actual per-rank driver; ``obs`` is this rank's observer (or
    ``None``, making every hook a plain ``is None`` check)."""
    fault_site(comm, "start")
    source, start, stop = _local_view(comm, data)
    n_local = stop - start

    n_records = int(comm.allreduce(np.array([n_local], dtype=np.int64),
                                   op="sum")[0])
    if n_records == 0:
        raise DataError("cannot cluster an empty data set")
    state = None
    if checkpoint_dir is not None and resume:
        with _ospan(obs, "checkpoint_restore", cat="checkpoint") as sp:
            if comm.rank == 0:
                state = load_latest_checkpoint(checkpoint_dir)
            state = comm.bcast(state, root=0)
            if state is not None:
                check_compatible(state, params, n_records)
                if sp is not None:
                    sp["level"] = state["level"]
                if obs is not None:
                    obs.checkpoint_restored(state["level"])

    def save_level(level: int) -> None:
        if checkpoint_dir is None or comm.rank != 0:
            return
        with _ospan(obs, "checkpoint_save", cat="checkpoint", level=level):
            path = save_checkpoint(checkpoint_dir, level, {
                "level": level,
                "params": params,
                "n_records": n_records,
                "domains": np.asarray(domains, dtype=np.float64),
                "grid": grid,
                "grid_hash": grid_fingerprint(grid),
                "trace": tuple(trace),
                "registered": tuple(registered),
            })
        if obs is not None:
            obs.checkpoint_saved(level, path.stat().st_size)

    # the fine codes of this rank's records, kept by the histogram pass
    # (when they fit the budget) so that staging reads no floats
    codes = None
    if state is not None:
        domains = state["domains"]
        grid = state["grid"]
        trace = list(state["trace"])
        registered = list(state["registered"])
    else:
        with _ospan(obs, "grid", cat="phase"):
            if domains is None:
                fault_site(comm, "domains", 0)
                domains = global_domains(source, comm, params.chunk_records,
                                         start, stop, retry)
            else:
                domains = np.asarray(domains, dtype=np.float64)
            fault_site(comm, "histogram", 0)
            dtype = code_dtype(params.fine_bins)
            if source.n_dims * n_local * dtype.itemsize \
                    <= params.bitmap_budget:
                codes = np.empty((source.n_dims, n_local), dtype=dtype)
            fine = fine_histogram_global(source, comm, domains,
                                         params.fine_bins,
                                         params.chunk_records, start, stop,
                                         retry, codes=codes)
            grid = build_grid(fine, domains, n_records, params)
        trace = []
        registered = []

    # once the grid is fixed, one pass over the kept fine codes (or,
    # when they were not kept, the records) stages this rank's
    # per-(dim, bin) bitmap index: level passes become AND + popcount
    # over cached bitmaps with no data reads at all (staging is free on
    # the virtual clock, and the populator replays a record pass's
    # exact charge sequence).  The codes are kept only while they fit
    # the budget beside the index, and dropped once it is built.
    if codes is not None and codes.nbytes + index_nbytes(grid, n_local) \
            > params.bitmap_budget:
        codes = None
    with _ospan(obs, "stage_bitmap_index", cat="io"):
        index = stage_bitmap_index(source, comm, grid,
                                   params.chunk_records, start, stop,
                                   budget=params.bitmap_budget, retry=retry,
                                   codes=codes)
    del codes
    indexed = IndexedPopulator(index)

    if state is None:
        # a fresh checkpointed run must not leave stale higher-level
        # files behind for a later resume to pick up
        if checkpoint_dir is not None and comm.rank == 0:
            clear_checkpoints(checkpoint_dir)
        # the level-0 checkpoint (grid + domains, empty frontier)
        # lets a restart after a loss during the *first* level pass
        # skip grid construction
        save_level(0)
    walked, clusters = walk_lattice(comm, grid, params, indexed, obs,
                                    trace, registered, on_level=save_level)
    return ClusteringResult(grid=grid, clusters=clusters,
                            trace=walked, params=params,
                            n_records=n_records)
