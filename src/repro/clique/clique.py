"""The CLIQUE driver — serial and parallel baseline (paper §3, §5).

Structure mirrors the pMAFIA driver (Algorithm 2) with CLIQUE's choices
swapped in:

* **uniform grid** of ξ equal bins per dimension with a single global
  density threshold τ (both user inputs — the supervision the paper
  criticises);
* **prefix join** sharing the first k−2 dimensions, with a-priori
  candidate pruning; or the paper's §5.5 *modified* CLIQUE, which uses
  MAFIA's any-(k−2) join on the uniform grid (``modified_join=True``);
* optional **MDL subspace pruning** after each level (off by default —
  the paper disables it to preserve quality);
* clusters reported from *maximal* dense units with CLIQUE's
  greedy-growth rectangle cover over the fixed grid.

The task/data parallel scaffolding (equation-(1) splits, gathers,
Reduces) is shared with pMAFIA, so the paper's "parallelized version of
CLIQUE" (§5.8) comes for free.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.identify import dense_units
from ..core.mafia import PMafiaRun, _collect_run
from ..core.pmafia import (Registered, _eliminate_repeat_cdus,
                           _find_candidate_dense_units, _identify_dense,
                           _level_one_cdus, _local_view,
                           _maximal_registrations)
from ..core.population import IndexedPopulator, populate_global
from ..core.result import ClusteringResult, LevelTrace
from ..core.units import UnitTable
from ..core.histogram import global_domains
from ..core.merge import face_adjacent_components
from ..errors import DataError
from ..io.bitmap_index import stage_bitmap_index
from ..params import CliqueParams
from ..parallel.comm import Comm
from ..parallel.machine import MachineSpec
from ..parallel.serial import SerialComm
from ..parallel.spmd import run_spmd
from ..types import Cluster, DNFTerm, Grid, Subspace
from .cover import minimal_cover
from .grid import uniform_grid
from .join import apriori_prune, prefix_join_block


def clique_clusters(grid: Grid, registered: Registered
                    ) -> tuple[Cluster, ...]:
    """CLIQUE's cluster reports: connected dense units covered by
    greedily-minimised maximal rectangles on the uniform grid."""
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
                terms = []
                for box in minimal_cover(member_bins):
                    intervals = tuple(
                        (grid[d].edges[lo], grid[d].edges[hi + 1])
                        for d, (lo, hi) in zip(subspace.dims, box))
                    terms.append(DNFTerm(subspace=subspace,
                                         intervals=intervals))
                clusters.append(Cluster(
                    subspace=subspace,
                    units_bins=member_bins,
                    dnf=tuple(terms),
                    point_count=int(counts[rows][labels == label].sum()),
                ))
    clusters.sort(key=lambda c: (-c.dimensionality, c.subspace.dims,
                                 c.units_bins.tolist()))
    return tuple(clusters)


def clique_rank(comm: Comm, data: Any, params: CliqueParams | None = None,
                domains: np.ndarray | None = None) -> ClusteringResult:
    """Run one rank of (parallel) CLIQUE."""
    params = params or CliqueParams()
    source, start, stop = _local_view(comm, data)
    n_local = stop - start
    n_records = int(comm.allreduce(np.array([n_local], dtype=np.int64),
                                   op="sum")[0])
    if n_records == 0:
        raise DataError("cannot cluster an empty data set")
    if domains is None:
        domains = global_domains(source, comm, params.chunk_records,
                                 start, stop)
    else:
        domains = np.asarray(domains, dtype=np.float64)

    grid = uniform_grid(domains, params.bins_for(source.n_dims),
                        n_records, params.threshold)

    # one bitmap index per run, like pMAFIA: every level pass is then
    # AND + popcount with the paper's record-scan charges replayed
    indexed = IndexedPopulator(stage_bitmap_index(
        source, comm, grid, params.chunk_records, start, stop))

    # the modified join is MAFIA's any-(k-2) join, the driver's default
    block_join = None if params.modified_join else prefix_join_block

    def level_pass(cdus: UnitTable, raw_count: int, level: int) -> LevelTrace:
        counts = populate_global(source, comm, grid, cdus,
                                 params.chunk_records, start, stop,
                                 indexed=indexed)
        mask, ndu = _identify_dense(comm, cdus, counts, grid, params.tau)
        dense, dense_counts = dense_units(cdus, counts, mask)
        if params.mdl_prune and dense.n_units:
            from .mdl import mdl_cut, prune_units, subspace_coverage
            selected = mdl_cut(subspace_coverage(dense, dense_counts))
            dense, dense_counts = prune_units(dense, dense_counts, selected)
            ndu = dense.n_units
        return LevelTrace(level=level, n_cdus_raw=raw_count,
                          n_cdus=cdus.n_units, n_dense=ndu,
                          dense=dense, dense_counts=dense_counts)

    cdus = _level_one_cdus(grid)
    trace: list[LevelTrace] = [level_pass(cdus, cdus.n_units, 1)]
    current = trace[-1]
    while current.n_dense > 0 and current.level < params.max_dimensionality:
        # the prefix join expects canonical order; sorting keeps counts
        # aligned by re-deriving dense from the sorted table
        dense_sorted = current.dense.sort()
        raw, _combined = _find_candidate_dense_units(
            comm, dense_sorted, params.tau, block_join)
        if raw.n_units == 0:
            break
        cdus, _ = _eliminate_repeat_cdus(comm, raw, params.tau)
        if params.apriori_prune and cdus.n_units:
            keep = apriori_prune(cdus, dense_sorted)
            comm.charge_pairs(cdus.n_units)
            cdus = cdus.select(keep)
            if cdus.n_units == 0:
                break
        nxt = level_pass(cdus, raw.n_units, current.level + 1)
        trace.append(nxt)
        current = nxt

    registered = _maximal_registrations(tuple(trace))
    if comm.rank == 0:
        clusters = clique_clusters(grid, registered)
    else:
        clusters = None
    clusters = comm.bcast(clusters, root=0)
    return ClusteringResult(grid=grid, clusters=clusters,
                            trace=tuple(trace), params=params,
                            n_records=n_records)


def clique(data: Any, params: CliqueParams | None = None,
           domains: np.ndarray | None = None) -> ClusteringResult:
    """Serial CLIQUE (baseline for every head-to-head in the paper)."""
    return clique_rank(SerialComm(), data, params, domains)


def pclique(data: Any, nprocs: int, params: CliqueParams | None = None,
            *, backend: str = "thread", machine: MachineSpec | None = None,
            collectives: str = "flat",
            domains: np.ndarray | None = None) -> PMafiaRun:
    """Parallel CLIQUE on ``nprocs`` ranks (§5.4/§5.8 comparisons)."""
    if nprocs == 1 and backend == "thread":
        backend = "serial"
    ranks = run_spmd(clique_rank, nprocs, backend=backend, machine=machine,
                     collectives=collectives, args=(data, params, domains))
    return _collect_run(ranks, nprocs, backend)
