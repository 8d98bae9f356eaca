"""The CLIQUE driver — serial and parallel baseline (paper §3, §5).

It runs the pMAFIA driver's level walk (Algorithm 2,
:func:`~repro.core.pmafia.walk_lattice`) with CLIQUE's choices swapped
in:

* **uniform grid** of ξ equal bins per dimension with a single global
  density threshold τ (both user inputs — the supervision the paper
  criticises);
* **prefix join** sharing the first k−2 dimensions, with a-priori
  candidate pruning; or the paper's §5.5 *modified* CLIQUE, which uses
  MAFIA's any-(k−2) join on the uniform grid (``modified_join=True``);
  either join runs over the dense table in canonical order;
* optional **MDL subspace pruning** after each level (off by default —
  the paper disables it to preserve quality);
* clusters reported from *maximal* dense units with CLIQUE's
  greedy-growth rectangle cover over the fixed grid.

The task/data parallel scaffolding (equation-(1) splits, gathers,
Reduces) and the walk's fault sites are shared with pMAFIA, so the
paper's "parallelized version of CLIQUE" (§5.8) comes for free.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any

import numpy as np

from ..core.candidates import JoinResult, hash_join_plan, join_block
from ..core.histogram import global_domains
from ..core.mafia import PMafiaRun, _collect_run
from ..core.pmafia import _local_view, walk_lattice
from ..core.population import IndexedPopulator
from ..core.result import ClusteringResult
from ..core.units import UnitTable
from ..errors import DataError
from ..io.bitmap_index import stage_bitmap_index
from ..params import CliqueParams
from ..parallel.comm import Comm
from ..parallel.machine import MachineSpec
from ..parallel.serial import SerialComm
from ..parallel.spmd import run_spmd
from ..types import DNFTerm, Grid, Subspace
from .cover import minimal_cover
from .grid import uniform_grid
from .join import apriori_prune, prefix_join_block
from .mdl import mdl_cut, prune_units, subspace_coverage


def _canonical_join(dense: UnitTable, start: int, stop: int, *,
                    modified: bool) -> JoinResult:
    """Join rows ``[start, stop)`` of ``dense`` sorted canonically (the
    order the prefix join needs and equation (1) fences), with the
    combined-mask scattered back to ``dense``'s own row order."""
    order = dense.canonical_order()
    dense = dense.select(order)
    jr = (join_block(dense, start, stop, plan=hash_join_plan(dense))
          if modified else prefix_join_block(dense, start, stop))
    return replace(jr, combined=jr.combined[np.argsort(order)])


def _mdl_prune(dense: UnitTable, counts: np.ndarray
               ) -> tuple[UnitTable, np.ndarray]:
    """Keep the dense units of the subspaces the MDL cut selects."""
    selected = mdl_cut(subspace_coverage(dense, counts))
    return prune_units(dense, counts, selected)


def _cover_terms(grid: Grid, subspace: Subspace, bins: np.ndarray
                 ) -> tuple[DNFTerm, ...]:
    """A cluster's DNF: CLIQUE's minimised rectangle cover of its units,
    read off the uniform grid's edges."""
    return tuple(
        DNFTerm(subspace=subspace,
                intervals=tuple((grid[d].edges[lo], grid[d].edges[hi + 1])
                                for d, (lo, hi) in zip(subspace.dims, box)))
        for box in minimal_cover(bins))


def clique_rank(comm: Comm, data: Any, params: CliqueParams | None = None,
                domains: np.ndarray | None = None) -> ClusteringResult:
    """Run one rank of (parallel) CLIQUE."""
    params = params or CliqueParams()
    source, start, stop = _local_view(comm, data)
    n_records = int(comm.allreduce(np.array([stop - start], dtype=np.int64),
                                   op="sum")[0])
    if n_records == 0:
        raise DataError("cannot cluster an empty data set")
    if domains is None:
        domains = global_domains(source, comm, params.chunk_records,
                                 start, stop)

    grid = uniform_grid(domains, params.bins_for(source.n_dims),
                        n_records, params.threshold)

    # one bitmap index per run, like pMAFIA: every level pass is then
    # AND + popcount with the paper's record-scan charges replayed
    indexed = IndexedPopulator(stage_bitmap_index(
        source, comm, grid, params.chunk_records, start, stop))

    def apriori(cdus: UnitTable, dense: UnitTable) -> np.ndarray:
        comm.charge_pairs(cdus.n_units)
        return apriori_prune(cdus, dense)

    trace, clusters = walk_lattice(
        comm, grid, params, indexed, None, [], [],
        block_join=partial(_canonical_join, modified=params.modified_join),
        prune_cdus=apriori if params.apriori_prune else None,
        prune_dense=_mdl_prune if params.mdl_prune else None,
        terms=_cover_terms)
    return ClusteringResult(grid=grid, clusters=clusters, trace=trace,
                            params=params, n_records=n_records)


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
