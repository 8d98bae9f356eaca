"""Minimal DNF cluster descriptions and subset elimination (§3.2, §4.4).

Because pMAFIA's bins already hug the data distribution, a cluster's
description is simply a union of maximal grid rectangles over its own
bin boundaries — "minimal DNF expressions ... report the boundaries of
clusters far more accurately" than CLIQUE's fixed grid.  The greedy
cover below grows each rectangle as far as the cluster's cells allow,
then covers the next uncovered cell, yielding a small (not provably
minimum — minimum rectangle cover is NP-hard, which is why CLIQUE also
uses a greedy heuristic) DNF.

Subset elimination: "Clusters which are a proper subset of a higher
dimension cluster are eliminated and only unique clusters of the highest
dimensionality are presented."  At the unit level: a dense unit of level
k−1 is *maximal* iff it is not the projection of any dense unit of level
k; only maximal units seed clusters.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Sequence

import numpy as np

from ..errors import DataError
from ..types import Cluster, DNFTerm, Grid, Subspace
from .units import UnitTable


def grow_box(cells: set[tuple[int, ...]], seed: tuple[int, ...]
             ) -> tuple[tuple[int, int], ...]:
    """Grow a maximal axis-aligned box of cells around ``seed``.

    Returns inclusive ``(lo, hi)`` bin ranges per coordinate.  Growth
    alternates over coordinates, extending one layer at a time while the
    whole layer is present in ``cells``.
    """
    if seed not in cells:
        raise DataError(f"seed {seed} not among the cluster cells")
    k = len(seed)
    lo = list(seed)
    hi = list(seed)

    def layer_present(axis: int, value: int) -> bool:
        ranges = [range(lo[j], hi[j] + 1) if j != axis else (value,)
                  for j in range(k)]
        return all(cell in cells for cell in iter_product(*ranges))

    grew = True
    while grew:
        grew = False
        for axis in range(k):
            if layer_present(axis, hi[axis] + 1):
                hi[axis] += 1
                grew = True
            if layer_present(axis, lo[axis] - 1):
                lo[axis] -= 1
                grew = True
    return tuple(zip(lo, hi))


def greedy_cover(bins: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """Cover a set of cells (rows of bin indices) by maximal boxes.

    Boxes may overlap (a cell can belong to several maximal rectangles);
    each box is emitted once and covers at least one previously uncovered
    cell, so the cover has at most as many boxes as cells.
    """
    bins = np.asarray(bins, dtype=np.int64)
    if bins.ndim != 2:
        raise DataError(f"bins must be 2-D, got {bins.shape}")
    cells = {tuple(row) for row in bins.tolist()}
    uncovered = set(cells)
    boxes: list[tuple[tuple[int, int], ...]] = []
    while uncovered:
        seed = min(uncovered)
        box = grow_box(cells, seed)
        boxes.append(box)
        ranges = [range(lo, hi + 1) for lo, hi in box]
        uncovered.difference_update(iter_product(*ranges))
    return boxes


def dnf_terms(grid: Grid, subspace: Subspace,
              bins: np.ndarray) -> tuple[DNFTerm, ...]:
    """The DNF description of one cluster: its greedy box cover with bin
    ranges mapped to attribute intervals through the adaptive grid."""
    terms = []
    for box in greedy_cover(bins):
        intervals = []
        for dim, (lo, hi) in zip(subspace.dims, box):
            dg = grid[dim]
            intervals.append((dg.edges[lo], dg.edges[hi + 1]))
        terms.append(DNFTerm(subspace=subspace, intervals=tuple(intervals)))
    return tuple(terms)


def term_arrays(clusters: Sequence[Cluster]) -> "TermArrays":
    """Flatten the clusters' DNF terms into parallel condition arrays —
    the array form the serving compiler (:mod:`repro.serve.compile`)
    consumes instead of walking ``DNFTerm`` objects term by term.

    Term ``t`` of the flattened table contributes one *condition* row
    per dimension of its subspace; conditions of one term are emitted
    contiguously, and terms of one cluster are emitted contiguously in
    cluster order — the layout that lets the compiler give every
    cluster a contiguous bit range in the packed term mask.
    """
    term_cluster: list[int] = []
    cond_term: list[int] = []
    cond_dim: list[int] = []
    cond_lo: list[float] = []
    cond_hi: list[float] = []
    for ci, cluster in enumerate(clusters):
        for term in cluster.dnf:
            t = len(term_cluster)
            term_cluster.append(ci)
            for dim, (lo, hi) in zip(term.subspace.dims, term.intervals):
                cond_term.append(t)
                cond_dim.append(dim)
                cond_lo.append(lo)
                cond_hi.append(hi)
    return TermArrays(
        n_clusters=len(clusters),
        term_cluster=np.asarray(term_cluster, dtype=np.int64),
        cond_term=np.asarray(cond_term, dtype=np.int64),
        cond_dim=np.asarray(cond_dim, dtype=np.int64),
        cond_lo=np.asarray(cond_lo, dtype=np.float64),
        cond_hi=np.asarray(cond_hi, dtype=np.float64))


class TermArrays:
    """The DNF terms of a cluster set as five parallel flat arrays.

    ``term_cluster[t]`` is the cluster index of term ``t``; condition
    row ``c`` says term ``cond_term[c]`` requires
    ``cond_lo[c] <= record[cond_dim[c]] < cond_hi[c]``.  A record
    matches a cluster iff it satisfies *every* condition of at least
    one of the cluster's terms (plain DNF semantics).
    """

    __slots__ = ("n_clusters", "term_cluster", "cond_term", "cond_dim",
                 "cond_lo", "cond_hi")

    def __init__(self, n_clusters: int, term_cluster: np.ndarray,
                 cond_term: np.ndarray, cond_dim: np.ndarray,
                 cond_lo: np.ndarray, cond_hi: np.ndarray) -> None:
        if not (len(cond_term) == len(cond_dim) == len(cond_lo)
                == len(cond_hi)):
            raise DataError("condition arrays must have equal length")
        if len(cond_term) and int(cond_term.max()) >= len(term_cluster):
            raise DataError("cond_term references a term out of range")
        if len(term_cluster) and int(term_cluster.max()) >= n_clusters:
            raise DataError("term_cluster references a cluster out of range")
        self.n_clusters = int(n_clusters)
        self.term_cluster = term_cluster
        self.cond_term = cond_term
        self.cond_dim = cond_dim
        self.cond_lo = cond_lo
        self.cond_hi = cond_hi

    @property
    def n_terms(self) -> int:
        return int(len(self.term_cluster))

    @property
    def n_conditions(self) -> int:
        return int(len(self.cond_term))


def projections(units: UnitTable) -> UnitTable:
    """All level-(k−1) projections of a level-k table (drop one dimension
    per unit, k projections each)."""
    k = units.level
    if k < 2:
        raise DataError("cannot project level-1 units")
    if units.n_units == 0:
        return UnitTable.empty(k - 1)
    dims_parts = []
    bins_parts = []
    for drop in range(k):
        keep = [j for j in range(k) if j != drop]
        dims_parts.append(units.dims[:, keep])
        bins_parts.append(units.bins[:, keep])
    return UnitTable(dims=np.concatenate(dims_parts),
                     bins=np.concatenate(bins_parts))


def maximal_mask(lower: UnitTable, higher: UnitTable | None) -> np.ndarray:
    """True for each unit of ``lower`` (level k−1) that is *not* a
    projection of any unit of ``higher`` (level k)."""
    if higher is None or higher.n_units == 0:
        return np.ones(lower.n_units, dtype=bool)
    if higher.level != lower.level + 1:
        raise DataError(
            f"level mismatch: lower {lower.level}, higher {higher.level}")
    proj = projections(higher).unique()
    return ~proj.contains_rows(lower)


#: give up on the exact Chebyshev ball beyond this many expanded rows
#: and fall back to axis-only neighbours
_NEIGHBOUR_LIMIT = 2_000_000


def _with_neighbours(units: UnitTable) -> UnitTable:
    """Every unit plus its Chebyshev-distance-1 neighbourhood (each bin
    index independently shifted by -1/0/+1, clipped at byte range).

    Built by expanding one coordinate at a time with dedup in between,
    so the blow-up is bounded by the real neighbourhood size rather than
    3^k.  Beyond ``_NEIGHBOUR_LIMIT`` rows the expansion degrades to the
    already-accumulated set (axis-partial), which only makes suppression
    more conservative.
    """
    current = units
    k = units.level
    for j in range(k):
        tables = [current]
        bins16 = current.bins.astype(np.int16)
        for delta in (-1, 1):
            shifted = bins16.copy()
            shifted[:, j] += delta
            keep = (shifted[:, j] >= 0) & (shifted[:, j] <= 255)
            if keep.any():
                tables.append(UnitTable(dims=current.dims[keep],
                                        bins=shifted[keep].astype(np.uint8)))
        expanded = UnitTable.concat_all(tables).unique()
        if expanded.n_units > _NEIGHBOUR_LIMIT:
            break
        current = expanded
    return current


def merged_mask(lower: UnitTable, higher: UnitTable | None) -> np.ndarray:
    """The ``report='merged'`` policy: True for lower-level units that
    are neither projections of a higher dense unit *nor its neighbours*
    in their subspace — within Chebyshev distance 1 of a projection,
    i.e. every bin within ±1, diagonals included.

    Adjacent leftovers are boundary slivers of the higher-dimensional
    cluster (an adaptive bin that overhangs the cluster edge); reporting
    them as separate clusters would contradict the paper's Table 3/4
    outputs, while genuinely separate lower-dimensional clusters share
    no boundary with anything above and survive.
    """
    if higher is None or higher.n_units == 0:
        return np.ones(lower.n_units, dtype=bool)
    if higher.level != lower.level + 1:
        raise DataError(
            f"level mismatch: lower {lower.level}, higher {higher.level}")
    proj = projections(higher).unique()
    return ~_with_neighbours(proj).contains_rows(lower)
