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
from .units import UnitTable, group_sort, group_starts


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
    keeps = [[j for j in range(k) if j != drop] for drop in range(k)]
    return UnitTable(dims=np.concatenate([units.dims[:, c] for c in keeps]),
                     bins=np.concatenate([units.bins[:, c] for c in keeps]))


#: candidate (lower unit, projection) pairs tested per batch, so the
#: report join's memory never scales with the pairs one subspace holds
_PAIR_BATCH = 1 << 16


def _near_projections(lower: UnitTable, higher: UnitTable | None,
                      reach: int) -> np.ndarray:
    """True for each unit of ``lower`` (level k−1) in the subspace of a
    projection of some ``higher`` (level k) unit with every bin within
    ``reach`` of it — one exact join at every lattice size.

    Both sides are grouped on their packed dims key; inside a subspace
    a lower unit meets only the projections whose first bin is within
    ±``reach`` (clipped to the byte range, so the band never spills into
    the next subspace), and each candidate pair is tested on every
    coordinate, ``_PAIR_BATCH`` pairs at a time."""
    near = np.zeros(lower.n_units, dtype=bool)
    if higher is None or higher.n_units == 0:
        return near
    if higher.level != lower.level + 1:
        raise DataError(
            f"level mismatch: lower {lower.level}, higher {higher.level}")
    proj = projections(higher).unique()
    words = np.concatenate([proj._row_words(dims_only=True),
                            lower._row_words(dims_only=True)])
    order = group_sort(words)
    group = np.empty(len(words), dtype=np.int64)
    group[order] = np.cumsum(group_starts(words[order])) - 1
    # unique() leaves the projections in (dims, bins) order, so their
    # (subspace, first bin) keys are already sorted
    proj_key = group[:proj.n_units] * 256 + proj.bins[:, 0]
    lower_key = group[proj.n_units:] * 256
    first = lower.bins[:, 0].astype(np.int64)
    lo = np.searchsorted(proj_key, lower_key + np.maximum(first - reach, 0))
    hi = np.searchsorted(proj_key, lower_key + np.minimum(first + reach, 255),
                         "right")
    ends = np.cumsum(hi - lo)
    proj_bins = proj.bins.astype(np.int16)
    lower_bins = lower.bins.astype(np.int16)
    n_pairs = int(ends[-1]) if lower.n_units else 0
    for start in range(0, n_pairs, _PAIR_BATCH):
        pair = np.arange(start, min(start + _PAIR_BATCH, n_pairs))
        li = np.searchsorted(ends, pair, "right")
        pi = hi[li] - (ends[li] - pair)
        close = (np.abs(proj_bins[pi] - lower_bins[li]) <= reach).all(axis=1)
        near[li[close]] = True
    return near


def maximal_mask(lower: UnitTable, higher: UnitTable | None) -> np.ndarray:
    """True for each unit of ``lower`` (level k−1) that is *not* a
    projection of any unit of ``higher`` (level k)."""
    return ~_near_projections(lower, higher, reach=0)


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
    return ~_near_projections(lower, higher, reach=1)
