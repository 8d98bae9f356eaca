"""Core value types shared across the library.

A *grid* is a per-dimension list of variable-width bins, each with a
density threshold.  A *unit* is a hyper-rectangle identified by an ordered
set of dimensions and one bin index per dimension; units are stored in
bulk as flat byte arrays (see :mod:`repro.core.units`).  A *cluster* is a
union of connected dense units in one subspace, reported as a DNF
expression over bin intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError, GridError

#: unit tables hold bin indices in one byte (see repro.core.units)
MAX_BINS = 256


@dataclass(frozen=True)
class BinInterval:
    """A half-open interval ``[low, high)`` in one dimension with its
    density threshold (minimum point count to be considered dense)."""

    low: float
    high: float
    threshold: float

    def __post_init__(self) -> None:
        if not self.high > self.low:
            raise GridError(f"empty bin [{self.low}, {self.high})")

    @property
    def width(self) -> float:
        return self.high - self.low


@dataclass(frozen=True)
class DimensionGrid:
    """The adaptive (or uniform) binning of a single dimension.

    The domain ``[lo, hi)`` is divided into ``n_fine`` equal fine
    intervals (the fine histogram's), and every bin is a run of them:
    bin ``b`` spans fine intervals ``[cuts[b], cuts[b + 1])``.  A value's
    bin is therefore ``lut[fine_code]`` — one
    :func:`~repro.core.histogram.fine_codes` call plus a lookup — so a
    bin counts exactly the records its fine-histogram intervals
    counted.  ``edges`` and ``lut`` are derived from the other fields.
    """

    dim: int
    lo: float
    hi: float
    n_fine: int
    cuts: tuple[int, ...]             # len == nbins + 1, 0 ... n_fine
    thresholds: tuple[float, ...]     # len == nbins
    uniform: bool = False             # True when Algorithm 1 re-split an
                                      # equi-distributed dimension
    #: bin boundaries ``lo + cut * ((hi - lo) / n_fine)``, last == hi
    edges: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        n_fine = int(self.n_fine)
        cuts = tuple(int(c) for c in self.cuts)
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise GridError(f"dimension {self.dim}: bad domain [{lo}, {hi})")
        if len(cuts) < 2:
            raise GridError(f"dimension {self.dim}: needs at least one bin")
        if cuts[0] != 0 or cuts[-1] != n_fine \
                or any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise GridError(
                f"dimension {self.dim}: cuts {cuts} must rise from 0 to "
                f"n_fine = {n_fine}")
        nbins = len(cuts) - 1
        if nbins > MAX_BINS:
            raise GridError(f"dimension {self.dim}: {nbins} bins exceed the "
                            f"byte limit {MAX_BINS}")
        if len(self.thresholds) != nbins:
            raise GridError(
                f"dimension {self.dim}: {len(self.thresholds)} thresholds for "
                f"{nbins} bins")
        edges = fine_edges(lo, hi, n_fine, cuts)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise GridError(f"dimension {self.dim}: edges not increasing: "
                            f"{edges}")
        for name, value in (("lo", lo), ("hi", hi), ("n_fine", n_fine),
                            ("cuts", cuts), ("edges", edges)):
            object.__setattr__(self, name, value)

    @cached_property
    def lut(self) -> np.ndarray:
        """Read-only ``(n_fine,)`` ``uint8`` map from fine code to bin."""
        lut = np.repeat(np.arange(self.nbins, dtype=np.uint8),
                        np.diff(self.cuts))
        lut.setflags(write=False)
        return lut

    @property
    def nbins(self) -> int:
        return len(self.cuts) - 1

    def bin(self, index: int) -> BinInterval:
        """Return bin ``index`` as a :class:`BinInterval`."""
        return BinInterval(self.edges[index], self.edges[index + 1],
                           self.thresholds[index])

    def bins(self) -> Iterator[BinInterval]:
        """Iterate this dimension's bins in order."""
        for i in range(self.nbins):
            yield self.bin(i)

    def locate(self, values: np.ndarray) -> np.ndarray:
        """Vectorised ``uint8`` bin index for each value:
        ``lut[fine_codes(values)]``.

        Values below the domain map to bin 0, values at or above its
        top and NaN to the last bin, so every record lands somewhere —
        in the bin whose fine intervals the histogram counted it in.
        """
        from .core.histogram import fine_codes
        values = np.asarray(values, dtype=np.float64)
        return self.lut[fine_codes(values, self.lo, self.hi - self.lo,
                                   self.n_fine)]


def fine_edges(lo: float, hi: float, n_fine: int,
               cuts: Sequence[int]) -> tuple[float, ...]:
    """Attribute coordinates of the fine-interval boundaries ``cuts``
    (ending at ``n_fine``): ``lo + cut * ((hi - lo) / n_fine)``, with
    the last edge pinned to ``hi`` exactly."""
    width = (hi - lo) / n_fine
    return (*(lo + c * width for c in cuts[:-1]), hi)


@dataclass(frozen=True)
class Grid:
    """A full multi-dimensional grid: one :class:`DimensionGrid` per
    dimension of the data set."""

    dims: tuple[DimensionGrid, ...]

    def __post_init__(self) -> None:
        for i, dg in enumerate(self.dims):
            if dg.dim != i:
                raise GridError(f"grid dimension {i} labelled {dg.dim}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> DimensionGrid:
        return self.dims[i]

    def __iter__(self) -> Iterator[DimensionGrid]:
        return iter(self.dims)

    def nbins(self) -> tuple[int, ...]:
        """Bin count per dimension."""
        return tuple(dg.nbins for dg in self.dims)

    @cached_property
    def edges_fingerprint(self) -> bytes:
        """:func:`~repro.io.bitmap_index.edges_fingerprint` of this grid,
        hashed once: the staged index's key and the populator's check
        read the same digest."""
        from .io.bitmap_index import _fingerprint
        return _fingerprint(self, thresholds=False)

    def locate_records(self, records: np.ndarray) -> np.ndarray:
        """Map an ``(n, d)`` record block to an ``(n, d)`` ``uint8``
        bin-index matrix: :func:`fine_codes_matrix` plus each dimension's
        :attr:`DimensionGrid.lut` (:meth:`DimensionGrid.locate`'s rule)."""
        records = np.asarray(records, dtype=np.float64)
        if records.ndim != 2 or records.shape[1] != self.ndim:
            raise DataError(
                f"records shape {records.shape} does not match grid with "
                f"{self.ndim} dimensions")
        out = np.empty(records.shape, dtype=np.uint8)
        for j, codes in enumerate(fine_codes_matrix(records, self.dims)):
            out[:, j] = self.dims[j].lut[codes]
        return out


def fine_code_groups(grids: Sequence[DimensionGrid]
                     ) -> dict[int, tuple[list[int], np.ndarray]]:
    """Per distinct ``n_fine``, the positions in ``grids`` of its grids
    and their ``(k, 2)`` domains: the unit :func:`fine_codes_matrix`
    codes in one call.  A caller that codes many blocks on the same
    grids holds them and passes them as ``groups``."""
    by_fine: dict[int, list[int]] = {}
    for j, dg in enumerate(grids):
        by_fine.setdefault(dg.n_fine, []).append(j)
    return {n_fine: (cols, np.array([(grids[j].lo, grids[j].hi)
                                     for j in cols]))
            for n_fine, cols in by_fine.items()}


def fine_code_tiles(grids: Sequence[DimensionGrid]
                    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per distinct ``n_fine`` of ``grids``, the read-only
    :func:`~repro.core.histogram.domain_tiles` of its domains — what a
    caller that codes many blocks on the same grids holds and passes to
    :func:`fine_codes_matrix` as ``tiles``."""
    from .core.histogram import domain_tiles
    return {n_fine: domain_tiles(domains)
            for n_fine, (_, domains) in fine_code_groups(grids).items()}


def fine_codes_matrix(records: np.ndarray, grids: Sequence[DimensionGrid],
                      out: np.ndarray | None = None, *,
                      tiles: dict[int, tuple[np.ndarray, np.ndarray]]
                      | None = None,
                      groups: dict[int, tuple[list[int], np.ndarray]]
                      | None = None) -> np.ndarray:
    """``(len(grids), n)`` fine codes (in ``out`` if given): row ``j``
    codes column ``grids[j].dim`` of an ``(n, ndim)`` float block, by
    one :func:`~repro.core.histogram.block_codes` call per distinct
    ``n_fine`` — the one path verification and serving locate by.
    ``tiles`` and ``groups`` are :func:`fine_code_tiles` and
    :func:`fine_code_groups` of the same ``grids``, built here when not
    given."""
    from .core.histogram import block_codes, code_dtype
    if out is None:
        out = np.empty((len(grids), records.shape[0]), dtype=code_dtype(
            max((dg.n_fine for dg in grids), default=1)))
    if groups is None:
        groups = fine_code_groups(grids)
    for n_fine, (cols, domains) in groups.items():
        dims = [grids[j].dim for j in cols]
        block = records if dims == list(range(records.shape[1])) \
            else records[:, dims]
        run_tiles = None if tiles is None else tiles[n_fine]
        if cols == list(range(cols[0], cols[-1] + 1)):
            block_codes(block, domains, n_fine,
                        out=out[cols[0]:cols[-1] + 1], tiles=run_tiles)
        else:
            out[cols] = block_codes(block, domains, n_fine, tiles=run_tiles)
    return out


@dataclass(frozen=True)
class Subspace:
    """An ordered set of dimension indices."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if list(dims) != sorted(set(dims)):
            raise DataError(f"subspace dims must be sorted and unique: {self.dims}")
        if dims and dims[0] < 0:
            raise DataError(f"negative dimension in subspace: {self.dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dimensionality(self) -> int:
        return len(self.dims)

    def issubset(self, other: "Subspace") -> bool:
        """Whether this subspace's dimensions all appear in ``other``."""
        return set(self.dims) <= set(other.dims)

    def __contains__(self, dim: int) -> bool:
        return dim in self.dims

    def __iter__(self) -> Iterator[int]:
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class DNFTerm:
    """One conjunct of a cluster's DNF description: an interval per
    cluster dimension (a hyper-rectangle in the cluster's subspace)."""

    subspace: Subspace
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.intervals) != len(self.subspace.dims):
            raise DataError("one interval per subspace dimension required")
        for lo, hi in self.intervals:
            if not hi > lo:
                raise DataError(f"empty DNF interval [{lo}, {hi})")


@dataclass(frozen=True)
class Cluster:
    """A discovered cluster: connected dense units in one subspace.

    Attributes
    ----------
    subspace:
        The dimensions the cluster lives in.
    units_bins:
        ``(n_units, k)`` int array of bin indices, one row per dense unit,
        columns following ``subspace.dims``.
    dnf:
        Minimal DNF description (union of hyper-rectangles).
    point_count:
        Total records contained in the cluster's dense units (records in
        several units are counted once per unit; units are disjoint).

    A record belongs to the cluster when the grid locates it in one of
    the dense units (:func:`repro.analysis.points_in_cluster`), not by
    a float test against the DNF bounds: on a bin edge the two differ.
    """

    subspace: Subspace
    units_bins: np.ndarray
    dnf: tuple[DNFTerm, ...]
    point_count: int = 0

    def __post_init__(self) -> None:
        bins = np.asarray(self.units_bins, dtype=np.int64)
        if bins.ndim != 2 or bins.shape[1] != self.subspace.dimensionality:
            raise DataError(
                f"units_bins shape {bins.shape} does not match subspace "
                f"{self.subspace.dims}")
        object.__setattr__(self, "units_bins", bins)

    @property
    def dimensionality(self) -> int:
        return self.subspace.dimensionality

    @property
    def n_units(self) -> int:
        return int(self.units_bins.shape[0])

    def describe(self) -> str:
        """Human-readable DNF, e.g. ``(d1:[2,5) & d3:[0,10)) | ...``."""
        parts = []
        for term in self.dnf:
            conj = " & ".join(
                f"d{d}:[{lo:g},{hi:g})"
                for d, (lo, hi) in zip(term.subspace.dims, term.intervals))
            parts.append(f"({conj})")
        return " | ".join(parts)
