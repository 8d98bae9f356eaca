"""Algorithm parameter bundles for pMAFIA and the CLIQUE baseline.

The paper stresses that pMAFIA is *unsupervised*: the only knobs are the
density deviation factor ``alpha`` (>1.5 is "significant" per the paper)
and the window-merge threshold percentage ``beta`` (any value in the
25-75 % plateau works, §4.4).  Everything else here is an implementation
constant with a paper-faithful default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .errors import ParameterError


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")


@dataclass(frozen=True)
class MafiaParams:
    """Parameters of the (p)MAFIA algorithm.

    Attributes
    ----------
    alpha:
        Density deviation factor: a bin of width ``a`` in a dimension of
        extent ``D`` is dense when its count exceeds ``alpha * N * a / D``.
        The paper uses values >= 1.5 ("significant deviation").
    beta:
        Adjacent-window merge threshold, as a fraction in (0, 1).  Two
        adjacent windows merge when their histogram values differ by less
        than ``beta`` relative to the larger of the two.  Paper: 25-75 %.
    fine_bins:
        Number of fine intervals the domain of every dimension is divided
        into before windowing (Algorithm 1's "windows of some small size").
    window_size:
        Number of adjacent fine intervals collapsed into one window by
        taking their maximum histogram value.
    uniform_split:
        Number of equal partitions an equi-distributed dimension (whose
        bins all merged into one) is re-split into.  Cuts snap to fine
        intervals (cut ``k`` is ``k * fine_bins // uniform_split``), so
        it cannot exceed ``fine_bins``.
    uniform_alpha_boost:
        Multiplier applied on top of ``alpha`` for the re-split bins of an
        equi-distributed dimension ("set a high threshold as this
        dimension is less likely to be part of a cluster").
    tau:
        Task-parallel threshold τ: unit-table work is partitioned across
        ranks only when the number of units exceeds ``tau``; below it all
        ranks redundantly process everything (saves latency on tiny jobs).
    chunk_records:
        ``B`` — number of records read from disk per chunk (out-of-core
        buffer size).
    max_dimensionality:
        Safety cap on the highest subspace level explored (the paper's
        loop is unbounded; real data terminates on its own).
    min_bin_points:
        Bins whose raw 1-D histogram count is below this many points are
        never promoted to candidate dense units (cheap noise filter; 0
        disables it).
    report:
        Which dense units seed reported clusters.  ``"merged"``
        (default) reports maximal dense units except boundary slivers
        within Chebyshev distance 1 of a higher cluster's projection
        (every bin within ±1, diagonals included; exact at every lattice
        size, see :func:`repro.core.dnf.merged_mask`) — matching the
        paper's printed outputs (subset clusters eliminated, no edge
        artefacts) while keeping clusters that stop extending early.
        ``"paper"`` registers a unit only when it combined with no other
        unit during CDU generation (plus the top level) — the literal
        Algorithm 3 rule.  ``"maximal"`` reports every dense unit that
        is not a projection of a dense unit one level up (strictly
        lossless, may surface marginal boundary leftovers).
    bitmap_budget:
        Byte budget (per rank) for the bitmap index plus the fine codes
        the histogram pass keeps to stage it.  Right after the
        adaptive grid is fixed each rank packs one membership bitmap
        per (dim, bin) pair of its local records; every level pass is
        then AND + popcount over those bitmaps, in a fixed set of
        buffers (about 1 MiB plus a few bitmap rows) that the pass
        frees when it returns.  The index stays
        resident in RAM when it fits this budget and spills to an
        mmap-tiled on-disk format (CRC-checked,
        grid-fingerprint-invalidated) otherwise.  Clusters, CDU counts
        and simulated runtimes are bit-identical either way.  Default
        256 MiB.
    trace:
        When True, every rank records per-span timing (wall and
        virtual clocks) of phases, collectives, level passes and
        checkpoint activity into :mod:`repro.obs` — exported on
        ``ClusteringResult.obs`` / ``PMafiaRun.obs`` and writable as
        Chrome ``trace_event`` JSON.  Results and simulated runtimes
        are bit-identical with tracing on or off.
    metrics:
        When True, every rank keeps the :mod:`repro.obs` counter/gauge/
        histogram registry (records read, bytes per collective, pairs
        examined, per-level lattice sizes, retries, checkpoint bytes).
        Same bit-identity guarantee as ``trace``.
    """

    alpha: float = 1.5
    beta: float = 0.35
    fine_bins: int = 1000
    window_size: int = 5
    uniform_split: int = 5
    uniform_alpha_boost: float = 1.0
    tau: int = 64
    chunk_records: int = 50_000
    max_dimensionality: int = 64
    min_bin_points: int = 0
    report: str = "merged"
    bitmap_budget: int = 1 << 28
    trace: bool = False
    metrics: bool = False

    def __post_init__(self) -> None:
        if self.report not in ("merged", "paper", "maximal"):
            raise ParameterError(
                f"report must be 'merged', 'paper' or 'maximal', "
                f"got {self.report!r}")
        if not isinstance(self.bitmap_budget, int) or self.bitmap_budget <= 0:
            raise ParameterError(f"bitmap_budget must be a positive int, "
                                 f"got {self.bitmap_budget!r}")
        for name in ("trace", "metrics"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ParameterError(
                    f"{name} must be a bool, got {value!r}")
        _check_positive("alpha", self.alpha)
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"beta must be in (0, 1), got {self.beta!r}")
        for name in ("fine_bins", "window_size", "uniform_split",
                     "chunk_records", "max_dimensionality"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ParameterError(f"{name} must be a positive int, got {value!r}")
        if self.window_size > self.fine_bins:
            raise ParameterError(
                f"window_size ({self.window_size}) cannot exceed "
                f"fine_bins ({self.fine_bins})")
        if self.uniform_split > self.fine_bins:
            raise ParameterError(
                f"uniform_split ({self.uniform_split}) cannot exceed "
                f"fine_bins ({self.fine_bins})")
        if self.tau < 0:
            raise ParameterError(f"tau must be >= 0, got {self.tau!r}")
        if self.min_bin_points < 0:
            raise ParameterError(
                f"min_bin_points must be >= 0, got {self.min_bin_points!r}")
        _check_positive("uniform_alpha_boost", self.uniform_alpha_boost)

    def with_(self, **changes: Any) -> "MafiaParams":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class CliqueParams:
    """Parameters of the CLIQUE baseline (Agrawal et al., SIGMOD'98).

    CLIQUE is *supervised* by two user inputs the paper criticises:
    ``bins`` (ξ, equal intervals per dimension) and ``threshold``
    (global density threshold τ as a fraction of N).

    Attributes
    ----------
    bins:
        Number of equal-width intervals per dimension.  May also be a
        per-dimension sequence (the "variable bins" run of Table 3).
    threshold:
        Global density threshold as a fraction of the total record count:
        a unit is dense when ``count > threshold * N``.
    modified_join:
        When True, use MAFIA's any-(k−2)-shared-dimensions join instead of
        CLIQUE's first-(k−2) prefix join (the §5.5 "modified CLIQUE").
    apriori_prune:
        Drop candidates having a non-dense (k−1)-subunit (CLIQUE's
        candidate pruning).  Only meaningful for the prefix join.
    mdl_prune:
        Apply CLIQUE's MDL-based subspace pruning after each level (the
        paper disables this in its comparisons to preserve quality).
    chunk_records / tau / max_dimensionality:
        As in :class:`MafiaParams`.
    """

    bins: int | tuple[int, ...] = 10
    threshold: float = 0.01
    modified_join: bool = False
    apriori_prune: bool = True
    mdl_prune: bool = False
    chunk_records: int = 50_000
    tau: int = 64
    max_dimensionality: int = 64

    # fixed, not fields: CLIQUE reports every maximal dense unit and
    # has no per-bin point floor (read by the shared level walk)
    report = "maximal"
    min_bin_points = 0

    def __post_init__(self) -> None:
        if isinstance(self.bins, int):
            if self.bins <= 0:
                raise ParameterError(f"bins must be positive, got {self.bins!r}")
        else:
            bins = tuple(self.bins)
            if not bins or any((not isinstance(b, int)) or b <= 0 for b in bins):
                raise ParameterError(f"bins must be positive ints, got {self.bins!r}")
            object.__setattr__(self, "bins", bins)
        if not 0.0 < self.threshold < 1.0:
            raise ParameterError(
                f"threshold must be a fraction in (0, 1), got {self.threshold!r}")
        if self.chunk_records <= 0:
            raise ParameterError(
                f"chunk_records must be positive, got {self.chunk_records!r}")
        if self.tau < 0:
            raise ParameterError(f"tau must be >= 0, got {self.tau!r}")
        if self.max_dimensionality <= 0:
            raise ParameterError(
                f"max_dimensionality must be positive, got {self.max_dimensionality!r}")

    def bins_for(self, d: int) -> tuple[int, ...]:
        """Per-dimension bin counts for a ``d``-dimensional data set."""
        if isinstance(self.bins, int):
            return (self.bins,) * d
        if len(self.bins) != d:
            raise ParameterError(
                f"bins has {len(self.bins)} entries but data has {d} dimensions")
        return self.bins

    def with_(self, **changes: Any) -> "CliqueParams":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)
