"""Adaptive grid computation — Algorithm 1 of the paper.

For each dimension:

1. divide the domain into ``fine_bins`` fine intervals and histogram the
   data (done by :mod:`repro.core.histogram`);
2. collapse every ``window_size`` adjacent fine intervals into a window
   whose value is the *maximum* fine count inside it;
3. sweep left to right, merging adjacent windows whose values are within
   a threshold percentage β of each other — fitting "the best rectangular
   wave which matches the data distribution";
4. if everything merged into a single bin the dimension is
   equi-distributed: re-split it into a small fixed number of equal
   partitions and boost its threshold, since it is unlikely to carry a
   cluster;
5. set the threshold of each bin of width ``a`` to ``α·N·a/|D_i|`` — the
   count expected under uniformity times the significance factor α.

Every bin is a run of fine intervals (the re-split's cut ``k`` is fine
boundary ``k * fine_bins // uniform_split``), so a record's bin is a
lookup on its fine-interval code (:class:`~repro.types.DimensionGrid`).
"""

from __future__ import annotations

import numpy as np

from ..errors import GridError
from ..params import MafiaParams
from ..types import MAX_BINS, DimensionGrid, Grid, fine_edges


def window_maxima(fine_counts: np.ndarray, window_size: int) -> np.ndarray:
    """Collapse fine counts into per-window maxima (step 2)."""
    fine_counts = np.asarray(fine_counts)
    if fine_counts.ndim != 1 or fine_counts.size == 0:
        raise GridError("fine_counts must be a non-empty 1-D array")
    if window_size <= 0:
        raise GridError(f"window_size must be positive, got {window_size}")
    n = fine_counts.size
    n_windows = -(-n // window_size)
    padded = np.full(n_windows * window_size, -1, dtype=fine_counts.dtype)
    padded[:n] = fine_counts
    return padded.reshape(n_windows, window_size).max(axis=1)


def merge_windows(values: np.ndarray, beta: float) -> list[tuple[int, int]]:
    """Left-to-right merge of adjacent windows within β of each other
    (step 3).  Returns ``[start, stop)`` window-index ranges of the
    resulting variable-sized bins.

    Two adjacent windows merge when their values differ by less than
    ``beta`` relative to the larger of the two (with empty windows
    merging freely into empty runs); the running value of a merged bin is
    the maximum of its members, matching the rectangular-wave fit.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise GridError("cannot merge zero windows")
    # Python floats compare and take maxima exactly as the doubles do,
    # without a NumPy scalar per step
    values = values.tolist()
    ranges: list[tuple[int, int]] = []
    start = 0
    current = values[0]
    for i, v in enumerate(values[1:], 1):
        scale = max(current, v)
        if scale <= 0 or abs(current - v) < beta * scale:
            current = max(current, v)
            continue
        ranges.append((start, i))
        start, current = i, v
    ranges.append((start, len(values)))
    return ranges


def build_dimension_grid(dim: int, fine_counts: np.ndarray,
                         domain: tuple[float, float], n_records: int,
                         params: MafiaParams) -> DimensionGrid:
    """Run Algorithm 1 for one dimension."""
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise GridError(f"dimension {dim}: empty domain [{lo}, {hi})")
    fine_counts = np.asarray(fine_counts, dtype=np.int64)
    n_fine = fine_counts.size
    extent = hi - lo

    windows = window_maxima(fine_counts, params.window_size)
    if windows.size > MAX_BINS:
        raise GridError(
            f"dimension {dim}: {windows.size} windows exceed the byte "
            f"limit {MAX_BINS}; increase window_size or reduce fine_bins")
    ranges = merge_windows(windows, params.beta)

    uniform = len(ranges) == 1
    if uniform:
        # equi-distributed dimension: near-equal partitions on fine
        # boundaries (widths differ by at most one fine interval when
        # uniform_split does not divide n_fine), boosted α
        split = params.uniform_split
        cuts = [k * n_fine // split for k in range(split + 1)]
        alpha = params.alpha * params.uniform_alpha_boost
    else:
        # window boundaries, as fine-interval indices
        cuts = [0] + [min(stop * params.window_size, n_fine)
                      for _, stop in ranges]
        alpha = params.alpha

    widths = np.diff(fine_edges(lo, hi, n_fine, cuts))
    thresholds = alpha * n_records * widths / extent
    return DimensionGrid(dim=dim, lo=lo, hi=hi, n_fine=n_fine,
                         cuts=tuple(cuts),
                         thresholds=tuple(float(t) for t in thresholds),
                         uniform=uniform)


def build_grid(fine_counts: np.ndarray, domains: np.ndarray, n_records: int,
               params: MafiaParams) -> Grid:
    """Run Algorithm 1 for every dimension of the data set."""
    fine_counts = np.asarray(fine_counts)
    domains = np.asarray(domains, dtype=np.float64)
    if fine_counts.ndim != 2:
        raise GridError(f"fine_counts must be (d, fine_bins), got "
                        f"{fine_counts.shape}")
    d = fine_counts.shape[0]
    if domains.shape != (d, 2):
        raise GridError(f"domains shape {domains.shape} != ({d}, 2)")
    return Grid(dims=tuple(
        build_dimension_grid(j, fine_counts[j], (domains[j, 0], domains[j, 1]),
                             n_records, params)
        for j in range(d)))

