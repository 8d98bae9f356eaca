"""CLIQUE's uniform grid (Agrawal et al., SIGMOD'98; paper §3).

Each dimension is partitioned into a user-specified number ξ of equal
intervals, and a unit is dense when the fraction of total records inside
it exceeds a global density threshold τ.  Reusing
:class:`~repro.types.Grid` with every bin's threshold set to ``τ·N``
lets CLIQUE share pMAFIA's population / identification machinery — the
max-of-bin-thresholds rule degenerates to the single global threshold.
"""

from __future__ import annotations

import numpy as np

from ..errors import GridError
from ..types import DimensionGrid, Grid


def uniform_grid(domains: np.ndarray, bins_per_dim: tuple[int, ...],
                 n_records: int, threshold: float) -> Grid:
    """Build the uniform CLIQUE grid.

    Parameters
    ----------
    domains:
        ``(d, 2)`` per-dimension (low, high) extents.
    bins_per_dim:
        ξ for each dimension (CLIQUE proper uses one global ξ; the
        paper's Table 3 "variable bins" run varies it per dimension).
    n_records:
        Total record count N.
    threshold:
        Global density threshold τ as a fraction of N.
    """
    domains = np.asarray(domains, dtype=np.float64)
    if domains.ndim != 2 or domains.shape[1] != 2:
        raise GridError(f"domains must be (d, 2), got {domains.shape}")
    if len(bins_per_dim) != domains.shape[0]:
        raise GridError(
            f"{len(bins_per_dim)} bin counts for {domains.shape[0]} dimensions")
    if not 0.0 < threshold < 1.0:
        raise GridError(f"threshold must be in (0, 1), got {threshold}")
    count_threshold = threshold * n_records
    dims = []
    for j, xi in enumerate(bins_per_dim):
        lo, hi = domains[j]
        if not hi > lo:
            raise GridError(f"dimension {j}: empty domain [{lo}, {hi})")
        # ξ fine intervals, one bin each: the identity lookup table
        dims.append(DimensionGrid(
            dim=j, lo=float(lo), hi=float(hi), n_fine=xi,
            cuts=tuple(range(xi + 1)),
            thresholds=(float(count_threshold),) * xi,
            uniform=True,
        ))
    return Grid(dims=tuple(dims))
