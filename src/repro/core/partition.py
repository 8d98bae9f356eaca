"""Optimal task partitioning of triangular unit-pair work — equation (1).

Building CDUs compares each dense unit with every unit after it, so row
``i`` of the unit array carries ``Ndu - i`` comparisons (the paper counts
the self-comparison, giving total ``Ndu(Ndu+1)/2``).  Splitting rows
evenly would overload the low ranks; the paper instead picks split
points ``n_1 < ... < n_{p-1}`` so each rank gets ``Ndu(Ndu+1)/(2p)``
comparisons, "solving the p-1 equations iteratively ... by solving the
above quadratic equation" (§4.3).

This module solves the same quadratics in closed form.  The identical
schedule balances repeat elimination (with Ncdu substituted for Ndu).
"""

from __future__ import annotations

import math

from ..errors import ParameterError


def row_work(n_units: int, row: int) -> int:
    """Comparisons charged to ``row``: itself plus everything after it."""
    if not 0 <= row < n_units:
        raise ParameterError(f"row {row} out of range for {n_units} units")
    return n_units - row


def prefix_work(n_units: int, m: int) -> int:
    """Total comparisons of rows ``[0, m)``: ``m·n - m(m-1)/2``."""
    if not 0 <= m <= n_units:
        raise ParameterError(f"prefix {m} out of range for {n_units} units")
    return m * n_units - m * (m - 1) // 2


def triangular_splits(n_units: int, n_ranks: int) -> list[int]:
    """Fence-post offsets ``[0, n_1, ..., n_{p-1}, Ndu]`` balancing the
    triangular workload across ``n_ranks`` processors.

    Rank ``i`` processes rows ``[offsets[i], offsets[i+1])``.  Each split
    point solves the quadratic ``m² - (2n+1)m + 2·target = 0`` where
    ``target`` is the cumulative work the first ``i+1`` ranks should own.
    """
    if n_units < 0:
        raise ParameterError(f"n_units must be >= 0, got {n_units}")
    if n_ranks <= 0:
        raise ParameterError(f"n_ranks must be positive, got {n_ranks}")
    n = n_units
    total = n * (n + 1) / 2.0
    offsets = [0]
    for i in range(1, n_ranks):
        target = total * i / n_ranks
        disc = (2 * n + 1) ** 2 - 8.0 * target
        m = ((2 * n + 1) - math.sqrt(max(disc, 0.0))) / 2.0
        cut = int(round(m))
        cut = max(offsets[-1], min(cut, n))
        offsets.append(cut)
    offsets.append(n)
    return offsets


def split_range(n_units: int, n_ranks: int, rank: int) -> tuple[int, int]:
    """The ``[start, stop)`` row range of ``rank`` under the triangular
    partition."""
    if not 0 <= rank < n_ranks:
        raise ParameterError(f"rank {rank} out of range for {n_ranks} ranks")
    offsets = triangular_splits(n_units, n_ranks)
    return offsets[rank], offsets[rank + 1]


def even_splits(n_units: int, n_ranks: int) -> list[int]:
    """Plain near-equal row split (used where per-row work is constant,
    e.g. Identify-dense-units divides Ncdu by p)."""
    if n_units < 0:
        raise ParameterError(f"n_units must be >= 0, got {n_units}")
    if n_ranks <= 0:
        raise ParameterError(f"n_ranks must be positive, got {n_ranks}")
    base, extra = divmod(n_units, n_ranks)
    offsets = [0]
    for r in range(n_ranks):
        offsets.append(offsets[-1] + base + (1 if r < extra else 0))
    return offsets
