"""Candidate dense unit generation — the MAFIA join (§3, §4.3).

CDUs in dimensionality ``k`` are formed "by merging any two dense cells,
represented by an ordered set of (k−1) dimensions, such that they share
any of the (k−2) dimensions" — unlike CLIQUE, which only joins units
sharing their *first* k−2 dimensions and therefore misses candidates
(the paper's {a1,b7,c8} + {b7,c8,d9} example).

Two level-(k−1) units join when

* their dimension sets overlap in exactly k−2 dimensions (union size k),
* and their bin indices agree on every shared dimension.

The joined CDU takes the union of the dimension sets (sorted) with the
corresponding bins.  :func:`join_block` processes rows ``[start, stop)``
against all later rows — the triangular workload that equation (1)
balances across ranks (:mod:`repro.core.partition`).

Two implementations produce bit-identical output:

* :func:`join_block` — the paper's pairwise test, vectorised per pivot
  row but still O(Ndu²) comparisons (Algorithm 3 verbatim).
* :func:`hash_join_block` — a **sub-signature hash join**.  Each
  level-``m`` unit emits its ``m`` "drop-one-token" sub-signatures
  (packed uint64 key words, :func:`repro.core.units.pack_tokens`); one
  vectorised sort groups entries by sub-signature, and two units join
  iff they meet in a bucket with differing leftover dimensions.  A valid
  pair shares exactly ``m−1`` (dim, bin) tokens, so it lands in exactly
  one bucket — near-linear grouping plus per-bucket pairing replaces the
  quadratic sweep.  Pairs are re-sorted by (pivot, partner) and
  assembled with the same union/argsort kernel, so the output rows —
  order included — match the pairwise path exactly for any row fences,
  while ``pairs_examined`` still reports the paper's pairwise count
  (the simulated-time cost model must not drift; see
  ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .units import MAX_DIMS, UnitTable, group_starts, pack_tokens


@dataclass(frozen=True)
class JoinResult:
    """Output of one rank's share of the CDU join.

    Attributes
    ----------
    cdus:
        The CDUs built from this block's pairs (may contain units that
        duplicate each other or other blocks' output — repeat elimination
        is a separate phase, as in the paper).
    combined:
        Length-``Ndu`` mask, True for every dense unit (in the *whole*
        table) that participated in at least one successful join from
        this block.  Ranks OR these together; units never combined are
        registered as potential clusters of dimensionality k−1.
    pairs_examined:
        The comparisons this block is charged under the paper's cost
        model: ``sum(Ndu - i)`` over its rows.
    """

    cdus: UnitTable
    combined: np.ndarray
    pairs_examined: int


def join_block(dense: UnitTable, start: int = 0, stop: int | None = None
               ) -> JoinResult:
    """Join rows ``[start, stop)`` of ``dense`` against all later rows."""
    n = dense.n_units
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise DataError(f"join range [{start}, {stop}) out of bounds for {n}")
    m = dense.level
    combined = np.zeros(n, dtype=bool)
    pairs = sum(n - i for i in range(start, stop))

    if n == 0 or stop == start:
        return JoinResult(cdus=UnitTable.empty(m + 1), combined=combined,
                          pairs_examined=pairs)

    dims = dense.dims.astype(np.int64)
    bins = dense.bins.astype(np.int64)
    out_dims: list[np.ndarray] = []
    out_bins: list[np.ndarray] = []

    # bin-by-dimension lookup rebuilt per pivot row
    bin_of = np.full(MAX_DIMS, -1, dtype=np.int64)
    for i in range(start, stop):
        rest_dims = dims[i + 1:]
        if rest_dims.size == 0:
            continue
        rest_bins = bins[i + 1:]
        # which dims of each later row appear in row i
        in_i = np.isin(rest_dims, dims[i])
        shared = in_i.sum(axis=1)
        bin_of[dims[i]] = bins[i]
        agree = bin_of[rest_dims] == rest_bins
        bin_of[dims[i]] = -1
        conflict = (in_i & ~agree).any(axis=1)
        valid = (shared == m - 1) & ~conflict
        if not valid.any():
            continue
        combined[i] = True
        combined[i + 1:][valid] = True

        new_mask = ~in_i[valid]                       # exactly one per row
        partners_dims = rest_dims[valid]
        partners_bins = rest_bins[valid]
        extra_dim = partners_dims[new_mask]
        extra_bin = partners_bins[new_mask]
        v = extra_dim.shape[0]
        union_dims = np.concatenate(
            [np.tile(dims[i], (v, 1)), extra_dim[:, None]], axis=1)
        union_bins = np.concatenate(
            [np.tile(bins[i], (v, 1)), extra_bin[:, None]], axis=1)
        order = np.argsort(union_dims, axis=1, kind="stable")
        out_dims.append(np.take_along_axis(union_dims, order, axis=1))
        out_bins.append(np.take_along_axis(union_bins, order, axis=1))

    if out_dims:
        cdus = UnitTable(dims=np.concatenate(out_dims).astype(np.uint8),
                         bins=np.concatenate(out_bins).astype(np.uint8))
    else:
        cdus = UnitTable.empty(m + 1)
    return JoinResult(cdus=cdus, combined=combined, pairs_examined=pairs)


def join_all(dense: UnitTable) -> JoinResult:
    """Full join over the whole table (the serial / below-τ path)."""
    return join_block(dense, 0, dense.n_units)


# -- sub-signature hash join --------------------------------------------------


@dataclass(frozen=True)
class HashJoinPlan:
    """All valid join pairs of a dense-unit table, sorted by
    ``(pivot, partner)``.

    Building the plan is the grouping work; slicing it per rank is a
    pair of ``searchsorted`` calls, so one plan serves every block of a
    parallel join.

    Attributes
    ----------
    left, right:
        Unit indices of each valid pair, ``left < right``, lexsorted by
        ``(left, right)`` — the exact order the pairwise sweep visits.
    right_token:
        The partner's leftover ``dim << 8 | bin`` token — the one entry
        of ``right`` outside the shared sub-signature, i.e. the column
        the joined CDU appends to the pivot's row.
    row_pair_counts:
        ``bincount(left, minlength=n)`` — realised join pairs per pivot
        row, the weights :func:`repro.core.partition.weighted_splits`
        balances instead of the triangular ``Ndu − i`` estimate.
    """

    left: np.ndarray
    right: np.ndarray
    right_token: np.ndarray
    row_pair_counts: np.ndarray
    n_units: int
    level: int

    @property
    def n_pairs(self) -> int:
        return int(self.left.shape[0])


def _empty_plan(n: int, m: int) -> HashJoinPlan:
    return HashJoinPlan(left=np.zeros(0, dtype=np.int64),
                        right=np.zeros(0, dtype=np.int64),
                        right_token=np.zeros(0, dtype=np.uint16),
                        row_pair_counts=np.zeros(n, dtype=np.int64),
                        n_units=n, level=m)


def hash_join_plan(dense: UnitTable) -> HashJoinPlan:
    """Group units by drop-one-token sub-signature and enumerate every
    valid join pair."""
    n, m = dense.n_units, dense.level
    if n < 2:
        return _empty_plan(n, m)
    tokens = dense.tokens()

    # one entry per (unit, dropped column): the m−1 surviving tokens are
    # the sub-signature, the dropped token is the leftover
    if m == 1:
        sub_words = np.zeros((n, 1), dtype=np.uint64)
        owner = np.arange(n, dtype=np.int64)
        leftover = tokens[:, 0]
    else:
        sub_tokens = np.concatenate(
            [np.delete(tokens, c, axis=1) for c in range(m)])
        sub_words = pack_tokens(sub_tokens)
        owner = np.tile(np.arange(n, dtype=np.int64), m)
        leftover = tokens.T.reshape(-1)

    # bucket-major order, ascending unit index within each bucket
    keys = (owner,) + tuple(sub_words[:, c]
                            for c in range(sub_words.shape[1] - 1, -1, -1))
    order = np.lexsort(keys)
    owner_s = owner[order]
    leftover_s = leftover[order]
    starts = group_starts(sub_words[order])
    del sub_words, owner, leftover, order

    # segmented all-pairs within each bucket: entry at position p pairs
    # with the `after[p]` entries between it and its bucket's end
    n_entries = owner_s.shape[0]
    run_start = np.flatnonzero(starts)
    run_id = np.cumsum(starts) - 1
    run_end = np.append(run_start[1:], n_entries)[run_id]
    pos = np.arange(n_entries)
    after = run_end - pos - 1
    total = int(after.sum())
    if total == 0:
        return _empty_plan(n, m)
    left_pos = np.repeat(pos, after)
    excl = np.cumsum(after) - after
    right_pos = left_pos + 1 + (np.arange(total) - np.repeat(excl, after))

    left = owner_s[left_pos]
    right = owner_s[right_pos]
    right_token = leftover_s[right_pos]
    # a bucket pair is a join iff the leftover *dimensions* differ (equal
    # dims would mean a bin conflict, or an identical unit)
    valid = (leftover_s[left_pos] >> np.uint16(8)) \
        != (right_token >> np.uint16(8))
    left, right, right_token = left[valid], right[valid], right_token[valid]

    pair_order = np.lexsort((right, left))
    return HashJoinPlan(left=left[pair_order], right=right[pair_order],
                        right_token=right_token[pair_order],
                        row_pair_counts=np.bincount(left, minlength=n),
                        n_units=n, level=m)


def assemble_unions(dense: UnitTable, left: np.ndarray,
                    right_token: np.ndarray) -> UnitTable:
    """Assemble the joined CDU rows for already-mined pairs: append each
    pair's leftover ``dim << 8 | bin`` token to its pivot row and
    dim-sort the union.

    The hash join emits its CDU rows through this kernel; the pairwise
    sweep builds the same union/argsort inline, which is what makes
    their outputs comparable array-for-array.
    """
    extra_dim = (right_token >> np.uint16(8)).astype(np.uint8)
    extra_bin = (right_token & np.uint16(0xFF)).astype(np.uint8)
    union_dims = np.concatenate(
        [dense.dims[left], extra_dim[:, None]], axis=1)
    union_bins = np.concatenate(
        [dense.bins[left], extra_bin[:, None]], axis=1)
    order = np.argsort(union_dims, axis=1, kind="stable")
    return UnitTable(dims=np.take_along_axis(union_dims, order, axis=1),
                     bins=np.take_along_axis(union_bins, order, axis=1))


def hash_join_block(dense: UnitTable, start: int = 0, stop: int | None = None,
                    plan: HashJoinPlan | None = None) -> JoinResult:
    """Hash-join rows ``[start, stop)`` of ``dense`` against all later
    rows — drop-in for :func:`join_block`, bit-identical output.

    ``pairs_examined`` still reports the paper's pairwise comparison
    count for these rows: the simulated-time backend charges the cost
    model of the measured SP2 system, not our implementation's.
    """
    n = dense.n_units
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise DataError(f"join range [{start}, {stop}) out of bounds for {n}")
    m = dense.level
    combined = np.zeros(n, dtype=bool)
    pairs = sum(n - i for i in range(start, stop))
    if n == 0 or stop == start:
        return JoinResult(cdus=UnitTable.empty(m + 1), combined=combined,
                          pairs_examined=pairs)
    if plan is None:
        plan = hash_join_plan(dense)

    lo = int(np.searchsorted(plan.left, start, side="left"))
    hi = int(np.searchsorted(plan.left, stop, side="left"))
    left = plan.left[lo:hi]
    right = plan.right[lo:hi]
    token = plan.right_token[lo:hi]
    if left.size == 0:
        return JoinResult(cdus=UnitTable.empty(m + 1), combined=combined,
                          pairs_examined=pairs)
    combined[left] = True
    combined[right] = True

    cdus = assemble_unions(dense, left, token)
    return JoinResult(cdus=cdus, combined=combined, pairs_examined=pairs)


def hash_join_all(dense: UnitTable,
                  plan: HashJoinPlan | None = None) -> JoinResult:
    """Full hash join over the whole table."""
    return hash_join_block(dense, 0, dense.n_units, plan=plan)
