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

The pairs are found by a **sub-signature hash join**
(:func:`hash_join_plan`).  Each level-``m`` unit emits its ``m``
"drop-one-token" sub-signatures (packed uint64 key words,
:func:`repro.core.units.pack_tokens`); one vectorised sort groups
entries by sub-signature, and two units join iff they meet in a bucket
with differing leftover dimensions.  A valid pair shares exactly
``m−1`` (dim, bin) tokens, so it lands in exactly one bucket.  Pairs
are sorted by (pivot, partner) — the order Algorithm 3's double loop
visits them — so the output rows match the paper's pairwise sweep for
any row fences, while ``pairs_examined`` still reports the paper's
pairwise count (the simulated-time cost model charges the measured SP2
system's work, not ours; see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .partition import prefix_work
from .units import UnitTable, group_starts, pack_tokens


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
        ``(left, right)`` — the order Algorithm 3's double loop visits.
    right_token:
        The partner's leftover ``dim << 8 | bin`` token — the one entry
        of ``right`` outside the shared sub-signature, i.e. the column
        the joined CDU appends to the pivot's row.
    """

    left: np.ndarray
    right: np.ndarray
    right_token: np.ndarray
    n_units: int
    level: int

    @property
    def n_pairs(self) -> int:
        return int(self.left.shape[0])


def _empty_plan(n: int, m: int) -> HashJoinPlan:
    return HashJoinPlan(left=np.zeros(0, dtype=np.int64),
                        right=np.zeros(0, dtype=np.int64),
                        right_token=np.zeros(0, dtype=np.uint16),
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
                        n_units=n, level=m)


def assemble_unions(dense: UnitTable, left: np.ndarray,
                    right_token: np.ndarray) -> UnitTable:
    """Assemble the joined CDU rows for already-mined pairs: append each
    pair's leftover ``dim << 8 | bin`` token to its pivot row and
    dim-sort the union.

    The appended column lands at its dim-sorted position; a stable
    argsort keeps the pivot's own columns in order.
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


def join_block(dense: UnitTable, start: int = 0, stop: int | None = None,
               plan: HashJoinPlan | None = None) -> JoinResult:
    """Join rows ``[start, stop)`` of ``dense`` against all later rows.

    One ``plan`` (built here when not given) serves every block of a
    parallel join: a block is a ``searchsorted`` slice of its pairs.
    ``pairs_examined`` reports the paper's pairwise comparison count for
    these rows: the simulated-time backend charges the cost model of the
    measured SP2 system, not our implementation's.
    """
    n = dense.n_units
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise DataError(f"join range [{start}, {stop}) out of bounds for {n}")
    m = dense.level
    combined = np.zeros(n, dtype=bool)
    pairs = prefix_work(n, stop) - prefix_work(n, start)
    if stop == start:
        return JoinResult(cdus=UnitTable.empty(m + 1), combined=combined,
                          pairs_examined=pairs)
    if plan is None:
        plan = hash_join_plan(dense)
    lo, hi = np.searchsorted(plan.left, [start, stop])
    left = plan.left[lo:hi]
    if left.size == 0:
        return JoinResult(cdus=UnitTable.empty(m + 1), combined=combined,
                          pairs_examined=pairs)
    combined[left] = True
    combined[plan.right[lo:hi]] = True
    cdus = assemble_unions(dense, left, plan.right_token[lo:hi])
    return JoinResult(cdus=cdus, combined=combined, pairs_examined=pairs)


def join_all(dense: UnitTable,
             plan: HashJoinPlan | None = None) -> JoinResult:
    """Full join over the whole table (the serial / below-τ path)."""
    return join_block(dense, 0, dense.n_units, plan=plan)
