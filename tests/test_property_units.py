"""Property-based tests (hypothesis) for unit tables and the CDU join."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import hash_join_plan, join_all, join_block
from repro.core.dedup import repeat_flags_block
from repro.core.partition import prefix_work, triangular_splits
from repro.core.units import UnitTable


@st.composite
def unit_tables(draw, max_units=25, max_level=4, max_dim=8, max_bin=4):
    level = draw(st.integers(1, max_level))
    n = draw(st.integers(0, max_units))
    units = []
    for _ in range(n):
        dims = draw(st.lists(st.integers(0, max_dim - 1), min_size=level,
                             max_size=level, unique=True))
        unit = [(d, draw(st.integers(0, max_bin - 1))) for d in sorted(dims)]
        units.append(unit)
    if not units:
        return UnitTable.empty(level)
    return UnitTable.from_pairs(units)


class TestUnitTableProperties:
    @given(unit_tables())
    @settings(max_examples=60, deadline=None)
    def test_serialisation_roundtrip(self, t):
        assert UnitTable.frombytes(t.tobytes()) == t

    @given(unit_tables())
    @settings(max_examples=60, deadline=None)
    def test_unique_is_idempotent_and_sorted(self, t):
        u = t.unique()
        assert u.unique() == u
        assert u.sort() == u
        assert u.n_units <= t.n_units

    @given(unit_tables())
    @settings(max_examples=60, deadline=None)
    def test_repeat_mask_consistent_with_unique(self, t):
        kept = t.select(~t.repeat_mask())
        assert kept.sort() == t.unique()

    @given(unit_tables(), unit_tables())
    @settings(max_examples=40, deadline=None)
    def test_contains_rows_agrees_with_python_sets(self, a, b):
        if a.level != b.level:
            return
        mine = {u for u in a}
        got = a.contains_rows(b)
        expected = [u in mine for u in b]
        assert got.tolist() == expected

    @given(unit_tables())
    @settings(max_examples=40, deadline=None)
    def test_group_by_subspace_partitions_rows(self, t):
        groups = t.group_by_subspace()
        all_rows = sorted(int(i) for rows in groups.values() for i in rows)
        assert all_rows == list(range(t.n_units))


#: bin values at both byte edges plus a few interior ones, so rows
#: repeat often and the 0x00/0xFF bytes land in every key position
_EDGE_BINS = st.sampled_from([0, 1, 2, 127, 128, 254, 255])


@st.composite
def byte_tables(draw, level, max_units=30):
    """Tables at ``level`` over a few subspaces drawn from the full dim
    byte range (0–255), bins from :data:`_EDGE_BINS`; sometimes empty,
    sometimes one unit repeated ``n`` times."""
    subspaces = draw(st.lists(
        st.lists(st.integers(0, 255), min_size=level, max_size=level,
                 unique=True).map(sorted), min_size=1, max_size=3))
    n = draw(st.integers(0, max_units))
    dims = [draw(st.sampled_from(subspaces)) for _ in range(n)]
    bins = [draw(st.lists(_EDGE_BINS, min_size=level, max_size=level))
            for _ in range(n)]
    if n and draw(st.booleans()):
        dims, bins = [dims[0]] * n, [bins[0]] * n
    return UnitTable(dims=np.array(dims, dtype=np.uint8).reshape(n, level),
                     bins=np.array(bins, dtype=np.uint8).reshape(n, level))


def _row_tuples(t: UnitTable) -> list[tuple]:
    """Each unit as a (dims, bins) pair of tuples — the canonical key."""
    return list(zip(map(tuple, t.dims.tolist()), map(tuple, t.bins.tolist())))


#: levels 1–9 pack into 2k = 2..18 bytes, i.e. every zero-padding case
#: 2k mod 8 ∈ {0, 2, 4, 6} on both the one-word (k ≤ 4) and the
#: multi-word row keys
_LEVELS = pytest.mark.parametrize("level", range(1, 10))


class TestRowAlgebraOracles:
    """``unique``/``sort``/``contains_rows`` against plain-Python and
    plain-NumPy references that know nothing of packed keys."""

    @_LEVELS
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_unique_matches_numpy_row_unique(self, level, data):
        t = data.draw(byte_tables(level))
        u = t.unique()
        if t.n_units == 0:
            assert u.n_units == 0
            return
        expected = np.unique(np.hstack([t.dims, t.bins]), axis=0)
        np.testing.assert_array_equal(np.hstack([u.dims, u.bins]), expected)

    @_LEVELS
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_sort_matches_python_sorted(self, level, data):
        t = data.draw(byte_tables(level))
        keys = _row_tuples(t)
        assert _row_tuples(t.sort()) == sorted(keys)
        # stable: repeated units keep their original relative order
        assert t.canonical_order().tolist() == sorted(
            range(t.n_units), key=keys.__getitem__)

    @_LEVELS
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_contains_rows_matches_set_membership(self, level, data):
        a = data.draw(byte_tables(level))
        fresh = data.draw(byte_tables(level))
        # mix in units of ``a`` so members and non-members both occur
        picks = data.draw(st.lists(st.integers(0, max(a.n_units - 1, 0)),
                                   max_size=8 if a.n_units else 0))
        b = fresh.concat(a.select(np.asarray(picks, dtype=np.int64)))
        mine = set(_row_tuples(a))
        got = a.contains_rows(b)
        assert got.dtype == bool
        assert got.tolist() == [key in mine for key in _row_tuples(b)]

    @_LEVELS
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_group_by_subspace_matches_dict_reference(self, level, data):
        """Same groups, rows ascending, subspaces in first-appearance
        order as a dict built row by row (level 9 spans two dims
        words)."""
        t = data.draw(byte_tables(level))
        expected: dict[tuple, list[int]] = {}
        for i, dims in enumerate(t.dims.tolist()):
            expected.setdefault(tuple(dims), []).append(i)
        got = t.group_by_subspace()
        assert list(got) == list(expected)
        assert {k: v.tolist() for k, v in got.items()} == expected


def algorithm3(t: UnitTable, start: int, stop: int):
    """The paper's Algorithm 3 for pivot rows ``[start, stop)``, written
    as the literal double loop: compare each pivot with itself and every
    later unit (the paper's ``Ndu - i`` comparisons per row), and emit
    the dim-sorted union of each joinable pair in ``(i, j)`` visit
    order."""
    units = [dict(u) for u in t]
    k = t.level
    dims, bins = [], []
    combined = np.zeros(len(units), dtype=bool)
    pairs = 0
    for i in range(start, stop):
        for j in range(i, len(units)):
            pairs += 1
            u, v = units[i], units[j]
            shared = set(u) & set(v)
            if len(shared) != k - 1 or any(u[d] != v[d] for d in shared):
                continue
            merged = sorted({**u, **v}.items())
            dims.append([d for d, _ in merged])
            bins.append([b for _, b in merged])
            combined[i] = combined[j] = True
    shape = (len(dims), k + 1)
    return (np.asarray(dims, dtype=np.uint8).reshape(shape),
            np.asarray(bins, dtype=np.uint8).reshape(shape),
            combined, pairs)


def assert_matches_algorithm3(t: UnitTable, start: int, stop: int,
                              jr) -> None:
    dims, bins, combined, pairs = algorithm3(t, start, stop)
    assert np.array_equal(jr.cdus.dims, dims)
    assert np.array_equal(jr.cdus.bins, bins)
    assert np.array_equal(jr.combined, combined)
    assert jr.pairs_examined == pairs


class TestJoinProperties:
    @given(unit_tables(max_units=40, max_level=6, max_dim=10, max_bin=3),
           st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_join_semantics_match_pairwise_definition(self, t, p):
        """Every rank's block equals the double loop over its pivot rows
        array for array: rows in visit order, the combined mask and the
        paper's comparison count.  Few bins per dimension force heavy
        sub-signature bucket collisions."""
        t = t.unique()
        plan = hash_join_plan(t)
        assert_matches_algorithm3(t, 0, t.n_units, join_all(t))
        offsets = triangular_splits(t.n_units, p)
        for lo, hi in zip(offsets, offsets[1:]):
            assert_matches_algorithm3(t, lo, hi,
                                      join_block(t, lo, hi, plan=plan))

    def test_empty_and_tiny_tables(self):
        """0-, 1- and 2-unit tables: joinable, same dimension, shared
        bin, conflicting bin — for the full range and empty blocks."""
        for t in (UnitTable.empty(1), UnitTable.empty(3),
                  UnitTable.from_pairs([[(0, 1)]]),
                  UnitTable.from_pairs([[(0, 1), (2, 0)]]),
                  UnitTable.from_pairs([[(0, 1)], [(2, 0)]]),
                  UnitTable.from_pairs([[(0, 1)], [(0, 2)]]),
                  UnitTable.from_pairs([[(0, 1), (2, 0)], [(2, 0), (3, 4)]]),
                  UnitTable.from_pairs([[(0, 1), (2, 0)], [(2, 1), (3, 4)]])):
            for lo, hi in ((0, t.n_units), (0, 0), (t.n_units, t.n_units)):
                assert_matches_algorithm3(t, lo, hi, join_block(t, lo, hi))

    @given(unit_tables(max_units=20, max_level=3),
           st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_blockwise_join_equals_full(self, t, p):
        t = t.unique()
        full = join_all(t)
        offsets = triangular_splits(t.n_units, p)
        combined = np.zeros(t.n_units, dtype=bool)
        parts = []
        for i in range(p):
            jr = join_block(t, offsets[i], offsets[i + 1])
            parts.append(jr.cdus)
            combined |= jr.combined
        merged = UnitTable.concat_all(parts) if parts else full.cdus
        assert merged.unique() == full.cdus.unique()
        assert (combined == full.combined).all()

    @given(unit_tables(max_units=20, max_level=3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_blockwise_dedup_equals_full(self, t, p):
        offsets = triangular_splits(t.n_units, p)
        merged = np.zeros(t.n_units, dtype=bool)
        for i in range(p):
            merged |= repeat_flags_block(t, offsets[i], offsets[i + 1])
        assert (merged == t.repeat_mask()).all()


class TestPartitionProperties:
    @given(st.integers(0, 3000), st.integers(1, 32))
    @settings(max_examples=80, deadline=None)
    def test_splits_cover_monotonically(self, n, p):
        offsets = triangular_splits(n, p)
        assert offsets[0] == 0 and offsets[-1] == n
        assert all(a <= b for a, b in zip(offsets, offsets[1:]))

    @given(st.integers(32, 3000), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_work_within_row_granularity(self, n, p):
        offsets = triangular_splits(n, p)
        ideal = n * (n + 1) / (2 * p)
        for i in range(p):
            work = prefix_work(n, offsets[i + 1]) - prefix_work(n, offsets[i])
            # off by at most the largest row in the rank's range + rounding
            assert abs(work - ideal) <= max(n - offsets[i], 1) + 1
