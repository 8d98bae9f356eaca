"""Property-based tests (hypothesis) for unit tables and the CDU join."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import join_all, join_block
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


class TestJoinProperties:
    @given(unit_tables(max_units=18, max_level=3))
    @settings(max_examples=40, deadline=None)
    def test_join_semantics_match_pairwise_definition(self, t):
        """Every emitted CDU comes from a pair sharing exactly k−2 dims
        with agreeing bins, and every such pair is represented."""
        t = t.unique()
        jr = join_all(t)
        k = t.level
        expected = set()
        combinable = set()
        units = list(t)
        for i in range(len(units)):
            for j in range(i + 1, len(units)):
                u, v = dict(units[i]), dict(units[j])
                shared = set(u) & set(v)
                if len(shared) != k - 1:
                    continue
                if any(u[d] != v[d] for d in shared):
                    continue
                merged = tuple(sorted({**u, **v}.items()))
                expected.add(merged)
                combinable |= {i, j}
        got = set(jr.cdus.unique()) if jr.cdus.n_units else set()
        assert got == expected
        assert set(np.flatnonzero(jr.combined).tolist()) == combinable

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
