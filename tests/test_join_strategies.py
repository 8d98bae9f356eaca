"""The sub-signature hash join is bit-identical to the paper's pairwise
definition of the CDU join (Algorithm 3).

Property-based equivalence (hypothesis): on random lattices across
levels 1-6, ``join_all`` and ``join_block`` emit the *same raw CDU
table in the same row order*, the same ``combined`` mask and the same
``pairs_examined`` as the literal double loop in
``tests.test_property_units.algorithm3`` — for the full join, for
arbitrary row fences, and for the equation (1) rank fences, whose
fragments concatenate in rank order to the serial table.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import hash_join_plan, join_all, join_block
from repro.core.partition import triangular_splits
from repro.core.units import UnitTable
from tests.test_property_units import assert_matches_algorithm3


@st.composite
def lattices(draw, max_units=40, min_level=1, max_level=6, max_dim=10,
             max_bin=3):
    """Random duplicate-free unit tables.  Few distinct bins per
    dimension force heavy sub-signature bucket collisions."""
    level = draw(st.integers(min_level, max_level))
    n = draw(st.integers(0, max_units))
    units = []
    for _ in range(n):
        dims = draw(st.lists(st.integers(0, max_dim - 1), min_size=level,
                             max_size=level, unique=True))
        unit = [(d, draw(st.integers(0, max_bin - 1))) for d in sorted(dims)]
        units.append(unit)
    if not units:
        return UnitTable.empty(level)
    return UnitTable.from_pairs(units).unique()


class TestHashEqualsPairwise:
    @given(lattices())
    @settings(max_examples=120, deadline=None)
    def test_full_join_bit_identical(self, t):
        assert_matches_algorithm3(t, 0, t.n_units, join_all(t))

    @given(lattices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_join_bit_identical_for_any_fences(self, t, data):
        n = t.n_units
        plan = hash_join_plan(t)
        fences = sorted(data.draw(st.lists(st.integers(0, n), min_size=0,
                                           max_size=4)))
        cuts = [0] + fences + [n]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            assert_matches_algorithm3(t, lo, hi,
                                      join_block(t, lo, hi, plan=plan))
            assert_matches_algorithm3(t, lo, hi, join_block(t, lo, hi))

    @given(lattices())
    @settings(max_examples=40, deadline=None)
    def test_rank_partition_reassembles_serial_table(self, t):
        """Concatenating per-rank fragments in rank order (the driver's
        gather) over equation (1) fences reproduces the serial raw
        table, and the per-rank comparison counts sum to the serial
        count."""
        n = t.n_units
        serial = join_all(t)
        plan = hash_join_plan(t)
        for p in (2, 3, 5):
            offsets = triangular_splits(n, p)
            blocks = [join_block(t, offsets[r], offsets[r + 1], plan=plan)
                      for r in range(p)]
            assert UnitTable.concat_all([b.cdus for b in blocks]) \
                == serial.cdus
            assert sum(b.pairs_examined for b in blocks) \
                == serial.pairs_examined
