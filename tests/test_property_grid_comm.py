"""Property-based tests: adaptive grid invariants, communicator
collectives, payload sizing, generator invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.adaptive_grid import build_dimension_grid, merge_windows, window_maxima
from repro.datagen import ClusterSpec, generate
from repro.params import MafiaParams
from repro.parallel import run_spmd
from repro.parallel.simtime import payload_nbytes


def merge_windows_reference(values, beta):
    """``merge_windows`` as it was written over NumPy scalars, kept
    verbatim as the oracle of the Python-float loop."""
    values = np.asarray(values, dtype=np.float64)
    ranges = []
    start = 0
    current = values[0]
    for i in range(1, values.size):
        v = values[i]
        scale = max(current, v)
        if scale <= 0 or abs(current - v) < beta * scale:
            current = max(current, v)
            continue
        ranges.append((start, i))
        start, current = i, v
    ranges.append((start, values.size))
    return ranges


class TestGridProperties:
    @given(hnp.arrays(np.int64, st.integers(10, 120),
                      elements=st.integers(0, 10_000)),
           st.integers(1, 10),
           st.floats(0.05, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_bins_partition_domain(self, fine, window, beta):
        params = MafiaParams(fine_bins=len(fine), window_size=min(window, len(fine)),
                             beta=beta)
        dg = build_dimension_grid(0, fine, (0.0, 100.0), max(int(fine.sum()), 1),
                                  params)
        edges = np.asarray(dg.edges)
        assert edges[0] == 0.0 and edges[-1] == 100.0
        assert (np.diff(edges) > 0).all()
        assert len(dg.thresholds) == dg.nbins

    @given(hnp.arrays(np.int64, st.integers(10, 120),
                      elements=st.integers(0, 10_000)),
           st.floats(0.05, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_thresholds_proportional_to_width(self, fine, beta):
        n = max(int(fine.sum()), 1)
        params = MafiaParams(fine_bins=len(fine), window_size=5, beta=beta,
                             alpha=1.5)
        dg = build_dimension_grid(0, fine, (0.0, 50.0), n, params)
        for b in dg.bins():
            assert b.threshold == (
                (params.alpha * (params.uniform_alpha_boost if dg.uniform else 1.0))
                * n * b.width / 50.0)

    @given(hnp.arrays(np.int64, st.integers(2, 100),
                      elements=st.integers(0, 1000)),
           st.floats(0.05, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_merge_ranges_partition_windows(self, values, beta):
        ranges = merge_windows(values, beta)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(values)
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c and a < b

    @given(st.one_of(
               # few distinct values: zero runs and exact ties
               hnp.arrays(np.int64, st.integers(1, 60),
                          elements=st.integers(0, 3)),
               hnp.arrays(np.int64, st.integers(1, 60),
                          elements=st.integers(0, 10_000)),
               hnp.arrays(np.float64, st.integers(1, 60),
                          elements=st.floats(0, 1e6))),
           st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_merge_equals_the_numpy_scalar_loop(self, values, beta):
        assert merge_windows(values, beta) == \
            merge_windows_reference(values, beta)

    @given(hnp.arrays(np.int64, st.integers(1, 100),
                      elements=st.integers(0, 1000)),
           st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_window_maxima_bound_input(self, counts, w):
        wm = window_maxima(counts, w)
        assert wm.max() == counts.max()
        assert len(wm) == -(-len(counts) // w)


class TestCommProperties:
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=6),
           st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_allreduce_sum_matches_numpy(self, base, p):
        arrays = [np.array(base) * (r + 1) for r in range(p)]

        def prog(comm):
            return comm.allreduce(arrays[comm.rank], op="sum")

        expected = np.sum(arrays, axis=0)
        for r in run_spmd(prog, p):
            np.testing.assert_array_equal(r.value, expected)

    @given(st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_allgather_order_invariant(self, p):
        def prog(comm):
            return comm.allgather(comm.rank ** 2)

        for r in run_spmd(prog, p):
            assert r.value == [i ** 2 for i in range(p)]


class TestPayloadProperties:
    @given(st.recursive(
        st.one_of(st.none(), st.integers(), st.floats(allow_nan=False),
                  st.text(max_size=20), st.binary(max_size=40)),
        lambda children: st.lists(children, max_size=4),
        max_leaves=12))
    @settings(max_examples=80, deadline=None)
    def test_payload_positive_and_monotone_in_nesting(self, obj):
        size = payload_nbytes(obj)
        assert size > 0
        assert payload_nbytes([obj]) > size


class TestGeneratorProperties:
    @given(st.integers(50, 400), st.integers(2, 6),
           st.floats(0.0, 0.3), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_all_records_in_domain(self, n, d, noise, seed):
        spec = ClusterSpec.box([0], [(20, 40)])
        ds = generate(n, d, [spec], noise_fraction=noise, seed=seed)
        assert ds.records.shape[1] == d
        assert (ds.records >= 0).all() and (ds.records <= 100).all()
        assert ds.records.shape[0] == n + int(round(noise * n))

    @given(st.integers(100, 500), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_cluster_members_respect_extents(self, n, seed):
        spec = ClusterSpec.box([1, 2], [(10, 30), (60, 90)])
        ds = generate(n, 4, [spec], seed=seed)
        members = ds.cluster_records(0)
        assert (members[:, 1] >= 10).all() and (members[:, 1] <= 30).all()
        assert (members[:, 2] >= 60).all() and (members[:, 2] <= 90).all()
