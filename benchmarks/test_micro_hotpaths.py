"""Micro-benchmarks of the hot paths (real wall time, not virtual).

These exist to catch performance regressions in the vectorised kernels
the whole system leans on — bitmap-index staging and population, the
CDU join, repeat elimination, histogramming — following the guide's rule: no
optimisation without measurement.  pytest-benchmark tracks them across
runs (``--benchmark-autosave`` / ``--benchmark-compare``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.candidates import join_all
from repro.core.histogram import fine_histogram_local
from repro.core.population import IndexedPopulator, populate_local
from repro.core.units import UnitTable
from repro.io import ArraySource, stage_bitmap_index
from repro.parallel import SerialComm
from repro.types import DimensionGrid, Grid


def uniform_grid(d: int, nbins: int) -> Grid:
    dims = []
    for j in range(d):
        dims.append(DimensionGrid(dim=j, lo=0.0, hi=100.0, n_fine=nbins,
                                  cuts=tuple(range(nbins + 1)),
                                  thresholds=(1.0,) * nbins))
    return Grid(dims=tuple(dims))


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(7)
    return rng.random((200_000, 15)) * 100.0


@pytest.fixture(scope="module")
def many_units():
    """~3000 units across many 4-d subspaces — a mid-run CLIQUE load."""
    rng = np.random.default_rng(8)
    units = []
    for _ in range(3000):
        dims = sorted(rng.choice(15, size=4, replace=False).tolist())
        units.append([(d, int(rng.integers(0, 10))) for d in dims])
    return UnitTable.from_pairs(units).unique()


def test_micro_index_staging(benchmark, records):
    """Staging the bitmap index: 200k records x 15 dims x 10 bins."""
    grid = uniform_grid(15, 10)
    index = benchmark(stage_bitmap_index, ArraySource(records),
                      SerialComm(), grid, 50_000)
    assert index.n_records == records.shape[0]


def test_micro_population_pass(benchmark, records, many_units):
    """One population pass off a staged index: 200k records x ~3000
    4-d CDUs."""
    grid = uniform_grid(15, 10)
    source = ArraySource(records)
    comm = SerialComm()
    indexed = IndexedPopulator(stage_bitmap_index(source, comm, grid,
                                                  50_000))

    counts = benchmark(populate_local, source, comm, grid, many_units,
                       50_000, indexed=indexed)
    assert counts.sum() > 0


def test_micro_fine_histogram(benchmark, records):
    """First-pass histogramming: 200k records x 15 dims x 1000 bins."""
    domains = np.array([[0.0, 100.0]] * 15)

    hist = benchmark(fine_histogram_local, ArraySource(records),
                     SerialComm(), domains, 1000, 50_000)
    assert hist.sum() == records.shape[0] * 15


def test_micro_cdu_join(benchmark):
    """The any-(k−2) join on 800 3-d dense units (~320k pairs)."""
    rng = np.random.default_rng(9)
    units = []
    for _ in range(800):
        dims = sorted(rng.choice(12, size=3, replace=False).tolist())
        units.append([(d, int(rng.integers(0, 6))) for d in dims])
    dense = UnitTable.from_pairs(units).unique()

    result = benchmark(join_all, dense)
    assert result.pairs_examined > 100_000


def test_micro_repeat_elimination(benchmark):
    """Dedup of 50k CDUs with heavy duplication."""
    rng = np.random.default_rng(10)
    base = []
    for _ in range(5000):
        dims = sorted(rng.choice(12, size=4, replace=False).tolist())
        base.append([(d, int(rng.integers(0, 6))) for d in dims])
    table = UnitTable.from_pairs(base * 10)

    mask = benchmark(table.repeat_mask)
    assert mask.sum() >= 9 * 5000 - 5000  # at least the literal repeats


def test_micro_unit_serialisation(benchmark, many_units):
    """Byte-array round-trip of ~3000 units (the per-level message)."""
    def roundtrip():
        return UnitTable.frombytes(many_units.tobytes())

    back = benchmark(roundtrip)
    assert back == many_units
