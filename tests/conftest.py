"""Shared fixtures: small synthetic data sets with known ground truth."""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
import pytest

from repro.datagen import ClusterSpec, generate
from repro.params import MafiaParams

#: grid-aligned domains used by most integration tests so adaptive bin
#: edges land exactly on cluster boundaries (see DESIGN.md §5)
DOMAINS_10D = np.array([[0.0, 100.0]] * 10)


def cache_engaged(engaged: bool = True):
    """Patch the serving cache's break-even so a ``ClusterServer``
    built inside the block engages its cache (``True``) or does not
    (``False``) whatever its model's shape — the tiny models of the
    tests would otherwise never cache."""
    compile_module = importlib.import_module("repro.serve.compile")
    return mock.patch.object(compile_module, "PROBE_COST",
                             0 if engaged else 1 << 62)


@pytest.fixture(scope="session")
def one_cluster_dataset():
    """5k records, 10 dims, one 4-d cluster in dims (1, 3, 5, 7)."""
    spec = ClusterSpec.box([1, 3, 5, 7],
                           [(20, 40), (10, 30), (50, 80), (60, 70)],
                           name="c0")
    return generate(5000, 10, [spec], seed=7)


@pytest.fixture(scope="session")
def two_cluster_dataset():
    """20k records, 10 dims, clusters in (1, 6, 7, 8) and (2, 3, 4, 5)
    — the Table 3 layout (0-indexed)."""
    specs = [
        ClusterSpec.box([1, 6, 7, 8], [(20, 40), (10, 30), (50, 80), (60, 70)],
                        name="c0"),
        ClusterSpec.box([2, 3, 4, 5], [(5, 25), (40, 60), (70, 90), (30, 50)],
                        name="c1"),
    ]
    return generate(20000, 10, specs, seed=11)


@pytest.fixture(scope="session")
def small_params():
    """MAFIA parameters suited to a few-thousand-record test set: coarse
    enough fine bins that Poisson noise does not shatter the merge."""
    return MafiaParams(fine_bins=200, window_size=2, chunk_records=2000)


@pytest.fixture(scope="session")
def default_params():
    return MafiaParams(chunk_records=5000)
