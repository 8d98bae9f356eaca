"""Pinned CLIQUE outputs: clusters, level traces, per-rank work and
virtual times, bit for bit.

Every literal below was recorded from the CLIQUE driver and must not
move when the driver's structure changes: a refactor of the level walk
or of cluster assembly either reproduces all of them or changes
behaviour.  Each configuration runs serially, on the sim backend at
p = 1 and p = 4 (which pins per-rank ``WorkCounters`` and the exact
``rank_times``) and on the thread backend at p = 3.
"""

from __future__ import annotations

import hashlib
import importlib

import numpy as np
import pytest

from repro.clique import clique, pclique
from repro.datagen import ClusterSpec, generate
from repro.params import CliqueParams

BASE = CliqueParams(bins=8, threshold=0.04, chunk_records=1500)

#: name -> (data set, parameters): every CLIQUE step on and off once,
#: the §5.5 modified join, task-partitioned levels everywhere
#: (``tau=0``), a capped lattice, and a lattice that a-priori pruning
#: empties
CONFIGS = {
    "default": ("two_clusters", BASE),
    "no_apriori": ("two_clusters", BASE.with_(apriori_prune=False)),
    "modified_join": ("two_clusters", BASE.with_(modified_join=True)),
    "mdl_prune": ("two_clusters", BASE.with_(mdl_prune=True)),
    "tau0": ("two_clusters", BASE.with_(tau=0, bins=10, threshold=0.02)),
    "max_dim2": ("two_clusters", BASE.with_(max_dimensionality=2)),
    "pruned_empty": ("prefix_trap", CliqueParams(bins=10, threshold=0.2,
                                                 chunk_records=500)),
}

#: name -> (cdus per level, dense per level, clusters digest, trace
#: digest); the same on every backend and rank count
RESULTS = {
    "default": ({1: 80, 2: 2880, 3: 588, 4: 8},
                {1: 80, 2: 240, 3: 31, 4: 4},
                "04857c842902f940", "50d144e7be8afbeb"),
    "no_apriori": ({1: 80, 2: 2880, 3: 1083, 4: 10},
                   {1: 80, 2: 240, 3: 31, 4: 4},
                   "04857c842902f940", "6790dbabe353ba72"),
    "modified_join": ({1: 80, 2: 2880, 3: 588, 4: 8},
                      {1: 80, 2: 240, 3: 31, 4: 4},
                      "04857c842902f940", "74a712e32a079e0d"),
    "mdl_prune": ({1: 80, 2: 2880, 3: 100, 4: 6},
                  {1: 80, 2: 113, 3: 29, 4: 2},
                  "4a8eeab9e8adddde", "c2e964b87700c178"),
    "tau0": ({1: 100, 2: 4500, 3: 2963, 4: 36},
             {1: 100, 2: 762, 3: 292, 4: 20},
             "829a251bf3ba9a68", "933b1868834af89d"),
    "max_dim2": ({1: 80, 2: 2880},
                 {1: 80, 2: 240},
                 "8aea9b795f1f582b", "74e09505459368ac"),
    "pruned_empty": ({1: 30, 2: 3},
                     {1: 3, 2: 2},
                     "9ecb4116452d18a3", "8b3c0fd6e731da92"),
}

#: (name, nprocs) -> (digest of every rank's WorkCounters, exact
#: rank_times) on the sim backend
SIM = {
    ("default", 1): ("d985655d4faa2eea", (
        6.909163200000003,)),
    ("default", 4): ("d3ef9275d506585e", (
        2.9335394568627433, 2.9328388176470574, 2.9331891372549004,
        2.9335394568627433,)),
    ("no_apriori", 1): ("17c48c29b7f5b930", (
        8.219129600000002,)),
    ("no_apriori", 4): ("aba83d50d78deeb9", (
        3.258621290196077, 3.2579206509803913, 3.2582709705882342,
        3.258621290196077,)),
    ("modified_join", 1): ("cbf05c6539e80b13", (
        6.9150332000000025,)),
    ("modified_join", 4): ("56246fcbd6bdb84e", (
        5.406722729411767, 5.40602209019608, 5.406372409803923,
        5.406722729411767,)),
    ("mdl_prune", 1): ("140a70e70dbb7733", (
        5.589272200000001,)),
    ("mdl_prune", 4): ("41795ca051eacb7c", (
        2.4569911470588215, 2.4566061941176454, 2.4567986705882334,
        2.4569911470588215,)),
    ("tau0", 1): ("604376891e7f4076", (
        16.471164799999993,)),
    ("tau0", 4): ("e93615bb7da2ebfe", (
        15.329153725490185, 15.328147360784302, 15.328650543137243,
        15.329153725490185,)),
    ("max_dim2", 1): ("7c18b4a609481d89", (
        5.222872,)),
    ("max_dim2", 4): ("811f77ef58505ec8", (
        2.3565009901960785, 2.355882154901961, 2.3561915725490197,
        2.3565009901960785,)),
    ("pruned_empty", 1): ("ae80150d168f6149", (
        0.12042360000000005,)),
    ("pruned_empty", 4): ("7188f39b1dd970f9", (
        0.04564429607843139, 0.04557193137254903, 0.04560811372549021,
        0.04564429607843139,)),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def fingerprint(result) -> tuple:
    clusters = [(c.subspace.dims, c.units_bins.tolist(),
                 [(t.subspace.dims, t.intervals) for t in c.dnf],
                 c.point_count) for c in result.clusters]
    trace = [(lv.level, lv.n_cdus_raw, lv.n_cdus, lv.n_dense,
              lv.dense.dims.tolist(), lv.dense.bins.tolist(),
              lv.dense_counts.tolist()) for lv in result.trace]
    return (result.cdus_per_level(), result.dense_per_level(),
            _digest(clusters), _digest(trace))


def two_clusters():
    """4k records, 10 dims, two 4-d clusters (the Table 3 layout)."""
    specs = [
        ClusterSpec.box([1, 6, 7, 8],
                        [(20, 40), (10, 30), (50, 80), (60, 70)]),
        ClusterSpec.box([2, 3, 4, 5],
                        [(5, 25), (40, 60), (70, 90), (30, 50)]),
    ]
    return generate(4000, 10, specs, seed=11).records


def prefix_trap():
    """2.5k records, 3 dims: (dim 0, bin 1) is dense with (dim 1, bin 1)
    and with (dim 2, bin 5), but those two are not dense together, so
    the one prefix-join candidate at level 3 fails a-priori pruning."""
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 100, (1000, 3))
    a[:, :2] = rng.uniform(10, 20, (1000, 2))
    b = rng.uniform(0, 100, (1000, 3))
    b[:, 0] = rng.uniform(10, 20, 1000)
    b[:, 2] = rng.uniform(50, 60, 1000)
    return rng.permutation(np.vstack([a, b, rng.uniform(0, 100, (500, 3))]))


@pytest.fixture(scope="module")
def datasets():
    return {"two_clusters": two_clusters(), "prefix_trap": prefix_trap()}


def case(datasets, name):
    data, params = CONFIGS[name]
    records = datasets[data]
    domains = np.array([[0.0, 100.0]] * records.shape[1])
    return records, params, domains


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestPinnedClique:
    def test_serial(self, datasets, name):
        records, params, domains = case(datasets, name)
        assert fingerprint(clique(records, params, domains=domains)) \
            == RESULTS[name]

    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_sim(self, datasets, name, nprocs):
        records, params, domains = case(datasets, name)
        run = pclique(records, nprocs, params, backend="sim",
                      domains=domains)
        assert fingerprint(run.result) == RESULTS[name]
        assert (_digest(run.counters), run.rank_times) == SIM[name, nprocs]

    def test_thread(self, datasets, name):
        records, params, domains = case(datasets, name)
        run = pclique(records, 3, params, backend="thread", domains=domains)
        assert fingerprint(run.result) == RESULTS[name]


def test_pruned_empty_reaches_the_empty_level_branch(datasets, monkeypatch):
    """The ``pruned_empty`` case really prunes a level to zero CDUs."""
    module = importlib.import_module("repro.clique.clique")
    real = module.apriori_prune
    keeps = []

    def spy(candidates, dense):
        keep = real(candidates, dense)
        keeps.append(keep)
        return keep

    monkeypatch.setattr(module, "apriori_prune", spy)
    records, params, domains = case(datasets, "pruned_empty")
    result = clique(records, params, domains=domains)
    assert keeps[-1].size and not keeps[-1].any()
    # every prune but the last kept CDUs for one more level pass
    assert result.trace[-1].level == len(keeps)
