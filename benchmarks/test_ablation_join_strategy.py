"""Ablation — any-(k−2) join vs CLIQUE's prefix join (§3, §5.5).

The paper's correctness argument against CLIQUE's candidate generation:
joining only units that share their *first* k−2 dimensions misses
candidates ({a1,b7,c8} + {b7,c8,d9} → {a1,b7,c8,d9}).  On a uniform
grid with everything else fixed, the any-(k−2) join explores a strict
superset of the prefix join's candidates and finds at least as many
dense units at every level.

A subtlety this ablation makes measurable: with a uniform threshold and
*no pruning*, density is count-monotone (every subset of a dense unit
is dense), so the prefix join's narrower candidate set still reaches
every dense unit — equal Ndu columns, cheaper Ncdu.  The any-join's
robustness matters when monotonicity is broken, e.g. by CLIQUE's MDL
subspace pruning (see test_ablation_mdl_pruning) — exactly the case the
paper cites for missed dense units.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.clique import clique
from repro.params import CliqueParams

from .workloads import clustered_dataset, domains

N_RECORDS = 50_000
N_DIMS = 10


@pytest.fixture(scope="module")
def dataset():
    return clustered_dataset(N_RECORDS, N_DIMS, n_clusters=2,
                             cluster_dim=5, seed=71)


def test_ablation_join_strategy(benchmark, dataset, sink):
    base = CliqueParams(bins=10, threshold=0.015, apriori_prune=False,
                        chunk_records=12_500)

    def run_both():
        prefix = clique(dataset.records, base, domains=domains(N_DIMS))
        any_join = clique(dataset.records, base.with_(modified_join=True),
                          domains=domains(N_DIMS))
        return prefix, any_join

    prefix, any_join = benchmark.pedantic(run_both, rounds=1, iterations=1)

    levels = sorted(set(prefix.cdus_per_level()) |
                    set(any_join.cdus_per_level()))
    rows = [[lvl,
             prefix.cdus_per_level().get(lvl, 0),
             any_join.cdus_per_level().get(lvl, 0),
             prefix.dense_per_level().get(lvl, 0),
             any_join.dense_per_level().get(lvl, 0)] for lvl in levels]
    sink("Ablation — join strategy (uniform grid, no pruning)",
         format_table(["level", "prefix Ncdu", "any-(k-2) Ncdu",
                       "prefix Ndu", "any-(k-2) Ndu"], rows,
                      title="CLIQUE prefix join vs MAFIA any-(k-2) join"))

    for lvl in levels:
        assert any_join.cdus_per_level().get(lvl, 0) >= \
            prefix.cdus_per_level().get(lvl, 0)
        assert any_join.dense_per_level().get(lvl, 0) >= \
            prefix.dense_per_level().get(lvl, 0)
    # the superset is strict somewhere (the missed-candidates claim)
    assert sum(any_join.cdus_per_level().values()) > \
        sum(prefix.cdus_per_level().values())
