"""Table 1 + Figure 4 — pMAFIA vs CLIQUE execution times and speedup.

Paper: 300 k records, 15-d, one cluster in a 5-d subspace.  CLIQUE runs
with 10 uniform bins per dimension and a 2 % threshold; pMAFIA sets its
thresholds automatically.  Table 1: both parallelise well (CLIQUE
2469 s → 184 s, pMAFIA 32.15 s → 4.51 s over p = 1..16); Figure 4:
pMAFIA is 40-80x faster than CLIQUE at every processor count.

Here: 1/5-scale records on the simulated SP2.  Claims checked: both
algorithms' virtual times fall with p, and the pMAFIA-over-CLIQUE
speedup is large (>10x) at every p — the paper's 40-80x band depends on
its exact CDU population costs, so we assert the conservative shape.
"""

from __future__ import annotations

import pytest

from repro import pmafia
from repro.analysis import paper_vs_measured
from repro.clique import pclique
from repro.params import CliqueParams

from .workloads import bench_params, clustered_dataset, domains

PAPER_PMAFIA = {1: 32.15, 2: 17.73, 4: 8.34, 8: 5.08, 16: 4.51}
PAPER_CLIQUE = {1: 2469.12, 2: 1324.51, 4: 664.65, 8: 338.19, 16: 184.36}
N_RECORDS = 60_000
N_DIMS = 15
PROCS = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def dataset():
    return clustered_dataset(N_RECORDS, N_DIMS, n_clusters=1,
                             cluster_dim=5, seed=11)


def test_table1_and_fig4(benchmark, dataset, sink):
    mafia_params = bench_params(chunk_records=15_000)
    clique_params = CliqueParams(bins=10, threshold=0.02,
                                 chunk_records=15_000)

    def sweep():
        mafia_times, clique_times = {}, {}
        for p in PROCS:
            mafia_times[p] = pmafia(dataset.records, p, mafia_params,
                                    backend="sim",
                                    domains=domains(N_DIMS)).makespan
            clique_times[p] = pclique(dataset.records, p, clique_params,
                                      backend="sim",
                                      domains=domains(N_DIMS)).makespan
        return mafia_times, clique_times

    mafia_times, clique_times = benchmark.pedantic(sweep, rounds=1,
                                                   iterations=1)

    sink("Table 1 — execution times (seconds)",
         paper_vs_measured(
             "Table 1: pMAFIA times", "procs", PAPER_PMAFIA,
             {p: round(t, 2) for p, t in mafia_times.items()},
             note=f"paper: 300k records; here {N_RECORDS} (1/5 scale)")
         + "\n\n"
         + paper_vs_measured(
             "Table 1: CLIQUE times (10 bins, 2% threshold)", "procs",
             PAPER_CLIQUE,
             {p: round(t, 2) for p, t in clique_times.items()}))

    speedup = {p: clique_times[p] / mafia_times[p] for p in PROCS}
    sink("Figure 4 — speedup of pMAFIA over CLIQUE",
         paper_vs_measured(
             "Figure 4: pMAFIA over CLIQUE", "procs",
             {1: 76.8, 2: 74.7, 4: 79.7, 8: 66.6, 16: 40.9},
             {p: round(s, 1) for p, s in speedup.items()},
             note="paper band: 40-80x"))

    # both algorithms parallelise (monotone decay)
    for times in (mafia_times, clique_times):
        ordered = [times[p] for p in PROCS]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))
    # pMAFIA wins by a large factor at every processor count
    for p in PROCS:
        assert speedup[p] > 10.0, f"speedup at p={p} only {speedup[p]:.1f}"


#: p -> (per-rank virtual seconds, total unit-pair operations) of the
#: Table 1 pMAFIA run, recorded from the pairwise Algorithm 3 sweep over
#: equation (1) fences — the paper's cost model
PINNED_SIM_COSTS = {
    1: ([3.6530445999999985], 221),
    4: ([0.9628573137254899, 0.962789870588235, 0.9628235921568624,
         0.9628573137254899], 884),
    8: ([0.4960054627450977, 0.4958031333333329, 0.4958368549019604,
         0.49587057647058785, 0.4959042980392153, 0.4959380196078428,
         0.49597174117647025, 0.4960054627450977], 1768),
}


class TestJoinCostModelGuard:
    """The sub-signature hash join must not drift the simulated cost
    model: the virtual clock is charged the paper's pairwise comparison
    count over equation (1) fences, so per-rank virtual times, the
    makespan and the total unit-pair operations equal the pinned
    pairwise-sweep figures bit for bit."""

    @pytest.mark.parametrize("p", sorted(PINNED_SIM_COSTS))
    def test_sim_costs_pinned(self, dataset, p):
        run = pmafia(dataset.records, p,
                     bench_params(chunk_records=15_000), backend="sim",
                     domains=domains(N_DIMS))
        rank_times, unit_pair_ops = PINNED_SIM_COSTS[p]
        assert list(run.rank_times) == rank_times
        assert run.makespan == max(rank_times)
        assert sum(c.unit_pair_ops for c in run.counters) == unit_pair_ops
