#!/usr/bin/env python3
"""Parallel pMAFIA: thread-SPMD execution and IBM SP2 speedup curves.

Demonstrates both parallel backends:

* ``thread`` — real message-passing SPMD (queues, Reduce collectives,
  the equation-(1) task partition) whose result must equal the serial
  run bit-for-bit;
* ``sim``    — the same execution with deterministic virtual clocks on
  the paper's IBM SP2 machine model, regenerating the near-linear
  speedups of Figure 3 / Table 5.

Run:  python examples/parallel_speedup.py
"""

from __future__ import annotations

import numpy as np

from repro import MachineSpec, MafiaParams, mafia, pmafia
from repro.analysis import format_table, speedup_series
from repro.datagen import ClusterSpec, generate


def main() -> None:
    specs = [
        ClusterSpec.box([2, 5, 8, 11, 13],
                        [(20, 28), (40, 48), (60, 70), (10, 18), (75, 84)]),
        ClusterSpec.box([0, 3, 6, 9, 12],
                        [(50, 58), (30, 38), (12, 20), (80, 88), (44, 52)]),
    ]
    dataset = generate(60_000, 15, specs, seed=42)
    domains = np.array([[0.0, 100.0]] * 15)
    params = MafiaParams(fine_bins=200, window_size=2, chunk_records=15_000)

    serial = mafia(dataset.records, params.with_(trace=True),
                   domains=domains)
    print(f"serial found {len(serial.clusters)} clusters:",
          [c.subspace.dims for c in serial.clusters])

    # Where inside a run does the wall time go?  The driver brackets its
    # hot phases (grid build, CDU join, repeat elimination, population,
    # cluster assembly) in phase spans; a traced run's .obs sums them.
    phases = serial.obs.phase_seconds()
    total = sum(phases.values())
    rows = [[name, f"{secs:.3f}", f"{100 * secs / total:.1f}%"]
            for name, secs in phases.items()]
    print()
    print(format_table(["phase", "seconds", "share"], rows,
                       title="serial run, per-phase wall time"))

    # 1. Correctness: the 4-rank thread backend exchanges real messages
    #    and must reproduce the serial clustering exactly.
    threaded = pmafia(dataset.records, 4, params, domains=domains)
    assert [c.subspace.dims for c in threaded.result.clusters] == \
        [c.subspace.dims for c in serial.clusters]
    print("thread backend (p=4) matches the serial result")

    # 2. Performance: virtual IBM SP2 runtimes over processor counts.
    times = {}
    for p in (1, 2, 4, 8, 16):
        run = pmafia(dataset.records, p, params, backend="sim",
                     machine=MachineSpec.ibm_sp2(), domains=domains)
        times[p] = run.makespan
    speedups = speedup_series(times)

    rows = [[p, f"{times[p]:.2f}", f"{speedups[p]:.2f}"]
            for p in sorted(times)]
    print()
    print(format_table(["procs", "SP2 seconds", "speedup"], rows,
                       title="simulated IBM SP2 (cf. paper Figure 3)"))

    # 3. Where does the time go?  Per-rank work tallies from the last run.
    run16 = pmafia(dataset.records, 16, params, backend="sim",
                   domains=domains)
    c0 = run16.counters[0]
    print(f"\nrank 0 at p=16: {c0.record_cell_ops:.2e} cell ops, "
          f"{c0.unit_pair_ops:.2e} pair ops, "
          f"{c0.io_chunks} chunk reads, {c0.messages} messages")

    # 4. The observability subsystem gives the same breakdown per rank
    #    without external timers: re-run p=4 with tracing + metrics on
    #    (bit-identical clusters and virtual times, asserted by
    #    tests/test_observability.py) and read the span/counter exports.
    traced = pmafia(dataset.records, 4, params.with_(trace=True,
                                                     metrics=True),
                    backend="sim", domains=domains)
    rows = []
    for rank_obs in traced.obs.ranks:
        secs = rank_obs.phase_seconds()
        m = rank_obs.metrics
        rows.append([
            rank_obs.rank,
            f"{secs.get('population', 0.0):.3f}",
            f"{secs.get('join', 0.0) + secs.get('dedup', 0.0):.3f}",
            m["io.chunks_read{kind=indexed}"]["value"],
            m["comm.collectives{op=allreduce}"]["value"],
        ])
    print()
    print(format_table(
        ["rank", "populate s", "lattice s", "indexed chunks", "allreduces"],
        rows, title="per-rank breakdown from run.obs (p=4, traced)"))
    comm_bytes = traced.obs.merged_metrics()["total"]
    nbytes = sum(v["value"] for k, v in comm_bytes.items()
                 if k.startswith("comm.bytes"))
    print(f"collective payload moved across the run: {nbytes / 1e6:.2f} MB")


if __name__ == "__main__":
    main()
