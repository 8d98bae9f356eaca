"""Chaos gameday: rehearse rank failures against RTO budgets.

A *scenario* is a small JSON file (see ``benchmarks/scenarios/``)
naming a deterministic :class:`~repro.parallel.faults.FaultPlan`, the
recovery mode that is expected to absorb it, and a recovery-time
budget.  The runner executes every scenario on the process backend,
demands the final clustering be **bit-identical** to a fault-free
reference run, and fails loudly when recovery blows its budget.

Two recovery modes map onto the repo's fault-tolerance layers:

``restart``
    :func:`repro.core.mafia.pmafia_resumable` with ``max_restarts`` —
    the whole world restarts from the last per-level checkpoint; the
    budget is checked against the call's wall-clock time.
``none``
    The fault plan must be absorbed below the recovery layer (e.g. a
    transient-EIO storm swallowed by the resilient reader's retries);
    no recovery time is charged against the budget.

Run the suite from the command line::

    python -m repro.gameday benchmarks/scenarios --output recovery-trace.json

Exit status is non-zero when any scenario fails — wrong clusters, an
unexpected exception, or a busted RTO budget — which is what the CI
``gameday`` job gates on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .core.mafia import pmafia_resumable
from .core.result import ClusteringResult
from .datagen.generator import generate
from .errors import ParameterError, ReproError
from .io.resilient import RetryPolicy
from .params import MafiaParams
from .parallel.faults import FaultPlan

SCENARIO_VERSION = 1

_RECOVERY_MODES = ("restart", "none")


@dataclass(frozen=True)
class ChaosScenario:
    """One rehearsed failure: the fault plan, the recovery mode that
    must absorb it, and the recovery-time budget it must meet."""

    name: str
    description: str = ""
    nprocs: int = 3
    #: which fault-tolerance layer is expected to absorb the plan
    recovery: str = "restart"
    #: seconds the recovery may take before the scenario fails
    rto_budget_seconds: float = 60.0
    faults: FaultPlan | None = None
    recv_timeout: float | None = 60.0
    #: restart mode only: in-process restart budget
    max_restarts: int = 1
    #: MafiaParams field overrides applied on top of the base params
    params: dict[str, Any] = field(default_factory=dict)
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.recovery not in _RECOVERY_MODES:
            raise ParameterError(
                f"scenario {self.name!r}: recovery must be one of "
                f"{_RECOVERY_MODES}, got {self.recovery!r}")
        if self.rto_budget_seconds <= 0:
            raise ParameterError(
                f"scenario {self.name!r}: rto_budget_seconds must be > 0")
        if self.nprocs < 1:
            raise ParameterError(
                f"scenario {self.name!r}: nprocs must be >= 1")

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "ChaosScenario":
        """Build a scenario from its JSON file form."""
        spec = dict(spec)
        version = spec.pop("version", SCENARIO_VERSION)
        if version != SCENARIO_VERSION:
            raise ParameterError(
                f"scenario version {version} not supported "
                f"(this build reads version {SCENARIO_VERSION})")
        faults = spec.pop("faults", None)
        retry = spec.pop("retry", None)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(spec) - known
        if unknown:
            raise ParameterError(
                f"scenario {spec.get('name', '?')!r}: unknown fields "
                f"{sorted(unknown)}")
        return cls(
            faults=None if faults is None else FaultPlan.from_dict(faults),
            retry=None if retry is None else RetryPolicy(**retry),
            **spec)


def load_scenario(path: str | os.PathLike) -> ChaosScenario:
    """Read one scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return ChaosScenario.from_dict(json.load(fh))


def load_scenarios(directory: str | os.PathLike) -> list[ChaosScenario]:
    """Read every ``*.json`` scenario in a directory, sorted by name."""
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise ParameterError(f"no scenario files (*.json) in {directory}")
    return [load_scenario(p) for p in paths]


def results_identical(result: ClusteringResult,
                      reference: ClusteringResult) -> bool:
    """Bit-identical clustering: per-level CDU/dense counts, the dense
    unit tables themselves, and the reported cluster DNFs all match."""
    if (result.cdus_per_level() != reference.cdus_per_level()
            or result.dense_per_level() != reference.dense_per_level()
            or len(result.trace) != len(reference.trace)):
        return False
    for got, want in zip(result.trace, reference.trace):
        if (not np.array_equal(got.dense.dims, want.dense.dims)
                or not np.array_equal(got.dense.bins, want.dense.bins)
                or not np.array_equal(got.dense_counts, want.dense_counts)):
            return False
    return ([c.dnf for c in result.clusters]
            == [c.dnf for c in reference.clusters])


@dataclass(frozen=True)
class GamedayResult:
    """Outcome of one scenario run."""

    scenario: ChaosScenario
    ok: bool
    identical: bool
    #: seconds charged against the scenario's RTO budget
    recovery_seconds: float
    wall_seconds: float
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form for the recovery trace artifact."""
        return {
            "scenario": self.scenario.name,
            "recovery": self.scenario.recovery,
            "ok": self.ok,
            "identical": self.identical,
            "recovery_seconds": self.recovery_seconds,
            "rto_budget_seconds": self.scenario.rto_budget_seconds,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
        }

    def summary(self) -> str:
        """One status line for the console report."""
        status = "PASS" if self.ok else "FAIL"
        line = (f"{status:4s} {self.scenario.name:28s} "
                f"[{self.scenario.recovery}] "
                f"rto={self.recovery_seconds:.2f}s/"
                f"{self.scenario.rto_budget_seconds:.0f}s "
                f"wall={self.wall_seconds:.1f}s")
        if self.error is not None:
            line += f"  ({self.error})"
        elif not self.identical:
            line += "  (result diverged from fault-free reference)"
        return line


def run_gameday(scenario: ChaosScenario, data: Any,
                params: MafiaParams, *,
                checkpoint_dir: str | os.PathLike,
                baseline: ClusteringResult,
                domains: np.ndarray | None = None) -> GamedayResult:
    """Execute one scenario and judge it against its budget.

    ``data`` must be shareable across processes (a record-file path or
    an array); ``baseline`` is the fault-free reference clustering the
    survivor's output must equal bit-for-bit.  ``checkpoint_dir`` must
    be empty or scenario-private — recovery state from one scenario
    must never leak into the next.
    """
    run_params = (replace(params, **scenario.params)
                  if scenario.params else params)
    start = time.perf_counter()
    try:
        result = pmafia_resumable(
            data, scenario.nprocs, run_params,
            checkpoint_dir=checkpoint_dir, domains=domains,
            backend="process", recv_timeout=scenario.recv_timeout,
            retry=scenario.retry, faults=scenario.faults,
            max_restarts=(scenario.max_restarts
                          if scenario.recovery == "restart" else 0)).result
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        wall = time.perf_counter() - start
        return GamedayResult(scenario=scenario, ok=False, identical=False,
                             recovery_seconds=wall, wall_seconds=wall,
                             error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    recovery_seconds = wall if scenario.recovery == "restart" else 0.0
    identical = results_identical(result, baseline)
    ok = identical and recovery_seconds <= scenario.rto_budget_seconds
    return GamedayResult(scenario=scenario, ok=ok, identical=identical,
                         recovery_seconds=recovery_seconds,
                         wall_seconds=wall)


def write_recovery_trace(path: str | os.PathLike,
                         results: Sequence[GamedayResult]) -> None:
    """Write the machine-readable gameday report (the CI artifact)."""
    payload = {
        "version": SCENARIO_VERSION,
        "scenarios": [r.to_dict() for r in results],
        "passed": sum(1 for r in results if r.ok),
        "failed": sum(1 for r in results if not r.ok),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _gameday_dataset(n_records: int, n_dims: int):
    """The standing gameday workload: one 4-d box cluster in noise."""
    from .datagen.spec import ClusterSpec
    spec = ClusterSpec.box([1, 3, 5, 7],
                           [(20, 40), (10, 30), (50, 80), (60, 70)])
    return generate(n_records, n_dims, [spec], seed=7)


def main(argv: Sequence[str] | None = None) -> int:
    """Run a scenario directory end to end — the CI gameday job."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.gameday",
        description="run chaos scenarios against their RTO budgets")
    parser.add_argument("scenarios", type=Path,
                        help="scenario directory or a single .json file")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the recovery trace JSON here")
    parser.add_argument("--records", type=int, default=5000)
    parser.add_argument("--dims", type=int, default=10)
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", help="run only these scenarios "
                        "(repeatable)")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="scratch directory for checkpoints "
                        "(default: a fresh temp dir)")
    args = parser.parse_args(argv)

    try:
        if args.scenarios.is_dir():
            scenarios = load_scenarios(args.scenarios)
        else:
            scenarios = [load_scenario(args.scenarios)]
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error loading scenarios: {exc}", file=sys.stderr)
        return 2
    if args.only:
        wanted = set(args.only)
        scenarios = [s for s in scenarios if s.name in wanted]
        missing = wanted - {s.name for s in scenarios}
        if missing:
            print(f"error: unknown scenarios {sorted(missing)}",
                  file=sys.stderr)
            return 2

    import tempfile
    workdir_cm = (tempfile.TemporaryDirectory()
                  if args.workdir is None else None)
    workdir = Path(workdir_cm.name if workdir_cm else args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    params = MafiaParams(fine_bins=200, window_size=2, chunk_records=2000)
    dataset = _gameday_dataset(args.records, args.dims)
    domains = np.array([[0.0, 100.0]] * args.dims)

    from .core.mafia import mafia
    print(f"gameday: {len(scenarios)} scenarios, "
          f"{args.records} records x {args.dims} dims", flush=True)
    baseline = mafia(dataset.records, params, domains)

    results: list[GamedayResult] = []
    try:
        for scenario in scenarios:
            ckpt = workdir / f"ckpt-{scenario.name}"
            ckpt.mkdir(parents=True, exist_ok=True)
            outcome = run_gameday(scenario, dataset.records, params,
                                  checkpoint_dir=ckpt, baseline=baseline,
                                  domains=domains)
            results.append(outcome)
            print(outcome.summary(), flush=True)
    finally:
        if workdir_cm is not None:
            workdir_cm.cleanup()

    if args.output is not None:
        write_recovery_trace(args.output, results)
        print(f"wrote recovery trace to {args.output}", file=sys.stderr)
    failed = [r for r in results if not r.ok]
    if failed:
        print(f"gameday FAILED: {len(failed)}/{len(results)} scenarios",
              file=sys.stderr)
        return 1
    print(f"gameday passed: {len(results)}/{len(results)} scenarios")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
