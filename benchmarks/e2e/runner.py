"""One run of one workload — the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--smoke] [--detail-out PATH] [--trace-out PATH]

Inputs are made from the seed; the program is set up ``SETUP_REPS``
times (the median is ``setup_s``); then whole cycles of steps run until
``--seconds`` have passed.  With ``--trace 0`` nothing is wrapped and
the end-to-end metrics are reported.  With ``--trace 1`` every other
step runs under the layer wrappers and the per-layer metrics are
reported, including the wrappers' overhead against the untraced steps.
Outputs are checked after the loop; the last stdout line is the JSON
result, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from . import workloads
from .layers import entry_points, layer_metrics
from .spec import HERE, MIN_COVERAGE, WORKLOADS, load_benchmark, scratch_dir
from .tracer import Tracer

#: set-up runs at least SETUP_REPS times and until SETUP_BUDGET_S of
#: set-up time has accumulated, so a millisecond set-up gets a steady
#: median too
SETUP_REPS = 3
SETUP_BUDGET_S = 2.0
#: ``--smoke`` shrinks every input tenfold and sets up once
SMOKE_SCALE = 0.1


def committed_digest(workload: str, seed: int, smoke: bool) -> str | None:
    """The seed's digest recorded in ``baseline.json``, if any (smoke
    inputs are smaller, so no digest applies to them)."""
    path = HERE / "baseline.json"
    if smoke or not path.exists():
        return None
    digests = json.loads(path.read_text()).get("digests", {})
    return digests.get(workload, {}).get(str(seed))


def _vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reset_peak_rss() -> None:
    """Restart VmHWM from the current RSS.  Where the kernel refuses,
    VmHWM stays the process-wide peak."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def latency_summary(seconds: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples
    beyond it, in ms, with the sample count."""
    out = {"n": len(seconds)}
    if not seconds:
        return out
    out["p50_ms"] = 1000 * statistics.median(seconds)
    for q, label in ((99, "p99_ms"), (90, "p90_ms")):
        if len(seconds) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(seconds, n=100)
            out[label] = 1000 * cuts[q - 1]
            break
    return out


def measure(workload: workloads.Workload, seconds: float,
            tracer: Tracer | None) -> tuple[list[workloads.Step], list[str]]:
    """Whole cycles of steps until ``seconds`` have passed (or three
    times that, mid-cycle, for a program gone badly slow).  With a
    tracer, every other step runs traced — flipping the pattern each
    even-length cycle so every position in the cycle is sampled both
    ways — and at least one step of each kind runs.  Each step records
    the peak RSS reached while it ran."""
    steps: list[workloads.Step] = []
    errors: list[str] = []
    min_steps = 1 if tracer is None else 2
    even_cycle = workload.cycle % 2 == 0
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(workload.cycle):
            flip = i // workload.cycle if even_cycle else 0
            traced = tracer is not None and (i + flip) % 2 == 0
            _reset_peak_rss()
            try:
                step = workload.step(i, tracer.op if traced else nullcontext)
            except Exception as exc:        # counted, reported, not fatal
                errors.append(f"step {i}: {type(exc).__name__}: {exc}")
            else:
                step.traced = traced
                step.peak_mb = _vm_hwm_mb()
                steps.append(step)
            i += 1
            if i >= min_steps and time.perf_counter() - start > 3 * seconds:
                return steps, errors
        if i >= min_steps and time.perf_counter() - start >= seconds:
            return steps, errors


def e2e_metrics(steps, setups) -> dict[str, float]:
    return {
        "latency_ms_p50": 1000 * statistics.median(s.latency for s in steps),
        "throughput_rec_per_s": (sum(s.records for s in steps)
                                 / sum(s.busy for s in steps)),
        "setup_s": statistics.median(setups),
        # the median step's peak: how much a single call needs resident,
        # steady against the heap's occasional step growth across calls
        "peak_rss_mb": statistics.median(s.peak_mb for s in steps),
    }


def details(steps) -> dict[str, dict]:
    kinds: dict[str, list[float]] = {}
    for s in steps:
        for kind, seconds in s.parts.items():
            kinds.setdefault(kind, []).append(seconds)
    return {kind: latency_summary(v) for kind, v in sorted(kinds.items())}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="benchmarks/e2e/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tenfold smaller inputs, one set-up")
    p.add_argument("--detail-out", type=Path,
                   help="write the full run record (JSON) here")
    p.add_argument("--trace-out", type=Path,
                   help="write the traced spans (Chrome trace_event JSON)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = load_benchmark()["per_layer" if args.trace else "end_to_end"]
    scale = SMOKE_SCALE if args.smoke else 1.0
    with scratch_dir() as tmp:
        workload = workloads.make(args.workload, args.seed, scale, tmp)
        setups = [workload.setup()]
        while not args.smoke and (len(setups) < SETUP_REPS
                                  or sum(setups) < SETUP_BUDGET_S):
            setups.append(workload.setup())
        tracer = Tracer(entry_points()) if args.trace else None
        steps, errors = measure(workload, args.seconds, tracer)
        checks = workload.verify(
            committed_digest(args.workload, args.seed, args.smoke))

    failures = errors + checks.failures
    gates = []                  # the traced run's coverage gate
    plain = [s for s in steps if not s.traced]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "details": details(plain),
              "digest": getattr(workload, "digests", [None])[0]}
    if tracer is None:
        values = e2e_metrics(steps, setups)
    else:
        traced = [s for s in steps if s.traced]
        values = layer_metrics(tracer, len(traced))
        values.update(workload.extras())
        values["trace.overhead"] = (
            statistics.median(s.busy for s in traced)
            / statistics.median(s.busy for s in plain))
        gap, gap_s = tracer.largest_gap()
        record["largest_gap"] = {"between": gap, "seconds": gap_s}
        record["missing_entry_points"] = tracer.missing
        if values["trace.coverage"] < MIN_COVERAGE:
            gates.append(
                f"trace.coverage {values['trace.coverage']:.3f} < "
                f"{MIN_COVERAGE}; largest unattributed gap: {gap} "
                f"({gap_s:.3f} s); unwrapped: {tracer.missing or 'none'}")
        if args.trace_out is not None:
            tracer.write_chrome(args.trace_out)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": not failures and not gates,
              "attempted": len(steps) + len(errors) + checks.attempted,
              "failed": len(failures), "metrics": metrics}
    record.update(result, failures=failures, gates=gates)
    if args.detail_out is not None:
        args.detail_out.write_text(json.dumps(record, indent=1) + "\n")

    for line in failures + gates:
        print(f"FAIL {args.workload}: {line}", file=sys.stderr)
    shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                      for k, v in metrics.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {shown}")
    for kind, summary in record["details"].items():
        print(f"  {kind}: " + "  ".join(
            f"{k}={v:.4g}" for k, v in summary.items()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
