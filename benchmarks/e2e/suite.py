"""A full benchmark set, comparison of two sets, and the baseline file.

One set runs every workload ``ROUNDS`` times untraced — round-robin, so
slow drift of the machine hits every workload alike — and once traced,
each run in a fresh interpreter (``run.py``) so peak RSS is clean and
no heap carries over between workloads.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from .layers import LAYERS
from .spec import HERE, ROOT, WORKLOADS, load_benchmark, scratch_dir

RUN = HERE / "run.py"
SCHEMA = "pmafia-benchmark/1"
RUN_SCHEMA = "pmafia-benchmark-run/1"
#: untraced rounds per set; their medians and quartiles are gated
ROUNDS = 2
#: a child that has not finished by then is killed and counted failed
CHILD_TIMEOUT_S = 900


def machine_info() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpus": os.cpu_count()}


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, out_dir: Path, tag: str) -> dict:
    """One ``run.py`` invocation; its full record, or a failed stub."""
    detail = out_dir / f"{workload}.{tag}.json"
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--detail-out", str(detail)]
    if trace:
        cmd += ["--trace-out", str(out_dir / f"{workload}.chrome.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        error = proc.stderr.strip().splitlines()[-5:] if proc.returncode \
            else []
    except subprocess.TimeoutExpired:
        error = [f"timed out after {CHILD_TIMEOUT_S} s"]
    if detail.exists():
        return json.loads(detail.read_text())
    return {"workload": workload, "correct": False, "attempted": 1,
            "failed": 1, "metrics": {}, "failures": error or ["no result"]}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarize(plain: list[dict], traced: dict) -> dict:
    """One workload's row: e2e medians/quartiles over the untraced runs,
    per-layer values from the traced run, failures from all of them."""
    runs = plain + [traced]
    failures = [f for r in runs for f in r.get("failures", [])]
    digests = {r.get("digest") for r in runs}
    if len(digests) > 1:
        failures.append(f"digests differ between runs: {sorted(digests)}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + (len(digests) > 1)
    e2e = {}
    for m in load_benchmark()["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in plain
                  if m["name"] in r["metrics"]]
        if values:
            e2e[m["name"]] = dict(quartiles(values), unit=m["unit"])
    return {
        "e2e": e2e,
        "layers": traced.get("metrics", {}),
        "details": [r.get("details", {}) for r in plain],
        "largest_gap": traced.get("largest_gap"),
        "digest": plain[0].get("digest") if plain else None,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / max(1, attempted),
        "failures": failures,
        "gates": traced.get("gates", []),
    }


def run_set(seed: int, smoke: bool, trace_out: Path | None = None,
            log=print) -> dict:
    """``ROUNDS`` untraced rounds and one traced round of every workload
    (one 1 s round of each with ``smoke``)."""
    seconds = 1.0 if smoke else load_benchmark()["run_seconds"]
    rounds = 1 if smoke else ROUNDS
    plain: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    traced: dict[str, dict] = {}
    with scratch_dir() as out:
        for r in range(rounds):
            for w in WORKLOADS:
                log(f"[round {r + 1}/{rounds}] {w} ...")
                plain[w].append(run_child(w, seed, seconds, False, smoke,
                                          out, f"round{r}"))
        for w in WORKLOADS:
            log(f"[traced] {w} ...")
            traced[w] = run_child(w, seed, seconds, True, smoke, out,
                                  "traced")
        if trace_out is not None:
            merge_chrome([(w, out / f"{w}.chrome.json") for w in WORKLOADS],
                         trace_out)
    doc = {"schema": RUN_SCHEMA, "seed": seed, "seconds": seconds,
           "rounds": rounds, "smoke": smoke, "machine": machine_info(),
           "workloads": {w: summarize(plain[w], traced[w])
                         for w in WORKLOADS}}
    doc["problems"] = check_set(doc)
    return doc


def merge_chrome(parts: list[tuple[str, Path]], dest: Path) -> None:
    """One Chrome trace with a process per workload."""
    events = []
    for pid, (workload, path) in enumerate(parts):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": workload}})
        if path.exists():
            for ev in json.loads(path.read_text())["traceEvents"]:
                events.append(dict(ev, pid=pid))
    dest.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def _fmt(value: float, unit: str) -> str:
    return f"{value:.6g} {unit}"


def print_set(doc: dict) -> None:
    """Every metric by name with its unit, one row per workload — the
    end-to-end table first, then the per-layer table."""
    for name, row in doc["workloads"].items():
        cells = [f"{m}={_fmt(v['median'], v['unit'])}"
                 for m, v in row["e2e"].items()]
        cells.append(f"error_rate={row['error_rate']:.6g} fraction")
        print(f"{name:<15} " + "  ".join(cells))
    print()
    for name, row in doc["workloads"].items():
        cells = [f"{m}={_fmt(v['value'], v['unit'])}"
                 for m, v in row["layers"].items()]
        print(f"{name:<15} " + "  ".join(cells))
    print("\nper call kind, ungated (first round):")
    for name, row in doc["workloads"].items():
        kinds = row["details"][0] if row["details"] else {}
        cells = [f"{kind}: " + " ".join(f"{k}={v:.4g}"
                                        for k, v in summary.items())
                 for kind, summary in kinds.items()]
        print(f"{name:<15} " + "  ".join(cells))
    for name, row in doc["workloads"].items():
        for failure in row["failures"]:
            print(f"FAIL {name}: {failure}")


def check_set(doc: dict) -> list[str]:
    """The set-level gates: no failed output, and the traced run's
    coverage gate (which names the largest unattributed gap)."""
    problems = []
    for name, row in doc["workloads"].items():
        if row["error_rate"] > 0:
            problems.append(f"{name}: error_rate {row['error_rate']:.4g}")
        problems += [f"{name}: {gate}" for gate in row["gates"]]
    return problems


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[float, str]:
    """``(delta, verdict)`` of set ``b`` against set ``a`` for one metric.

    ``unresolved`` when either side's quartile spread exceeds the bound,
    unless every value of one side beats every value of the other."""
    delta = (b["median"] - a["median"]) / a["median"]
    worse_by = delta if better == "lower" else -delta
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        sign = 1 if better == "lower" else -1
        if max(sign * v for v in b["values"]) < min(sign * v
                                                     for v in a["values"]):
            return delta, "better"
        if min(sign * v for v in b["values"]) > max(sign * v
                                                    for v in a["values"]):
            return delta, "worse"
        return delta, "unresolved"
    if worse_by > bound:
        return delta, "worse"
    if worse_by < -bound:
        return delta, "better"
    return delta, "unchanged"


def compare(a_doc: dict, b_doc: dict) -> int:
    """Print one row per (workload, metric); 1 when any row is worse."""
    bench = load_benchmark()
    worse = 0
    print(f"{'workload':<15} {'metric':<21} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'delta':>8}  verdict")
    for name, a_row in a_doc["workloads"].items():
        b_row = b_doc["workloads"].get(name)
        if b_row is None:
            continue
        rows = []
        for m in bench["end_to_end"]:
            a, b = a_row["e2e"].get(m["name"]), b_row["e2e"].get(m["name"])
            if a is None or b is None:
                continue
            delta, v = verdict(a, b, m["bound"], m["better"])
            rows.append((m["name"], a, b, delta, v, m["unit"]))
        err = "worse" if b_row["error_rate"] > a_row["error_rate"] \
            else "unchanged"
        for metric, a, b, delta, v, unit in rows:
            worse += v == "worse"
            print(f"{name:<15} {metric:<21} "
                  f"{a['median']:>12.5g} [{a['q1']:.5g}, {a['q3']:.5g}] "
                  f"{b['median']:>12.5g} [{b['q1']:.5g}, {b['q3']:.5g}] "
                  f"{100 * delta:>+7.2f}%  {v} ({unit})")
        worse += err == "worse"
        print(f"{name:<15} {'error_rate':<21} {a_row['error_rate']:>30.4g} "
              f"{b_row['error_rate']:>30.4g} {'':>8}  {err} (fraction)")
    return 1 if worse else 0


def baseline(docs: list[dict]) -> dict:
    """The committed baseline: medians and quartiles of each set, the
    digests of every seed run, machine info and the layer map."""
    digests: dict[str, dict[str, str]] = {}
    for doc in docs:
        for name, row in doc["workloads"].items():
            if name.startswith("batch") and row["digest"]:
                digests.setdefault(name, {})[str(doc["seed"])] = row["digest"]
    return {
        "schema": SCHEMA,
        "digests": digests,
        "layers": {layer: {"metrics": list(metrics), "should_move": list(moves)}
                   for layer, (metrics, moves) in LAYERS.items()},
        "sets": [{
            "seed": doc["seed"], "seconds": doc["seconds"],
            "rounds": doc["rounds"], "machine": doc["machine"],
            "e2e": {name: {m: {k: v[k] for k in ("median", "q1", "q3")}
                           for m, v in row["e2e"].items()}
                    for name, row in doc["workloads"].items()},
        } for doc in docs],
    }
