"""Tests of the end-to-end benchmark itself.

    python -m pytest benchmarks/e2e -q

Outside the tier-1 suite (``testpaths = tests``); about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from benchmarks.e2e import suite
from benchmarks.e2e.spec import MIN_COVERAGE, ROOT, WORKLOADS, load_benchmark
from benchmarks.e2e.tracer import EntryPoint, Tracer

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- BENCHMARK.json -------------------------------------------------------

def test_benchmark_json_shape():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in bench["workloads"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# -- the tracer -----------------------------------------------------------

@pytest.fixture
def fake_layers(monkeypatch):
    """A throwaway module with a two-level call chain to wrap."""
    mod = types.ModuleType("fake_layers")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.02)
        mod.inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_self_time_excludes_children_and_originals_return(fake_layers):
    original = fake_layers.outer
    tracer = Tracer([EntryPoint("fake_layers", "outer", "outer.s"),
                     EntryPoint("fake_layers", "inner", "inner.s")])
    fake_layers.outer()                 # outside an op: nothing recorded
    assert tracer.spans == []
    with tracer.op("op"):
        fake_layers.outer()
    assert fake_layers.outer is original
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "fake_layers.outer", "fake_layers.inner"]
    seconds = tracer.timer_seconds()
    assert 0.015 < seconds["outer.s"] < 0.03
    assert 0.008 < seconds["inner.s"] < 0.02
    assert tracer.coverage() > 0.95


def test_spans_from_other_threads_are_not_recorded(fake_layers):
    import threading
    tracer = Tracer([EntryPoint("fake_layers", "inner", "inner.s")])
    with tracer.op("op"):
        worker = threading.Thread(target=fake_layers.inner)
        worker.start()
        worker.join(timeout=5)
    assert not worker.is_alive()
    assert [s[0] for s in tracer.spans] == ["op"]


def test_dropping_a_wrapper_trips_the_coverage_gate():
    from repro import mafia

    from benchmarks.e2e import inputs
    from benchmarks.e2e.layers import entry_points
    from benchmarks.e2e.workloads import PARAMS

    data = inputs.batch_d15(0, scale=0.1)
    doms = inputs.domains(15)

    def coverage(eps):
        tracer = Tracer(eps)
        with tracer.op("mafia"):
            mafia(data.records, PARAMS, domains=doms)
        return tracer

    assert coverage(entry_points()).coverage() >= MIN_COVERAGE
    blind = coverage([ep for ep in entry_points()
                      if ep.attr != "stage_binned"])
    assert blind.coverage() < MIN_COVERAGE
    where, _ = blind.largest_gap()
    assert where == "pmafia.build_grid -> pmafia.stage_bitmap_index"


# -- output checks feed error_rate and the exit code ----------------------

def _run_main(capsys, *argv):
    from benchmarks.e2e import runner
    code = runner.main(list(argv))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_corrupted_digest_fails_the_run(monkeypatch, capsys):
    from benchmarks.e2e import runner
    monkeypatch.setattr(runner, "committed_digest", lambda *a: "0" * 64)
    code, result = _run_main(capsys, "--workload", "batch_d15", "--seed",
                             "0", "--seconds", "0.1", "--trace", "0",
                             "--smoke")
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_corrupted_serve_row_fails_the_run(monkeypatch, capsys):
    from repro.serve import ClusterServer
    from repro.serve.engine import BatchScores
    score = ClusterServer.score_batch

    def corrupt(self, records):
        scores = score(self, records)
        membership = scores.membership.copy()
        membership[0, 0] = ~membership[0, 0]
        return BatchScores(membership=membership, subspaces=scores.subspaces)

    monkeypatch.setattr(ClusterServer, "score_batch", corrupt)
    code, result = _run_main(capsys, "--workload", "serve_mixed", "--seed",
                             "0", "--seconds", "0.5", "--trace", "0",
                             "--smoke")
    assert code == 1
    assert result["failed"] > 0 and result["correct"] is False


def test_inputs_are_a_function_of_the_seed():
    from benchmarks.e2e import inputs
    a = inputs.batch_deep_d50(3, scale=0.01).records
    assert np.array_equal(a, inputs.batch_deep_d50(3, scale=0.01).records)
    assert not np.array_equal(a, inputs.batch_deep_d50(4, scale=0.01).records)
    s = inputs.DriftStream(3, scale=0.1)
    assert np.array_equal(s.block(7), inputs.DriftStream(3, 0.1).block(7))


# -- the commands ---------------------------------------------------------

def test_smoke_set_emits_exactly_the_declared_metrics(tmp_path):
    bench = load_benchmark()
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "benchmarks.e2e", "--smoke",
                           "--output", str(out)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert time.perf_counter() - start < 60
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in WORKLOADS:
        row = doc["workloads"][name]
        assert row["error_rate"] == 0
        assert {k: v["unit"] for k, v in row["e2e"].items()} == declared_e2e
        assert {k: v["unit"] for k, v in row["layers"].items()} \
            == declared_layers
        for metric in declared_e2e:
            assert f"{metric}=" in proc.stdout


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = load_benchmark()
    proc = subprocess.run(bench["command"] + [
        "--workload", "batch_d15", "--seed", "0", "--seconds", "1",
        "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- compare --------------------------------------------------------------

def _doc(**e2e_values):
    e2e = {name: {"median": float(np.median(v)), "q1": min(v), "q3": max(v),
                  "values": v}
           for name, v in e2e_values.items()}
    return {"workloads": {"batch_d15": {"e2e": e2e, "error_rate": 0.0}}}


def test_compare_verdicts(capsys):
    a = _doc(latency_ms_p50=[100.0, 100.5], setup_s=[1.0, 1.01],
             throughput_rec_per_s=[1000.0, 1001.0],
             peak_rss_mb=[500.0, 501.0])
    b = _doc(latency_ms_p50=[130.0, 130.5], setup_s=[0.5, 0.51],
             throughput_rec_per_s=[1010.0, 1011.0],
             peak_rss_mb=[400.0, 700.0])
    assert suite.compare(a, b) == 1
    rows = {line.split()[1]: line.split()[-2]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"latency_ms_p50": "worse", "setup_s": "better",
                    "throughput_rec_per_s": "unchanged",
                    "peak_rss_mb": "unresolved", "error_rate": "unchanged"}
    assert suite.compare(a, a) == 0


def test_compare_flags_new_failures(capsys):
    a = _doc(latency_ms_p50=[100.0, 100.0])
    b = _doc(latency_ms_p50=[100.0, 100.0])
    b["workloads"]["batch_d15"]["error_rate"] = 0.1
    assert suite.compare(a, b) == 1
    assert "error_rate" in capsys.readouterr().out
