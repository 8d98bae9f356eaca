"""Observability conformance: tracing and metrics must change nothing.

The contract of :mod:`repro.obs` is that it only *watches*: with
``MafiaParams(trace=True, metrics=True)`` the clusters, the per-level
CDU tables and the simulated virtual times must be bit-identical to a
run with observability off, on every backend — while the recorded
spans nest properly and the counters reconcile with independent ground
truth (the cost model's work tallies, the collective payload sizes,
the fault plan's injection counts).
"""

from __future__ import annotations

import importlib
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MafiaParams, mafia, pmafia, pmafia_resumable
from repro.cli import main as cli_main
from repro.datagen import ClusterSpec, generate
from repro.io.bitmap_index import grid_fingerprint
from repro.obs import (RankObs, RankObsData, RunObs, as_run_obs,
                       serve_summary, write_chrome_trace,
                       write_metrics_snapshot)
from repro.obs.manifest import MANIFEST_NAME, SCHEMA, build_manifest
from repro.obs.metrics import MetricsRegistry, merge_snapshots, metric_key
from repro.obs.trace import (COMPLETE, INSTANT, RankTracer, Span,
                             check_rank_spans, check_spans_by_rank)
from repro.parallel import FaultPlan, ReadFault, run_spmd
from repro.parallel.serial import SerialComm
from repro.parallel.simtime import payload_nbytes
from repro.stream import StreamingSession
from repro.stream import engine as stream_engine
from repro.core.pmafia import pmafia_rank
from repro.io.resilient import RetryPolicy
from tests.conftest import DOMAINS_10D

# the driver module itself: ``repro.core``'s ``pmafia`` function
# shadows it as a package attribute
pmafia_module = importlib.import_module("repro.core.pmafia")

PARAMS = MafiaParams(fine_bins=100, window_size=2, chunk_records=1000)
OBS_PARAMS = PARAMS.with_(trace=True, metrics=True)


def _signature(result):
    """Everything that must be bit-identical between observed and
    unobserved runs: lattice counts, dense unit tables, clusters."""
    sig = [result.cdus_per_level(), result.dense_per_level()]
    for t in result.trace:
        sig.append(t.dense.dims.tobytes())
        sig.append(t.dense.bins.tobytes())
        sig.append(t.dense_counts.tobytes())
    for c in result.clusters:
        sig.append((c.subspace.dims, c.units_bins.tolist(),
                    c.point_count, c.dnf))
    return sig


@st.composite
def workloads(draw):
    n_dims = draw(st.integers(3, 6))
    n_clusters = draw(st.integers(0, 2))
    specs = []
    for _ in range(n_clusters):
        k = draw(st.integers(1, min(3, n_dims)))
        dims = draw(st.lists(st.integers(0, n_dims - 1), min_size=k,
                             max_size=k, unique=True))
        extents = []
        for _ in dims:
            lo = draw(st.integers(5, 70))
            width = draw(st.integers(8, 20))
            extents.append((float(lo), float(lo + width)))
        specs.append(ClusterSpec.box(sorted(dims), extents))
    n_records = draw(st.integers(1500, 4000))
    noise = draw(st.floats(0.0, 0.3))
    seed = draw(st.integers(0, 10_000))
    return generate(n_records, n_dims, specs, noise_fraction=noise,
                    seed=seed)


class TestConformanceProperty:
    """Hypothesis sweep: observability is invisible on every backend."""

    @given(workloads())
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_observed_runs_bit_identical(self, dataset):
        domains = np.array([[0.0, 100.0]] * dataset.n_dims)
        baseline = mafia(dataset.records, PARAMS, domains=domains)
        assert baseline.obs is None  # zero-cost path carries nothing

        observed = mafia(dataset.records, OBS_PARAMS, domains=domains)
        assert _signature(observed) == _signature(baseline)
        assert isinstance(observed.obs, RankObsData)
        assert observed.obs.check() == []

        threaded = pmafia(dataset.records, 2, OBS_PARAMS, domains=domains)
        assert _signature(threaded.result) == _signature(baseline)
        assert isinstance(threaded.obs, RunObs)
        assert len(threaded.obs.ranks) == 2
        assert threaded.obs.check() == []

    @given(workloads())
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_sim_virtual_times_bit_identical(self, dataset):
        domains = np.array([[0.0, 100.0]] * dataset.n_dims)
        off = pmafia(dataset.records, 2, PARAMS, backend="sim",
                     domains=domains)
        on = pmafia(dataset.records, 2, OBS_PARAMS, backend="sim",
                    domains=domains)
        assert on.rank_times == off.rank_times
        assert on.makespan == off.makespan
        assert _signature(on.result) == _signature(off.result)
        # the span buffer carries the same virtual clock the backend ran
        for rank_obs, vend in zip(on.obs.ranks, on.rank_times):
            run_span = [s for s in rank_obs.spans if s.cat == "run"]
            assert len(run_span) == 1
            assert run_span[0].vend == pytest.approx(vend)

    def test_process_backend_bit_identical(self, one_cluster_dataset):
        """The process backend pickles results (and their obs exports)
        back to the parent; both must survive unchanged."""
        baseline = pmafia(one_cluster_dataset.records, 2, PARAMS,
                          backend="process", domains=DOMAINS_10D)
        observed = pmafia(one_cluster_dataset.records, 2, OBS_PARAMS,
                          backend="process", domains=DOMAINS_10D)
        assert _signature(observed.result) == _signature(baseline.result)
        assert len(observed.obs.ranks) == 2
        assert observed.obs.check() == []
        assert observed.obs.merged_metrics()["total"]


class TestSpanIntegrity:
    def test_run_spans_well_formed(self, one_cluster_dataset, small_params):
        run = pmafia(one_cluster_dataset.records, 3,
                     small_params.with_(trace=True, metrics=True),
                     domains=DOMAINS_10D)
        spans = run.obs.merged_spans()
        assert check_spans_by_rank(spans) == []
        # complete spans only — orphan ends are impossible by
        # construction, so every interval is fully bracketed
        assert {s.kind for s in spans} <= {COMPLETE, INSTANT}
        assert all(s.begin <= s.end for s in spans)
        # each rank ran the whole driver exactly once under a run span
        for rank in range(3):
            runs = [s for s in spans if s.rank == rank and s.cat == "run"]
            assert len(runs) == 1 and runs[0].ok
        # the driver phases all appear
        names = {s.name for s in spans if s.cat == "phase"}
        assert {"grid", "population", "assembly"} <= names

    @staticmethod
    def _slow_reports(monkeypatch, module):
        """Make ``module``'s report masks take 50 ms; returns the list of
        thread names that called them."""
        real = module.registrations_for_report
        callers = []

        def slow(*args):
            callers.append(threading.current_thread().name)
            time.sleep(0.05)
            return real(*args)

        monkeypatch.setattr(module, "registrations_for_report", slow)
        return callers

    def test_report_masks_timed_in_assembly_on_rank_zero(
            self, monkeypatch, one_cluster_dataset, small_params):
        """The report masks are assembly work: they run inside the
        ``assembly`` phase span, on the root rank alone."""
        callers = self._slow_reports(monkeypatch, pmafia_module)
        run = pmafia(one_cluster_dataset.records, 2,
                     small_params.with_(trace=True), backend="thread",
                     domains=DOMAINS_10D)
        assert callers == ["spmd-rank-0"]
        assert run.obs.ranks[0].phase_seconds()["assembly"] >= 0.05

    def test_stream_report_masks_timed_in_assembly(
            self, monkeypatch, one_cluster_dataset, small_params):
        callers = self._slow_reports(monkeypatch, stream_engine)
        with StreamingSession(small_params.with_(trace=True),
                              domains=DOMAINS_10D) as session:
            session.ingest(one_cluster_dataset.records)
            snap = session.snapshot()
        assert len(callers) == 1
        assert snap.obs.phase_seconds()["assembly"] >= 0.05

    def test_checker_flags_backwards_clock(self):
        good = Span(name="a", cat="task", rank=0, begin=1.0, end=2.0,
                    vbegin=0.0, vend=0.0, depth=0)
        bad = Span(name="b", cat="task", rank=0, begin=0.5, end=1.5,
                   vbegin=0.0, vend=0.0, depth=0)
        assert check_rank_spans([good]) == []
        problems = check_rank_spans([good, bad])
        assert any("backwards" in p for p in problems)

    def test_checker_flags_inverted_interval(self):
        bad = Span(name="a", cat="task", rank=0, begin=2.0, end=1.0,
                   vbegin=3.0, vend=1.0, depth=0)
        problems = check_rank_spans([bad])
        assert any("begin" in p for p in problems)
        assert any("vbegin" in p for p in problems)

    def test_checker_flags_straddling_spans(self):
        outer = Span(name="outer", cat="task", rank=0, begin=0.0, end=2.0,
                     vbegin=0.0, vend=0.0, depth=0)
        straddler = Span(name="straddler", cat="task", rank=0, begin=1.0,
                         end=3.0, vbegin=0.0, vend=0.0, depth=1)
        problems = check_rank_spans([straddler, outer])
        assert any("straddles" in p for p in problems)

    def test_checker_rejects_mixed_ranks(self):
        a = Span(name="a", cat="task", rank=0, begin=0.0, end=1.0,
                 vbegin=0.0, vend=0.0, depth=0)
        b = Span(name="b", cat="task", rank=1, begin=0.0, end=1.0,
                 vbegin=0.0, vend=0.0, depth=0)
        assert any("multiple ranks" in p for p in check_rank_spans([a, b]))
        assert check_spans_by_rank([a, b]) == []

    def test_error_spans_tagged_not_orphaned(self):
        tracer = RankTracer(0)
        with pytest.raises(ValueError):
            with tracer.span("doomed", cat="task"):
                raise ValueError("boom")
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert not span.ok
        assert span.attrs["error"] == "ValueError"
        assert span.begin <= span.end


class TestMetricsAgainstGroundTruth:
    def test_pairs_examined_matches_cost_model(self, one_cluster_dataset,
                                               small_params):
        """join + dedup pairs must equal the simulated backend's
        ``unit_pair_ops`` work tally, per rank and in total."""
        run = pmafia(one_cluster_dataset.records, 2,
                     small_params.with_(trace=True, metrics=True),
                     backend="sim", domains=DOMAINS_10D)
        total = 0.0
        for rank_obs, counters in zip(run.obs.ranks, run.counters):
            m = rank_obs.metrics
            rank_pairs = (m["join.pairs_examined"]["value"]
                          + m["dedup.pairs_examined"]["value"])
            assert rank_pairs == counters.unit_pair_ops
            total += rank_pairs
        assert total == sum(c.unit_pair_ops for c in run.counters)

    def test_pairs_examined_closed_form_serial(self, one_cluster_dataset,
                                               small_params):
        """On one rank the join is charged the paper's pairwise sweep:
        ``ndu*(ndu+1)/2`` pairs per joined level and ``n_cdus_raw``
        dedup comparisons per level >= 2 — both recomputable from the
        result's own trace."""
        result = mafia(one_cluster_dataset.records,
                       small_params.with_(metrics=True),
                       domains=DOMAINS_10D)
        m = result.obs.metrics
        want_join = sum(t.n_dense * (t.n_dense + 1) // 2
                        for t in result.trace if t.n_dense > 0)
        want_dedup = sum(t.n_cdus_raw for t in result.trace
                         if t.level >= 2)
        assert m["join.pairs_examined"]["value"] == want_join
        assert m["dedup.pairs_examined"]["value"] == want_dedup

    def test_collective_bytes_match_payload_sizes(self):
        """Every collective's byte counter equals ``payload_nbytes`` of
        what was actually sent — checked with a hand-built SPMD program
        around known payloads."""
        arr = np.arange(6, dtype=np.float64)
        blob = b"x" * 123

        def prog(comm):
            obs = RankObs(comm.rank, clock=comm.time)
            with obs.activate(comm):
                comm.allreduce(arr)
                comm.bcast(blob if comm.rank == 0 else None, root=0)
                comm.barrier()
            return obs.export()

        ranks = run_spmd(prog, 2)
        for r in ranks:
            m = r.value.metrics
            key = metric_key("comm.bytes", {"op": "allreduce"})
            assert m[key]["value"] == payload_nbytes(arr)
            assert m[metric_key("comm.collectives",
                                {"op": "allreduce"})]["value"] == 1
            assert m[metric_key("comm.collectives",
                                {"op": "barrier"})]["value"] == 1
            hist = m[metric_key("comm.payload_nbytes",
                                {"op": "allreduce"})]
            assert hist["kind"] == "histogram"
            assert hist["count"] == 1
            assert hist["sum"] == payload_nbytes(arr)
        # bcast counts the broadcast payload on the root
        root = ranks[0].value.metrics
        key = metric_key("comm.bytes", {"op": "bcast"})
        assert root[key]["value"] == payload_nbytes(blob)

    def test_nested_collectives_count_once(self):
        """An allreduce is implemented as allgather (itself gather +
        bcast); only the outermost call may be recorded, or counts and
        spans would triple."""
        def prog(comm):
            obs = RankObs(comm.rank, clock=comm.time)
            with obs.activate(comm):
                comm.allreduce(np.ones(4))
            return obs.export()

        ranks = run_spmd(prog, 2)
        for r in ranks:
            ops = {k: v["value"] for k, v in r.value.metrics.items()
                   if k.startswith("comm.collectives")}
            assert ops == {metric_key("comm.collectives",
                                      {"op": "allreduce"}): 1}
            comm_spans = [s for s in r.value.spans if s.cat == "comm"]
            assert [s.name for s in comm_spans] == ["allreduce"]

    def test_retry_counter_matches_fault_plan(self, one_cluster_dataset,
                                              small_params):
        """Two injected transient read errors -> exactly two recorded
        retries and two recorded fault events."""
        plan = FaultPlan(read_faults=(
            ReadFault(rank=0, site="histogram", chunk=0, errors=2),))
        policy = RetryPolicy(max_attempts=3, base_delay=0.0,
                             sleep=lambda _s: None)
        ranks = run_spmd(pmafia_rank, 1, backend="serial", faults=plan,
                         args=(one_cluster_dataset.records,
                               small_params.with_(trace=True, metrics=True),
                               DOMAINS_10D),
                         kwargs={"retry": policy})
        m = ranks[0].value.obs.metrics
        assert m["io.read_retries"]["value"] == 2
        key = metric_key("faults.injected", {"kind": "read_error"})
        assert m[key]["value"] == 2
        # the injected faults are visible on the same timeline
        faults = [s for s in ranks[0].value.obs.spans if s.cat == "fault"]
        assert len(faults) == 2
        assert all(s.name == "fault.read_error" for s in faults)

    def test_io_counters_cover_every_record(self, one_cluster_dataset,
                                            small_params):
        """Each level pass re-reads all N local records; the records
        counter must be an exact multiple of N."""
        result = mafia(one_cluster_dataset.records,
                       small_params.with_(metrics=True),
                       domains=DOMAINS_10D)
        n = len(one_cluster_dataset.records)
        m = result.obs.metrics
        read = sum(v["value"] for k, v in m.items()
                   if k.startswith("io.records_read"))
        assert read > 0 and read % n == 0
        levels = len(result.trace)
        # one pass per level, served from the bitmap index (which
        # replays a record pass's per-chunk accounting exactly)
        key = metric_key("io.records_read", {"kind": "indexed"})
        assert m[key]["value"] == levels * n

    def test_and_ops_counts_distinct_prefixes(self, one_cluster_dataset,
                                              small_params, monkeypatch):
        """``index.and_ops`` equals an independent count over the CDU
        tables the level passes counted: per level k >= 2, one AND per
        distinct j-prefix of the (dim, bin) tokens, j = 2..k."""
        from repro.core import population

        tables = []
        engine = population.count_units

        def spy(index, units, *args, **kwargs):
            tables.append(np.stack([units.dims, units.bins], axis=-1))
            return engine(index, units, *args, **kwargs)

        monkeypatch.setattr(population, "count_units", spy)
        result = mafia(one_cluster_dataset.records,
                       small_params.with_(metrics=True),
                       domains=DOMAINS_10D)
        expected = 0
        for tokens in tables:
            k = tokens.shape[1]
            for j in range(2, k + 1):
                expected += len({row[:j].tobytes() for row in tokens})
        assert any(t.shape[1] >= 3 for t in tables)
        assert result.obs.metrics["index.and_ops"]["value"] == expected

    def test_lattice_counters_match_trace(self, one_cluster_dataset,
                                          small_params):
        result = mafia(one_cluster_dataset.records,
                       small_params.with_(metrics=True),
                       domains=DOMAINS_10D)
        m = result.obs.metrics
        for t in result.trace:
            label = {"level": str(t.level)}
            assert m[metric_key("lattice.cdus_raw",
                                label)]["value"] == t.n_cdus_raw
            assert m[metric_key("lattice.cdus", label)]["value"] == t.n_cdus
            assert m[metric_key("lattice.dense", label)]["value"] == t.n_dense


class TestMetricsRegistry:
    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1)
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x", a=1)

    def test_snapshot_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        a.gauge("g").set(7)
        b.gauge("g").set(5)
        a.histogram("h").observe(2)
        b.histogram("h").observe(100)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["c"]["value"] == 7          # counters sum
        assert merged["g"]["value"] == 7          # gauges keep the max
        assert merged["h"]["count"] == 2
        assert merged["h"]["sum"] == 102
        assert merged["h"]["min"] == 2
        assert merged["h"]["max"] == 100

    def test_merge_rejects_kind_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        b.gauge("x").set(1)
        with pytest.raises(TypeError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_snapshot_is_json_and_pickle_clean(self):
        import pickle

        reg = MetricsRegistry()
        reg.counter("n", kind="records").inc(np.int64(5))
        reg.histogram("h").observe(np.float64(3.0))
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == pickle.loads(
            pickle.dumps(snap))
        key = metric_key("n", {"kind": "records"})
        assert type(snap[key]["value"]) is int


class TestExports:
    @pytest.fixture()
    def traced_run(self, one_cluster_dataset, small_params):
        return pmafia(one_cluster_dataset.records, 2,
                      small_params.with_(trace=True, metrics=True),
                      backend="sim", domains=DOMAINS_10D)

    def test_chrome_trace_file_is_valid(self, tmp_path, traced_run):
        path = write_chrome_trace(tmp_path / "trace.json",
                                  traced_run.obs.merged_spans())
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert {e["ph"] for e in events} <= {"X", "i", "M"}
        named = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in named} == {"rank 0", "rank 1"}
        for e in events:
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
                assert "vbegin_s" in e["args"]
        # every span made it across, plus one metadata record per rank
        assert len(events) == len(traced_run.obs.merged_spans()) + 2

    def test_metrics_snapshot_reconciles(self, tmp_path, traced_run):
        path = write_metrics_snapshot(tmp_path / "metrics.json",
                                      traced_run)
        doc = json.loads(path.read_text())
        assert sorted(doc["per_rank"]) == ["0", "1"]
        for key, entry in doc["total"].items():
            if entry["kind"] != "counter":
                continue
            assert entry["value"] == sum(
                doc["per_rank"][r][key]["value"]
                for r in doc["per_rank"] if key in doc["per_rank"][r])

    def test_metrics_snapshot_requires_data(self, tmp_path):
        with pytest.raises(ValueError, match="no observability data"):
            write_metrics_snapshot(tmp_path / "m.json", None)

    def test_as_run_obs_coercions(self, traced_run):
        assert as_run_obs(None) is None
        assert as_run_obs(traced_run) is traced_run.obs
        assert as_run_obs(traced_run.obs) is traced_run.obs
        single = as_run_obs(traced_run.result)
        assert isinstance(single, RunObs)
        assert len(single.ranks) == 1

    def test_manifest_contents(self, traced_run):
        result = traced_run.result
        manifest = build_manifest(result,
                                  phases=traced_run.obs.phase_seconds(),
                                  nprocs=2,
                                  virtual_seconds=traced_run.makespan)
        assert manifest["schema"] == SCHEMA == "pmafia-run-manifest/2"
        assert "join_strategies" not in manifest
        assert manifest["grid_fingerprint"] == \
            grid_fingerprint(result.grid).hex()
        assert manifest["n_records"] == result.n_records
        assert manifest["nprocs"] == 2
        assert manifest["virtual_seconds"] == traced_run.makespan
        assert [lv["level"] for lv in manifest["levels"]] == \
            [t.level for t in result.trace]
        assert manifest["params"]["trace"] is True
        json.dumps(manifest)  # must be directly serialisable

    def test_resumable_run_writes_manifest(self, tmp_path,
                                           one_cluster_dataset,
                                           small_params):
        run = pmafia_resumable(one_cluster_dataset.records, 2,
                               small_params.with_(trace=True, metrics=True),
                               checkpoint_dir=tmp_path, domains=DOMAINS_10D)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["schema"] == SCHEMA
        assert manifest["n_records"] == run.result.n_records
        assert manifest["levels"] == [
            {"level": t.level, "n_cdus_raw": t.n_cdus_raw,
             "n_cdus": t.n_cdus, "n_dense": t.n_dense}
            for t in run.result.trace]


class TestCliFlags:
    @pytest.fixture()
    def npy_data(self, tmp_path, one_cluster_dataset):
        path = tmp_path / "data.npy"
        np.save(path, one_cluster_dataset.records[:2000])
        return path

    def test_trace_and_metrics_out(self, tmp_path, npy_data, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        rc = cli_main(["run", str(npy_data), "--fine-bins", "100",
                       "--window", "2", "--chunk", "1000",
                       "--trace-out", str(trace_path),
                       "--metrics-out", str(metrics_path)])
        assert rc == 0
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        metrics = json.loads(metrics_path.read_text())
        assert metrics["total"]
        manifest = json.loads(
            (trace_path.parent / MANIFEST_NAME).read_text())
        assert manifest["schema"] == SCHEMA
        assert manifest["nprocs"] == 1

    def test_flags_rejected_for_clique(self, npy_data, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["run", str(npy_data), "--algorithm", "clique",
                      "--trace-out", str(tmp_path / "t.json")])


class TestServeObservability:
    """The serving engine meters through the same RankObs: serve.*
    metrics and score_batch spans land beside a run's own, and the
    ``obs=None`` default stays the zero-cost path."""

    @pytest.fixture()
    def server_parts(self):
        from repro.serve import ClusterServer, compile_clusters
        from repro.types import Cluster, DNFTerm, Subspace
        sub = Subspace((0, 1))
        cluster = Cluster(
            subspace=sub, units_bins=np.zeros((1, 2), dtype=np.int64),
            dnf=(DNFTerm(subspace=sub,
                         intervals=((0.2, 0.6), (0.1, 0.9))),),
            point_count=1)
        model = compile_clusters([cluster], ndim=2)
        records = np.random.default_rng(0).uniform(0, 1, (200, 2))
        return ClusterServer, model, records

    def test_metrics_and_spans_recorded(self, server_parts):
        ClusterServer, model, records = server_parts
        obs = RankObs(0)
        server = ClusterServer(model, obs=obs)
        server.score_batch(records)
        server.score_batch(records)  # second pass is cache-warm
        snap = obs.metrics.snapshot()
        assert snap["serve.batches"]["value"] == 2
        assert snap["serve.records"]["value"] == 400
        assert snap["serve.cache_hits"]["value"] + \
            snap["serve.cache_misses"]["value"] == 400
        assert snap["serve.batch_latency_us"]["count"] == 2
        spans = [s for s in obs.tracer.spans if s.cat == "serve"]
        assert len(spans) == 2
        assert spans[0].name == "score_batch"
        assert spans[0].attrs["n_records"] == 200

    def test_serve_spans_export_to_chrome_trace(self, tmp_path,
                                                server_parts):
        ClusterServer, model, records = server_parts
        obs = RankObs(0)
        ClusterServer(model, obs=obs).score_batch(records)
        path = write_chrome_trace(tmp_path / "t.json",
                                  obs.export().spans)
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("cat") == "serve"
                   and e.get("name") == "score_batch" for e in events)

    def test_obs_none_records_nothing(self, server_parts):
        ClusterServer, model, records = server_parts
        server = ClusterServer(model)
        assert server._obs is None
        server.score_batch(records)  # must not touch any observer

    def test_metrics_off_half_is_guarded(self, server_parts):
        ClusterServer, model, records = server_parts
        obs = RankObs(0, trace=True, metrics=False)
        ClusterServer(model, obs=obs).score_batch(records)
        assert obs.metrics is None  # serve_batch degraded to a no-op
        assert any(s.cat == "serve" for s in obs.tracer.spans)
        obs2 = RankObs(0, trace=False, metrics=True)
        ClusterServer(model, obs=obs2).score_batch(records)
        assert obs2.tracer is None
        assert obs2.metrics.snapshot()["serve.batches"]["value"] == 1

    def test_serve_summary_shapes(self, server_parts):
        ClusterServer, model, records = server_parts
        assert serve_summary(None) is None
        obs = RankObs(0)
        assert serve_summary(obs) is None  # nothing served yet
        ClusterServer(model, obs=obs).score_batch(records)
        summary = serve_summary(obs)
        assert summary["batches"] == 1
        assert summary["records"] == 200
        assert summary["latency_us"]["count"] == 1
        json.dumps(summary)

    def test_manifest_serve_section_is_optional(self, one_cluster_dataset):
        result = mafia(one_cluster_dataset.records,
                       OBS_PARAMS, domains=DOMAINS_10D)
        phases = result.obs.phase_seconds()
        without = build_manifest(result, phases=phases)
        assert "serve" not in without
        with_serve = build_manifest(result, phases=phases,
                                    serve={"batches": 1})
        assert with_serve["serve"] == {"batches": 1}
        # the serve key is the only difference
        with_serve.pop("serve")
        assert with_serve == without


class TestZeroCostDisabled:
    def test_disabled_run_carries_nothing(self, one_cluster_dataset,
                                          small_params):
        result = mafia(one_cluster_dataset.records, small_params,
                       domains=DOMAINS_10D)
        assert result.obs is None
        run = pmafia(one_cluster_dataset.records, 2, small_params,
                     domains=DOMAINS_10D)
        assert run.obs is None

    def test_comm_observer_slot_restored(self):
        comm = SerialComm()
        assert comm.obs is None
        obs = RankObs(0)
        with obs.activate(comm):
            assert comm.obs is obs
        assert comm.obs is None

    def test_trace_only_and_metrics_only(self, one_cluster_dataset,
                                         small_params):
        trace_only = mafia(one_cluster_dataset.records,
                           small_params.with_(trace=True),
                           domains=DOMAINS_10D)
        assert trace_only.obs.spans and trace_only.obs.metrics is None
        metrics_only = mafia(one_cluster_dataset.records,
                             small_params.with_(metrics=True),
                             domains=DOMAINS_10D)
        assert metrics_only.obs.metrics and metrics_only.obs.spans == ()
