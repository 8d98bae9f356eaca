"""Tests for the compiled serving engine (repro.serve).

The load-bearing property: the packed-interval evaluator is
*bit-identical* to direct DNF interval evaluation — ``lo <= x < hi``
per condition, OR across terms — for every record, including values
exactly on bin edges and NaNs.  The hypothesis suite drives that over
random grids and records; the rest covers the server's cache paths,
the versioned model export and the CLI front door.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mafia
from repro.cli import main as cli_main
from repro.core.dnf import term_arrays
from repro.core.export import (model_from_dict, model_from_json,
                               model_to_dict, model_to_json,
                               result_to_json)
from repro.errors import DataError
from repro.serve import (BatchScores, ClusterServer, CompiledModel,
                         SignatureCache, compile_clusters, compile_result,
                         score_batch_naive)
from repro.types import Cluster, DNFTerm, Subspace
from tests.conftest import DOMAINS_10D

DATA = Path(__file__).parent / "data"


def make_cluster(dims, terms_intervals):
    """A Cluster from ``[(intervals per dim), ...]`` term specs."""
    sub = Subspace(tuple(dims))
    dnf = tuple(DNFTerm(subspace=sub, intervals=tuple(ivs))
                for ivs in terms_intervals)
    return Cluster(subspace=sub,
                   units_bins=np.zeros((1, len(dims)), dtype=np.int64),
                   dnf=dnf, point_count=1)


def reference_membership(clusters, records):
    """Ground truth straight off ``Cluster.contains`` — scalar Python
    comparisons, no NumPy vectorisation anywhere."""
    return np.array([[c.contains(rec) for c in clusters]
                     for rec in records], dtype=bool)


@pytest.fixture(scope="module")
def clustered(one_cluster_dataset, small_params):
    result = mafia(one_cluster_dataset.records, small_params,
                   domains=DOMAINS_10D)
    assert result.clusters
    return result, one_cluster_dataset.records


# -- hypothesis: bit-identity over random grids and records -------------

@st.composite
def serve_problem(draw):
    """Random clusters over a shared edge pool plus records that mix
    uniform values with values *exactly on* those edges (and the odd
    NaN), so boundary semantics are exercised every example."""
    ndim = draw(st.integers(2, 6))
    pool = sorted(draw(st.sets(
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        min_size=4, max_size=9)))
    clusters = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, min(3, ndim)))
        dims = sorted(draw(st.sets(st.integers(0, ndim - 1),
                                   min_size=k, max_size=k)))
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            ivs = []
            for _ in dims:
                lo, hi = sorted(draw(st.sets(st.sampled_from(pool),
                                             min_size=2, max_size=2)))
                ivs.append((lo, hi))
            terms.append(ivs)
        clusters.append(make_cluster(dims, terms))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(seed)
    records = rng.uniform(0.0, 1.0, size=(n, ndim))
    # overlay exact edge values on ~a third of the cells, NaN on a few
    edge_at = rng.random(records.shape) < 0.35
    records[edge_at] = rng.choice(pool, size=int(edge_at.sum()))
    records[rng.random(records.shape) < 0.02] = np.nan
    return ndim, clusters, records


@settings(max_examples=60, deadline=None)
@given(serve_problem())
def test_compiled_bit_identical_to_direct_dnf(problem):
    ndim, clusters, records = problem
    model = compile_clusters(clusters, ndim)
    compiled = model.score(records)
    np.testing.assert_array_equal(compiled,
                                  score_batch_naive(clusters, records))
    np.testing.assert_array_equal(compiled,
                                  reference_membership(clusters, records))


@settings(max_examples=25, deadline=None)
@given(serve_problem())
def test_server_cache_paths_bit_identical(problem):
    ndim, clusters, records = problem
    model = compile_clusters(clusters, ndim)
    truth = model.score(records)
    # always-probe, always-bypass and cache-off must agree; a second
    # pass over the same records (now cache-warm) must too
    probing = ClusterServer(model, bypass_fraction=1.0)
    bypassing = ClusterServer(model, bypass_fraction=0.0)
    uncached = ClusterServer(model, cache_size=0)
    for server in (probing, bypassing, uncached):
        np.testing.assert_array_equal(
            server.score_batch(records).membership, truth)
        np.testing.assert_array_equal(
            server.score_batch(records).membership, truth)
    assert probing.cache.hits > 0
    assert bypassing.stats()["cache_bypasses"] == 2


# -- deterministic edge semantics ---------------------------------------

class TestBoundarySemantics:
    def test_record_exactly_on_edges(self):
        cluster = make_cluster([0], [[(0.25, 0.75)]])
        model = compile_clusters([cluster], ndim=1)
        records = np.array([[0.25], [0.75], [np.nextafter(0.25, 0)],
                            [np.nextafter(0.75, 0)], [0.5]])
        member = model.score(records).ravel()
        # half-open [lo, hi): lo is in, hi is out
        assert member.tolist() == [True, False, False, True, True]

    def test_nan_is_never_a_member(self):
        cluster = make_cluster([0, 1], [[(0.0, 1.0), (0.0, 1.0)]])
        model = compile_clusters([cluster], ndim=2)
        records = np.array([[0.5, np.nan], [np.nan, 0.5],
                            [np.nan, np.nan], [0.5, 0.5]])
        assert model.score(records).ravel().tolist() == \
            [False, False, False, True]

    def test_adjacent_terms_do_not_bridge(self):
        # [0.2,0.4) | [0.4,0.6) covers 0.4 via the second term only
        cluster = make_cluster([0], [[(0.2, 0.4)], [(0.4, 0.6)]])
        model = compile_clusters([cluster], ndim=1)
        records = np.array([[0.2], [0.4], [0.6], [0.3999999]])
        assert model.score(records).ravel().tolist() == \
            [True, True, False, True]


class TestCompile:
    def test_real_result_matches_reference(self, clustered):
        result, records = clustered
        model = compile_result(result)
        sample = records[:3000]
        np.testing.assert_array_equal(
            model.score(sample),
            score_batch_naive(result.clusters, sample))

    def test_empty_model(self):
        model = compile_clusters([], ndim=4)
        scores = model.score(np.zeros((3, 4)))
        assert scores.shape == (3, 0)

    def test_term_cap_fails_loudly(self):
        sub = Subspace((0,))
        dnf = tuple(DNFTerm(subspace=sub, intervals=((i * 1.0, i + 0.5),))
                    for i in range(65))
        cluster = Cluster(subspace=sub,
                          units_bins=np.zeros((1, 1), dtype=np.int64),
                          dnf=dnf, point_count=1)
        with pytest.raises(DataError, match="at most 64"):
            compile_clusters([cluster], ndim=1)

    def test_term_arrays_shape(self, clustered):
        result, _ = clustered
        arrays = term_arrays(result.clusters)
        assert arrays.n_clusters == len(result.clusters)
        assert arrays.n_terms == sum(len(c.dnf) for c in result.clusters)
        assert arrays.n_conditions == sum(
            len(t.subspace.dims) for c in result.clusters for t in c.dnf)

    def test_signatures_group_identical_rows(self):
        cluster = make_cluster([0, 1], [[(0.2, 0.6), (0.1, 0.9)]])
        model = compile_clusters([cluster], ndim=2)
        records = np.array([[0.3, 0.5], [0.31, 0.52],  # same serve bins
                            [0.7, 0.5]])               # different
        sigs = model.signatures(model.digitize(records))
        assert np.array_equal(sigs[0], sigs[1])
        assert not np.array_equal(sigs[0], sigs[2])


# -- the server ----------------------------------------------------------

class TestClusterServer:
    @pytest.fixture(scope="class")
    def model(self) -> CompiledModel:
        return compile_clusters([
            make_cluster([0, 2], [[(0.2, 0.5), (0.3, 0.6)],
                                  [(0.6, 0.8), (0.1, 0.4)]]),
            make_cluster([1], [[(0.0, 0.5)]]),
        ], ndim=3)

    def test_hot_trace_hits_cache(self, model):
        rng = np.random.default_rng(3)
        hot = rng.uniform(0, 1, size=(20, 3))
        server = ClusterServer(model)
        # skewed trace: 5000 records over 20 hot rows -> the first
        # batch evaluates each distinct signature once, the second
        # answers every record from the cache
        trace = hot[rng.integers(0, 20, size=5000)]
        np.testing.assert_array_equal(
            server.score_batch(trace).membership, model.score(trace))
        np.testing.assert_array_equal(
            server.score_batch(trace).membership, model.score(trace))
        stats = server.stats()
        assert stats["cache"]["hits"] > 0
        assert stats["evaluations"] <= 20

    def test_lru_eviction(self):
        # four terms -> four serve bins, so each value below is a
        # distinct signature
        model = compile_clusters([make_cluster(
            [0], [[(0.0, 0.25)], [(0.25, 0.5)],
                  [(0.5, 0.75)], [(0.75, 1.0)]])], ndim=1)
        server = ClusterServer(model, cache_size=2, bypass_fraction=1.0)
        for v in (0.1, 0.3, 0.6, 0.8):
            server.score_one([v])
        stats = server.stats()["cache"]
        assert stats["entries"] == 2
        assert stats["evictions"] == 2

    def test_cache_disabled(self, model):
        server = ClusterServer(model, cache_size=0)
        records = np.random.default_rng(4).uniform(0, 1, (100, 3))
        server.score_batch(records)
        assert server.stats()["cache"] is None
        assert server.stats()["evaluations"] == 100

    def test_score_one(self, model):
        server = ClusterServer(model)
        scores = server.score_one([0.3, 0.9, 0.4])
        assert len(scores) == 1
        assert scores.cluster_ids(0) == [0]

    def test_empty_batch(self, model):
        server = ClusterServer(model)
        scores = server.score_batch(np.empty((0, 3)))
        assert len(scores) == 0
        assert scores.membership.shape == (0, 2)

    def test_bad_bypass_fraction(self, model):
        with pytest.raises(DataError, match="bypass_fraction"):
            ClusterServer(model, bypass_fraction=1.5)

    def test_ascore_batch(self, model):
        server = ClusterServer(model)
        records = np.random.default_rng(5).uniform(0, 1, (64, 3))

        async def drive():
            return await server.ascore_batch(records)

        scores = asyncio.run(drive())
        np.testing.assert_array_equal(scores.membership,
                                      model.score(records))

    def test_from_json_both_formats(self, clustered):
        result, records = clustered
        sample = records[:500]
        truth = compile_result(result).score(sample)
        via_result = ClusterServer.from_json(result_to_json(result))
        np.testing.assert_array_equal(
            via_result.score_batch(sample).membership, truth)
        via_model = ClusterServer.from_json(
            model_to_json(compile_result(result)))
        np.testing.assert_array_equal(
            via_model.score_batch(sample).membership, truth)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(DataError):
            ClusterServer.from_json("{not json")
        with pytest.raises(DataError):
            ClusterServer.from_json("[1, 2]")


class TestBatchScores:
    @pytest.fixture(scope="class")
    def scores(self) -> BatchScores:
        membership = np.array([[True, False], [True, True],
                               [False, False]])
        return BatchScores(membership=membership,
                           subspaces=((0, 2), (1, 65)))

    def test_cluster_ids(self, scores):
        assert scores.cluster_ids(0) == [0]
        assert scores.cluster_ids(1) == [0, 1]
        assert scores.cluster_ids(2) == []

    def test_record_subspaces(self, scores):
        assert scores.record_subspaces(1) == [(0, 2), (1, 65)]
        assert scores.record_subspaces(2) == []

    def test_subspace_masks(self, scores):
        masks = scores.subspace_masks()
        assert masks.shape == (3, 2)  # dim 65 needs a second word
        assert masks[0, 0] == (1 << 0) | (1 << 2)
        assert masks[1, 0] == (1 << 0) | (1 << 2) | (1 << 1)
        assert masks[1, 1] == 1 << 1  # bit 65 - 64
        assert masks[2].tolist() == [0, 0]

    def test_counts(self, scores):
        assert scores.counts().tolist() == [2, 1]


class TestSignatureCache:
    def test_lru_order(self):
        cache = SignatureCache(maxsize=2)
        row = np.zeros(1, dtype=bool)
        cache.put(b"a", row)
        cache.put(b"b", row)
        assert cache.get(b"a") is not None  # refresh a
        cache.put(b"c", row)                # evicts b, not a
        assert b"a" in cache and b"c" in cache and b"b" not in cache
        assert cache.stats()["evictions"] == 1

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            SignatureCache(0)


# -- versioned model export ---------------------------------------------

class TestModelExport:
    def test_roundtrip_scores_identically(self, clustered):
        result, records = clustered
        model = compile_result(result)
        back = model_from_json(model_to_json(model))
        sample = records[:2000]
        np.testing.assert_array_equal(back.score(sample),
                                      model.score(sample))
        assert back.subspaces == model.subspaces
        assert back.point_counts == model.point_counts

    def test_payload_is_versioned(self, clustered):
        result, _ = clustered
        payload = model_to_dict(compile_result(result))
        assert payload["format"] == "pmafia-compiled-model"
        assert payload["version"] == 1
        json.dumps(payload)  # JSON-ready throughout

    def test_wrong_format_and_version_rejected(self, clustered):
        result, _ = clustered
        payload = model_to_dict(compile_result(result))
        with pytest.raises(DataError):
            model_from_dict({**payload, "format": "something-else"})
        with pytest.raises(DataError):
            model_from_dict({**payload, "version": 99})
        with pytest.raises(DataError):
            model_from_json("{broken")

    def test_result_with_retired_join_strategy_still_serves(self,
                                                            clustered):
        """A result exported while ``MafiaParams`` still had a
        ``join_strategy`` field (this one carries ``"auto"``) loads and
        scores exactly like a fresh compile of the same clustering."""
        result, records = clustered
        text = (DATA / "result_join_strategy_auto.json").read_text()
        assert json.loads(text)["params"]["join_strategy"] == "auto"
        legacy = ClusterServer.from_json(text)
        fresh = ClusterServer(result)
        membership = fresh.score_batch(records).membership
        assert membership.any()
        np.testing.assert_array_equal(
            legacy.score_batch(records).membership, membership)
        assert legacy.model.subspaces == fresh.model.subspaces
        assert legacy.model.point_counts == fresh.model.point_counts


# -- the CLI front door --------------------------------------------------

class TestScoreCli:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory, clustered):
        result, records = clustered
        root = tmp_path_factory.mktemp("score_cli")
        model_path = root / "result.json"
        model_path.write_text(result_to_json(result))
        data_path = root / "records.npy"
        np.save(data_path, records[:400])
        return root, model_path, data_path

    def test_summary_json(self, paths, capsys):
        root, model_path, data_path = paths
        rc = cli_main(["score", str(model_path), str(data_path),
                       "--summary-only", "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 400
        assert summary["server"]["batches"] == 1

    def test_per_record_lines(self, paths, capsys):
        root, model_path, data_path = paths
        rc = cli_main(["score", str(model_path), str(data_path),
                       "--batch", "100"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 400
        idx, ids = lines[0].split("\t")
        assert idx == "0"

    def test_export_model_then_score_from_it(self, paths, capsys):
        root, model_path, data_path = paths
        compiled_path = root / "model.json"
        rc = cli_main(["score", str(model_path), str(data_path),
                       "--summary-only", "--json",
                       "--export-model", str(compiled_path)])
        assert rc == 0
        first = json.loads(capsys.readouterr().out)
        assert json.loads(
            compiled_path.read_text())["format"] == "pmafia-compiled-model"
        rc = cli_main(["score", str(compiled_path), str(data_path),
                       "--summary-only", "--json"])
        assert rc == 0
        second = json.loads(capsys.readouterr().out)
        assert second["clusters"] == first["clusters"]
        assert second["matched"] == first["matched"]

    def test_obs_outputs_and_manifest(self, paths, capsys):
        from repro.obs.manifest import MANIFEST_NAME
        root, model_path, data_path = paths
        rc = cli_main(["score", str(model_path), str(data_path),
                       "--summary-only",
                       "--trace-out", str(root / "trace.json"),
                       "--metrics-out", str(root / "metrics.json")])
        assert rc == 0
        capsys.readouterr()
        metrics = json.loads((root / "metrics.json").read_text())
        assert metrics["total"]["serve.records"]["value"] == 400
        trace = json.loads((root / "trace.json").read_text())
        assert any(e.get("name") == "score_batch"
                   for e in trace["traceEvents"])
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["serve"]["records"] == 400
