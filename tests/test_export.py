"""Tests for result serialisation (repro.core.export)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MafiaParams, mafia
from repro.clique import clique
from repro.core.export import (cluster_from_dict, cluster_to_dict,
                               grid_from_dict, grid_to_dict,
                               result_from_dict, result_from_json,
                               result_to_dict, result_to_json,
                               write_result_json)
from repro.errors import DataError
from repro.params import CliqueParams
from tests.conftest import DOMAINS_10D


@pytest.fixture(scope="module")
def result(one_cluster_dataset, small_params):
    return mafia(one_cluster_dataset.records, small_params,
                 domains=DOMAINS_10D)


class TestRoundTrip:
    def test_grid_roundtrip(self, result):
        back = grid_from_dict(grid_to_dict(result.grid))
        assert back.ndim == result.grid.ndim
        for a, b in zip(back, result.grid):
            assert a.edges == b.edges
            assert a.thresholds == b.thresholds
            assert a.uniform == b.uniform

    def test_cluster_roundtrip(self, result):
        for cluster in result.clusters:
            back = cluster_from_dict(cluster_to_dict(cluster))
            assert back.subspace.dims == cluster.subspace.dims
            assert back.point_count == cluster.point_count
            np.testing.assert_array_equal(back.units_bins,
                                          cluster.units_bins)
            assert back.describe() == cluster.describe()

    def test_full_result_roundtrip(self, result):
        back = result_from_dict(result_to_dict(result))
        assert back.n_records == result.n_records
        assert back.cdus_per_level() == result.cdus_per_level()
        assert back.dense_per_level() == result.dense_per_level()
        assert [c.describe() for c in back.clusters] == \
            [c.describe() for c in result.clusters]
        assert isinstance(back.params, MafiaParams)
        assert back.params == result.params

    def test_json_roundtrip(self, result):
        text = result_to_json(result)
        back = result_from_json(text)
        assert back.summary() == result.summary()

    def test_trace_dense_units_preserved(self, result):
        back = result_from_dict(result_to_dict(result))
        for a, b in zip(back.trace, result.trace):
            assert a.dense == b.dense
            np.testing.assert_array_equal(a.dense_counts, b.dense_counts)

    def test_clique_params_roundtrip(self, two_cluster_dataset):
        res = clique(two_cluster_dataset.records,
                     CliqueParams(bins=8, threshold=0.01,
                                  chunk_records=5000),
                     domains=DOMAINS_10D)
        back = result_from_dict(result_to_dict(res))
        assert isinstance(back.params, CliqueParams)
        assert back.params.bins == 8


class TestEncodingSize:
    def test_compact_default_is_materially_smaller(self, result):
        """Size regression gate: the default encoding must stay the
        compact one — a large result's pretty print is mostly
        whitespace, and serving-model files ship over the wire."""
        compact = result_to_json(result)
        pretty = result_to_json(result, indent=2)
        assert ": " not in compact and ", " not in compact
        assert len(compact) < 0.75 * len(pretty)
        # both decode to the same result
        assert result_from_json(compact).summary() == \
            result_from_json(pretty).summary()

    def test_write_result_json_streams_to_path(self, result, tmp_path):
        path = tmp_path / "result.json"
        write_result_json(path, result)
        back = result_from_json(path.read_text())
        assert back.summary() == result.summary()
        # the streamed file is the compact encoding plus one newline
        assert path.read_text() == result_to_json(result) + "\n"

    def test_write_result_json_accepts_file_object(self, result,
                                                   tmp_path):
        path = tmp_path / "result.json"
        with open(path, "w") as fh:
            write_result_json(fh, result, indent=2)
        back = result_from_json(path.read_text())
        assert back.summary() == result.summary()


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(DataError):
            result_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self, result):
        payload = result_to_dict(result)
        payload["version"] = 99
        with pytest.raises(DataError):
            result_from_dict(payload)

    def test_version_1_rejected(self, result):
        """Version 1 grids carried only float edges; a bin's fine
        intervals cannot be recovered from them, so such files are
        refused rather than re-binned."""
        payload = result_to_dict(result)
        payload["version"] = 1
        for d in payload["grid"]["dims"]:
            for key in ("lo", "hi", "n_fine", "cuts"):
                del d[key]
        with pytest.raises(DataError, match="version 1"):
            result_from_dict(payload)

    def test_malformed_grid(self):
        with pytest.raises(DataError):
            grid_from_dict({"dims": [{"dim": 0}]})

    def test_malformed_cluster(self):
        with pytest.raises(DataError):
            cluster_from_dict({"subspace": [0]})

    def test_invalid_json(self):
        with pytest.raises(DataError):
            result_from_json("{not json")
