"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import _parse_cluster, build_parser, main
from repro.io import read_header, write_records


@pytest.fixture
def record_file(tmp_path, one_cluster_dataset):
    path = tmp_path / "data.bin"
    write_records(path, one_cluster_dataset.records)
    return path


class TestParseCluster:
    def test_single_dim(self):
        spec = _parse_cluster("3:10:20")
        assert spec.dims == (3,)
        assert spec.boxes == (((10.0, 20.0),),)

    def test_multi_dim_sorted(self):
        spec = _parse_cluster("5:1:2,1:3:4")
        assert spec.dims == (1, 5)
        assert spec.boxes == (((3.0, 4.0), (1.0, 2.0)),)

    def test_malformed(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_cluster("5:1")


class TestGenerateAndInfo:
    def test_generate_writes_file(self, tmp_path, capsys):
        out = tmp_path / "gen.bin"
        rc = main(["generate", str(out), "--records", "500", "--dims", "4",
                   "--cluster", "0:10:30,2:40:60", "--seed", "3"])
        assert rc == 0
        info = read_header(out)
        assert info.n_records == 550 and info.n_dims == 4

    def test_info(self, record_file, capsys):
        assert main(["info", str(record_file)]) == 0
        out = capsys.readouterr().out
        assert "5500 records x 10 dims" in out

    def test_info_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["info", str(tmp_path / "missing.bin")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_run_text_output(self, record_file, capsys):
        rc = main(["run", str(record_file), "--fine-bins", "200",
                   "--window", "2", "--chunk", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clusters: 1" in out
        assert "(1, 3, 5, 7)" in out

    def test_run_json_output(self, record_file, capsys):
        rc = main(["run", str(record_file), "--fine-bins", "200",
                   "--window", "2", "--chunk", "2000", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "pmafia-result"
        assert len(payload["clusters"]) == 1
        assert payload["clusters"][0]["subspace"] == [1, 3, 5, 7]

    def test_run_parallel(self, record_file, capsys):
        rc = main(["run", str(record_file), "--procs", "3",
                   "--fine-bins", "200", "--window", "2",
                   "--chunk", "2000"])
        assert rc == 0
        assert "clusters: 1" in capsys.readouterr().out

    def test_run_clique(self, record_file, capsys):
        rc = main(["run", str(record_file), "--algorithm", "clique",
                   "--bins", "10", "--threshold", "0.02",
                   "--chunk", "2000"])
        assert rc == 0
        assert "clusters:" in capsys.readouterr().out

    def test_run_npy_input(self, tmp_path, one_cluster_dataset, capsys):
        path = tmp_path / "data.npy"
        np.save(path, one_cluster_dataset.records)
        rc = main(["run", str(path), "--fine-bins", "200", "--window", "2",
                   "--chunk", "2000"])
        assert rc == 0
        assert "(1, 3, 5, 7)" in capsys.readouterr().out

    def test_run_csv_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = rng.random((800, 3)) * 100
        data[:500, 1] = 40 + rng.random(500) * 10
        path = tmp_path / "data.csv"
        np.savetxt(path, data, delimiter=",")
        rc = main(["run", str(path), "--fine-bins", "50", "--window", "2",
                   "--chunk", "500"])
        assert rc == 0


class TestBitmapBudgetFlag:
    def test_default_is_256_mib(self):
        args = build_parser().parse_args(["run", "x.bin"])
        assert args.bitmap_budget == 1 << 28

    def test_spilled_index_prints_identical_output(self, record_file,
                                                   capsys):
        argv = ["run", str(record_file), "--fine-bins", "200",
                "--window", "2", "--chunk", "2000"]
        assert main(argv) == 0
        resident = capsys.readouterr().out
        assert main(argv + ["--bitmap-budget", "1"]) == 0
        assert capsys.readouterr().out == resident
        assert "(1, 3, 5, 7)" in resident


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rebalance_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "data.bin", "--rebalance"])
        assert exc.value.code == 2
        assert "--rebalance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "stream"])
    def test_join_strategy_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [command, "data.bin", "--join-strategy", "hash"])
        assert exc.value.code == 2
        assert "--join-strategy" in capsys.readouterr().err

    def test_supervised_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "data.bin", "--supervised"])
        assert exc.value.code == 2
        assert "--supervised" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--batch", "0"), ("--batch", "-5"), ("--cache-size", "-3")])
    def test_score_refuses_bad_sizes(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["score", "model.json", "data.npy", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestVerifyFlag:
    def test_run_with_verify_passes(self, record_file, capsys):
        rc = main(["run", str(record_file), "--fine-bins", "200",
                   "--window", "2", "--chunk", "2000", "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification: OK" in out

class TestCheckpointFlags:
    def test_run_with_checkpoint_dir(self, record_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        rc = main(["run", str(record_file), "--fine-bins", "200",
                   "--window", "2", "--chunk", "2000", "--procs", "2",
                   "--checkpoint-dir", str(ckpt)])
        assert rc == 0
        assert list(ckpt.glob("level*.ckpt"))
        # a second invocation resumes from the completed run
        rc = main(["run", str(record_file), "--fine-bins", "200",
                   "--window", "2", "--chunk", "2000", "--procs", "2",
                   "--checkpoint-dir", str(ckpt), "--resume"])
        assert rc == 0

    def test_resume_requires_checkpoint_dir(self, record_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", str(record_file), "--resume"])
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_dir_rejected_for_clique(self, record_file, tmp_path,
                                                capsys):
        with pytest.raises(SystemExit):
            main(["run", str(record_file), "--algorithm", "clique",
                  "--checkpoint-dir", str(tmp_path / "c")])
        assert "clique" in capsys.readouterr().err
