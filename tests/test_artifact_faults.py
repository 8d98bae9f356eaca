"""One fault suite for every staged artifact: kind x fault.

Each kind is one on-disk format published and checked through
:mod:`repro.io.artifact` — record file, level checkpoint (PMCK) and
stream manifest.  A spilled bitmap index is scratch owned by its run,
not a staged artifact (see ``tests/test_bitmap_index.py``).
Each fault damages the file the way a disk or a crash would: truncate
it, flip a payload byte, flip the magic, or crash inside the publish
of a newer version.

One expected behaviour for every cell: **rebuild or raise, never a
wrong count**.  The consumer either raises the format's own error or
returns exactly what it returns for the undamaged file (or a documented
fallback: the previous checkpoint).  A crash inside
publish leaves the old file intact and no temp file behind.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import mafia
from repro.analysis import verify_result
from repro.core.checkpoint import load_latest_checkpoint, save_checkpoint
from repro.errors import CheckpointError, RecordFileError, StreamError
from repro.io import artifact
from repro.io.records import RecordFile, read_header, write_records
from repro.stream import StreamingSession
from repro.stream.soak import result_fingerprint
from tests.conftest import DOMAINS_10D
from tests.test_bitmap_index import cluster_signature
from tests.test_stream_conformance import (DOMAINS, PARAMS,
                                           assert_equivalent,
                                           drifting_blocks)


def _permute_column(records: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """Same shape and per-column marginals (so the same adaptive grid),
    different records: column ``dim`` shuffled independently."""
    out = records.copy()
    out[:, dim] = np.random.default_rng(seed).permutation(out[:, dim])
    return out


class RecordKind:
    errors = (RecordFileError,)

    def __init__(self, tmp):
        self.path = tmp / "data.bin"
        self.records = np.random.default_rng(1).random((300, 4)) * 100.0
        write_records(self.path, self.records, crc_chunk_records=64)

    def target(self):
        return self.path

    def payload_offset(self):
        # inside record 10: a flipped mantissa bit still reads as a float
        return read_header(self.path).data_offset + 10 * 4 * 8 + 3

    def consume(self):
        return RecordFile(self.path).read_all().tolist()

    def allowed(self, expected):
        return [expected]

    def republish(self):
        write_records(self.path, self.records * 2.0)


class CheckpointKind:
    errors = (CheckpointError,)

    def __init__(self, tmp):
        self.dir = tmp / "ckpt"
        for level in (1, 2):
            save_checkpoint(self.dir, level, self._state(level))

    @staticmethod
    def _state(level):
        return {"level": level, "counts": np.arange(200) * level}

    @staticmethod
    def _view(state):
        return state["level"], state["counts"].tolist()

    def target(self):
        return self.dir / "level0002.ckpt"

    def payload_offset(self):
        raw = self.target().read_bytes()
        return raw.find((np.arange(200) * 2).tobytes()) + 8 * 100

    def consume(self):
        return self._view(load_latest_checkpoint(self.dir))

    def allowed(self, expected):
        # a damaged newest level falls back to the previous one
        return [expected, self._view(self._state(1))]

    def republish(self):
        save_checkpoint(self.dir, 2, self._state(7))


class StreamManifestKind:
    errors = (StreamError,)

    def __init__(self, tmp):
        self.dir = tmp / "spill"
        self.blocks = drifting_blocks(5, [70, 80, 90, 60])
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   spill_dir=self.dir)
        for block in self.blocks[:3]:
            session.ingest(block)
        session.close()

    def target(self):
        return self.dir / "stream_manifest.json"

    def payload_offset(self):
        # last_seq 2 -> 3: still valid JSON, one delta too many
        return self.target().read_bytes().find(b'"last_seq": 2') + 12

    def consume(self):
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   spill_dir=self.dir, resume=True)
        return (session.last_seq, session.n_live,
                result_fingerprint(session.snapshot()))

    def allowed(self, expected):
        return [expected]

    def republish(self):
        session = StreamingSession(PARAMS, domains=DOMAINS,
                                   spill_dir=self.dir, resume=True)
        session.ingest(self.blocks[3])


KINDS = {"record": RecordKind, "pmck": CheckpointKind,
         "stream_manifest": StreamManifestKind}
DAMAGE = ("truncate", "flip_payload", "flip_magic")
CELLS = [(kind, fault) for kind in KINDS
         for fault in (*DAMAGE, "crash_in_publish")]

_RAISED = "raised"


def _outcome(kind):
    try:
        return kind.consume()
    except kind.errors:
        return _RAISED


@pytest.mark.parametrize(("kind_name", "fault"), CELLS)
def test_rebuild_or_raise_never_a_wrong_count(tmp_path, monkeypatch,
                                              kind_name, fault):
    kind = KINDS[kind_name](tmp_path)
    expected = kind.consume()
    path = kind.target()
    before = path.read_bytes()

    if fault in DAMAGE:
        raw = bytearray(before)
        if fault == "truncate":
            del raw[-7:]
        elif fault == "flip_payload":
            raw[kind.payload_offset()] ^= 0x01
        else:
            raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert _outcome(kind) in [*kind.allowed(expected), _RAISED]
    else:
        real_replace = os.replace

        def crash_on_target(src, dst):
            if os.fspath(dst) == os.fspath(path):
                raise OSError("injected crash inside publish")
            return real_replace(src, dst)

        monkeypatch.setattr(artifact.os, "replace", crash_on_target)
        with pytest.raises(OSError, match="injected crash"):
            kind.republish()
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not list(path.parent.glob("*.tmp"))
        assert kind.consume() == expected


class TestStaleIndexKeys:
    """An index is served only for the exact records it was built
    from: every run and every snapshot stages its own.  Permuting one
    column keeps every marginal — hence the adaptive grid and its
    fingerprints — but changes the records."""

    def test_rewritten_record_file_rebuilds_spilled_index(
            self, tmp_path, one_cluster_dataset, small_params):
        path = tmp_path / "data.bin"
        params = small_params.with_(bitmap_budget=1)
        write_records(path, one_cluster_dataset.records)
        mafia(RecordFile(path), params, domains=DOMAINS_10D)

        rewritten = _permute_column(one_cluster_dataset.records, 3, seed=0)
        write_records(path, rewritten)
        spilled = mafia(RecordFile(path), params, domains=DOMAINS_10D)
        resident = mafia(rewritten, small_params, domains=DOMAINS_10D)
        assert cluster_signature(spilled) == cluster_signature(resident)
        assert ([lvl.dense_counts.tolist() for lvl in spilled.trace]
                == [lvl.dense_counts.tolist() for lvl in resident.trace])
        assert verify_result(spilled, rewritten).ok

    def test_reused_spill_dir_rebuilds_segment_indexes(self, tmp_path):
        """A fresh session in a spill directory that still holds another
        session's ``seg-*`` files rewrites the records; its snapshot
        counts the new records, and no session leaves an index file
        beside its record files."""
        rng = np.random.default_rng(11)
        blocks = []
        for _ in range(3):     # a stationary 2-d cluster on dims (0, 2)
            block = rng.uniform(0.0, 100.0, size=(120, 4))
            block[:90, [0, 2]] = rng.uniform(40.0, 52.0, size=(90, 2))
            blocks.append(block)
        first = StreamingSession(PARAMS, domains=DOMAINS,
                                 spill_dir=tmp_path)
        for block in blocks:
            first.ingest(block)
        first.snapshot()
        first.close()
        assert len(list(tmp_path.glob("seg-*.rec"))) == len(blocks)
        assert {p.suffix for p in tmp_path.iterdir()} == {".rec", ".json"}

        rewritten = [_permute_column(b, 2, seed=i)
                     for i, b in enumerate(blocks)]
        second = StreamingSession(PARAMS, domains=DOMAINS,
                                  spill_dir=tmp_path)
        for block in rewritten:
            second.ingest(block)
        assert_equivalent(second.snapshot(),
                          mafia(np.concatenate(rewritten), PARAMS,
                                domains=DOMAINS))
        second.close()


def test_artifact_module_is_the_only_publish_path():
    """Publishing, checksumming and quarantining live in one module; a
    hand-rolled temp-and-rename, CRC loop or quarantine elsewhere in
    the package is a second code path that can fail open."""
    package = Path(repro.__file__).parent
    home = package / "io" / "artifact.py"
    for source in sorted(package.rglob("*.py")):
        if source == home:
            continue
        text = source.read_text(encoding="utf-8")
        for needle in ("os.replace(", "zlib.crc32", ".corrupt"):
            assert needle not in text, f"{needle!r} in {source}"
    text = home.read_text(encoding="utf-8")
    assert all(needle in text
               for needle in ("os.replace(", "zlib.crc32", ".corrupt"))
