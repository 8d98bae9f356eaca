"""Per-level checkpointing of the bottom-up search.

The level-wise loop of Algorithm 2 has naturally small inter-level
state: the adaptive grid, the per-level frontier (dense unit tables and
their counts) and the registered potential clusters.  After each
completed level, rank 0 serialises exactly that state; a killed run is
then restarted from the last completed level by
:func:`repro.core.mafia.pmafia_resumable` and — because every later
pass is a deterministic function of this state — produces a
bit-identical :class:`~repro.core.result.ClusteringResult`.

File format (versioned, see ``docs/ROBUSTNESS.md``): the
:func:`repro.io.artifact.write_framed` frame with magic ``"PMCK"``
around a pickled state dict.  Files are published atomically, so a
crash mid-checkpoint leaves the previous level's file intact; the CRC
makes a torn or bit-rotten checkpoint fail with
:class:`~repro.errors.CheckpointError` instead of resuming from
garbage.
"""

from __future__ import annotations

import os
import pickle
import re
from pathlib import Path
from typing import Any

from ..errors import CheckpointError
from ..io.artifact import quarantine, read_framed, write_framed

_MAGIC = b"PMCK"
#: bump when the state dict's schema changes incompatibly (2: the
#: pickled grid defines its bins by fine-interval cuts)
CHECKPOINT_VERSION = 2
_LEVEL_RE = re.compile(r"^level(\d{4})\.ckpt$")


def checkpoint_path(directory: str | os.PathLike, level: int) -> Path:
    """The checkpoint file recording the state after ``level``."""
    return Path(directory) / f"level{level:04d}.ckpt"


def save_checkpoint(directory: str | os.PathLike, level: int,
                    state: dict[str, Any]) -> Path:
    """Atomically write the post-``level`` state; returns the path."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    return write_framed(checkpoint_path(directory, level), _MAGIC,
                        CHECKPOINT_VERSION,
                        pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))


def load_checkpoint(path: str | os.PathLike) -> dict[str, Any]:
    """Read, validate and unpickle one checkpoint file."""
    payload = read_framed(path, _MAGIC, CHECKPOINT_VERSION,
                          CheckpointError, "checkpoint")
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise CheckpointError(
            f"{path}: cannot unpickle checkpoint state: {exc}") from exc
    if not isinstance(state, dict) or "level" not in state:
        raise CheckpointError(f"{path}: malformed checkpoint state")
    return state


def latest_checkpoint(directory: str | os.PathLike) -> Path | None:
    """The highest-level checkpoint file in ``directory`` (or None)."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best: tuple[int, Path] | None = None
    for entry in directory.iterdir():
        match = _LEVEL_RE.match(entry.name)
        if match is None:
            continue
        level = int(match.group(1))
        if best is None or level > best[0]:
            best = (level, entry)
    return best[1] if best else None


def load_latest_checkpoint(directory: str | os.PathLike
                           ) -> dict[str, Any] | None:
    """Load the newest *readable* checkpoint in ``directory``.

    A truncated or corrupt newest file — the expected debris of a crash
    or disk fault mid-run — is quarantined
    (:func:`repro.io.artifact.quarantine`, so the next
    :func:`latest_checkpoint` scan no longer offers it) and the scan
    falls back to the previous level instead of aborting the
    resume; losing one level of progress beats losing all of it.
    Returns ``None`` when no readable checkpoint remains.
    """
    while True:
        newest = latest_checkpoint(directory)
        if newest is None:
            return None
        try:
            return load_checkpoint(newest)
        except CheckpointError:
            quarantine(newest)


def clear_checkpoints(directory: str | os.PathLike) -> int:
    """Delete every checkpoint file in ``directory``; returns the count.

    Called when a checkpointed run starts *fresh* so that stale files
    from an earlier run can never be picked up by a later resume.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for entry in directory.iterdir():
        if _LEVEL_RE.match(entry.name):
            entry.unlink(missing_ok=True)
            removed += 1
    return removed


def check_compatible(state: dict[str, Any], params: Any,
                     n_records: int) -> None:
    """Refuse to resume from a checkpoint written under different
    parameters or data — the replayed passes would silently diverge.

    ``bitmap_budget`` is excluded from the comparison: it only decides
    whether the bitmap index is resident or spilled (bit-identical
    counts either way), and the index is restaged from the checkpointed
    grid on resume.  ``trace`` and ``metrics`` are
    likewise excluded: observability is read-only with respect to the
    algorithm, so a crashed untraced run may be resumed under tracing
    (and vice versa) without divergence.
    """
    stored = state.get("params")
    if stored is not None:
        try:
            stored = stored.with_(bitmap_budget=params.bitmap_budget,
                                  trace=params.trace,
                                  metrics=params.metrics)
        except (AttributeError, TypeError):
            pass
    if stored != params:
        raise CheckpointError(
            "checkpoint was written with different parameters "
            f"({state.get('params')!r} != {params!r}); "
            "resume with the original parameters or start fresh")
    if state.get("n_records") != n_records:
        raise CheckpointError(
            f"checkpoint covers {state.get('n_records')} records but the "
            f"data set has {n_records}; resume with the original data")
