"""Staged artifacts: the one publish / verify / quarantine path.

Every file the program stages — record files, the PMBI bitmap index,
PMCK level checkpoints and the stream manifest — is written, checked
and set aside through this module and nowhere else, so each fails
closed the same way:

- :class:`Publication` writes a temp sibling, flushes and ``fsync`` s it,
  then ``os.replace`` s it over the final name: a reader sees the old
  file or the complete new one, never a torn one.  The temp file is
  unlinked on any exception.
- :func:`crc32` / :func:`verify_crc` are the blockwise CRC32 every
  format's checksums use.
- :func:`open_frame` opens a file whose fixed header starts with a
  4-byte magic and a u16 version: stat, magic, version, truncation and
  (through :meth:`Frame.expect_size`) size checks, with ``OSError``
  mapped to the format's own error.
- :func:`quarantine` moves a bad file aside as ``<name>.corrupt`` for
  post-mortems, so no later scan offers it again.

Formats whose whole payload is read at once (checkpoints, manifests)
share one frame, :func:`write_framed` / :func:`read_framed`::

    magic 4s | u16 version | u32 crc32(payload) | i64 payload length
    payload
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

from ..errors import ReproError

#: bytes fed to ``zlib.crc32`` per call, so a large mapped tile is
#: checksummed without materialising it
_CRC_BLOCK = 1 << 20

_FRAME = struct.Struct("<4sHIq")


class Publication:
    """An artifact being written to a temp sibling of ``path``.

    ``fh`` is the temp file, open ``w+b`` (so it can also be
    memory-mapped).  :meth:`commit` makes it ``path`` atomically and
    durably, :meth:`abort` discards it.  As a context manager it
    commits on a clean exit and aborts on any exception.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.tmp = self.path.with_name(self.path.name + ".tmp")
        self.fh: BinaryIO = open(self.tmp, "w+b")

    def commit(self) -> Path:
        """Flush, ``fsync``, close and rename over ``path``."""
        try:
            self.fh.flush()
            os.fsync(self.fh.fileno())
            self.fh.close()
            os.replace(self.tmp, self.path)
        except BaseException:
            self.abort()
            raise
        return self.path

    def abort(self) -> None:
        """Close and unlink the temp file; ``path`` is left untouched."""
        self.fh.close()
        self.tmp.unlink(missing_ok=True)

    def __enter__(self) -> "Publication":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()


def quarantine(path: str | os.PathLike) -> Path:
    """Move a bad artifact aside as ``<name>.corrupt``; returns the new
    path.  An existing quarantine file of the same name is replaced —
    only the newest corpse is worth keeping for post-mortems."""
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    os.replace(path, target)
    return target


def crc32(data, value: int = 0) -> int:
    """CRC32 of a bytes-like object or C-contiguous array, continuing
    from ``value``, fed in 1 MiB blocks."""
    view = memoryview(data).cast("B")
    for lo in range(0, len(view), _CRC_BLOCK):
        value = zlib.crc32(view[lo:lo + _CRC_BLOCK], value)
    return value


def verify_crc(data, stored: int, error: type[Exception],
               what: str) -> None:
    """Raise ``error`` unless ``data`` checksums to ``stored``;
    ``what`` names the checked range in the message."""
    computed = crc32(data)
    if computed != stored:
        raise error(f"{what}: CRC mismatch: stored {stored:#010x}, "
                    f"computed {computed:#010x}")


class Frame:
    """An open artifact whose header passed the magic, version and
    truncation checks.  ``fields`` are the header fields after magic
    and version; ``size`` is the file size in bytes."""

    def __init__(self, path: Path, fh: BinaryIO, fields: tuple, size: int,
                 error: type[Exception], what: str) -> None:
        self.path = path
        self.fh = fh
        self.fields = fields
        self.size = size
        self.error = error
        self.what = what

    def expect_size(self, expected: int) -> None:
        """Raise unless the file is exactly ``expected`` bytes — the
        size its header implies."""
        if self.size != expected:
            raise self.error(f"{self.path}: file is {self.size} bytes, "
                             f"header implies {expected}")

    def read_at(self, offset: int, nbytes: int) -> bytes:
        """Exactly ``nbytes`` bytes from ``offset``."""
        self.fh.seek(offset)
        raw = self.fh.read(nbytes)
        if len(raw) != nbytes:
            raise self.error(f"{self.path}: truncated {self.what}")
        return raw


@contextmanager
def open_frame(path: str | os.PathLike, layout: struct.Struct, *,
               magic: bytes, version: int, error: type[Exception],
               what: str) -> Iterator[Frame]:
    """Open ``path`` and check its ``layout`` header, which starts with
    ``magic`` and a u16 ``version``; yields the :class:`Frame`.  Any
    ``OSError`` inside the block that is not already one of the
    program's errors is re-raised as ``error``."""
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            raw = fh.read(layout.size)
            if len(raw) < layout.size:
                raise error(f"{path}: truncated {what} header")
            fields = layout.unpack(raw)
            if fields[0] != magic:
                raise error(f"{path}: bad {what} magic {fields[0]!r}")
            if fields[1] != version:
                raise error(f"{path}: {what} version {fields[1]} is not "
                            f"supported (this build reads version "
                            f"{version})")
            yield Frame(path, fh, fields[2:], size, error, what)
    except OSError as exc:
        if isinstance(exc, ReproError):
            raise
        raise error(f"cannot open {what} {path}: {exc}") from exc


def write_framed(path: str | os.PathLike, magic: bytes, version: int,
                 payload: bytes) -> Path:
    """Publish ``payload`` under the CRC-checked frame."""
    with Publication(path) as out:
        out.fh.write(_FRAME.pack(magic, version, crc32(payload),
                                 len(payload)))
        out.fh.write(payload)
    return out.path


def read_framed(path: str | os.PathLike, magic: bytes, version: int,
                error: type[Exception], what: str) -> bytes:
    """The verified payload of a :func:`write_framed` file; a torn,
    truncated or bit-rotten file raises ``error``."""
    with open_frame(path, _FRAME, magic=magic, version=version,
                    error=error, what=what) as frame:
        crc, length = frame.fields
        frame.expect_size(_FRAME.size + length)
        payload = frame.read_at(_FRAME.size, length)
    verify_crc(payload, crc, error, f"{path}: {what}")
    return payload
