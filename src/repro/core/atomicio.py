"""Crash-consistent artifact writes.

Every durable artifact this project produces — result-cache entries,
checkpoints, fuzz corpora, exported traces, BENCH json — goes through
:func:`atomic_write`.  The contract: after a crash at *any* instant, a
reader sees either the complete previous contents of the path or the
complete new contents, never a torn mix and never a zero-length file.

The implementation is the classic tmp + fsync + rename + dir-fsync
sequence.  ``os.replace`` is atomic on POSIX and on NTFS; the directory
fsync makes the rename itself durable so a post-rename power cut cannot
resurrect the old file with the new name missing.

Lint rule RL016 enforces that artifact-writing modules use these helpers
instead of bare ``open(..., "w")``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Sequence, Union


def atomic_write(
    path: Union[str, Path], data: Union[bytes, Sequence[bytes]]
) -> None:
    """Atomically replace ``path`` with ``data``.

    ``data`` is one bytes object or a sequence of chunks written back to
    back — a large payload framed by a small header need not be copied
    into one buffer first.  Writes to a temp file in the same directory
    (same filesystem, so the final ``os.replace`` is a true rename),
    fsyncs the data, renames over the destination, then fsyncs the
    directory.  On any failure the temp file is removed and the
    destination is left untouched.
    """
    chunks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=str(target.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, str(target))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_dir(target.parent)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    atomic_write(path, text.encode("utf-8"))


def atomic_write_json(path: Union[str, Path], payload: Any) -> None:
    """Atomically write ``payload`` as stable, diffable JSON.

    ``sort_keys`` plus a trailing newline keeps BENCH artifacts and
    manifests byte-stable across runs with identical content.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode("utf-8"))


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's entry table (makes renames durable).

    Best-effort: some filesystems (and all of Windows) refuse O_RDONLY
    opens of directories; the rename is still atomic there, just not
    guaranteed durable across power loss.
    """
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)
