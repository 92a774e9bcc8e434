"""Crash-consistent file writes and quarantine of damaged files.

Campaign checkpoints and the thermal response-operator store persist
state that a later process must be able to trust, so both write it the
same way: into a temp file beside the target, flushed and fsynced, then
moved over the target with one atomic ``os.replace``. A crashed writer
leaves either the old file or the new one, never a torn mix. A file
that fails its reader's checks is moved aside as ``<name>.corrupt``,
so the evidence survives while the caller rebuilds.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable

__all__ = ["quarantine", "write_atomic"]


def write_atomic(target: Path, write: Callable[[BinaryIO], object], *,
                 backup: Path | None = None) -> None:
    """Durably replace ``target`` with what ``write`` puts in a file.

    Order: temp file in the target's directory → ``write(fh)`` → flush
    and fsync → rotate the current target to ``backup`` (when given and
    present) → ``os.replace`` onto the target. The temp file is removed
    on any failure, including one raised by ``write``.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent,
                               prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        if backup is not None and target.exists():
            os.replace(target, backup)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def quarantine(path: Path) -> Path | None:
    """Move ``path`` aside as ``<name>.corrupt``.

    Returns the new path, or None when the file could not be moved
    (absent, or the rename failed).
    """
    corrupt = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, corrupt)
    except OSError:
        return None
    return corrupt
