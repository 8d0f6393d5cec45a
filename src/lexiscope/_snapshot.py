"""Checked snapshot files in the user's cache, shared by the dictionary and index loaders.

A snapshot file is the sha256 of its payload, then the payload.  A reader
that finds the file missing, unreadable, truncated or altered gets None
and parses its source again; a cache that cannot be written is skipped.
A snapshot is only ever a cache of a parse.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from pathlib import Path

__all__: list[str] = []


def cache_directory() -> Path | None:
    """``<cache>/lexiscope``, or None when there is no cache.

    The cache is $XDG_CACHE_HOME if that is absolute, else ~/.cache if
    that is absolute, else there is none.
    """
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = os.path.expanduser(os.path.join("~", ".cache"))
        if not os.path.isabs(cache):
            return None
    return Path(cache) / "lexiscope"


def read_checked(path: Path) -> memoryview | None:
    """The payload stored at path, or None for a missing, unreadable, truncated or altered file."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    payload = memoryview(data)[32:]
    if hashlib.sha256(payload).digest() != data[:32]:
        return None
    return payload


def write_checked(path: Path, payload: bytes) -> None:
    """Store a payload at path for read_checked; a cache that cannot be written is skipped.

    The file is written under a temporary name, which only its owner can
    read or write, and renamed into place, so a concurrent reader never
    reads a partial file.
    """
    import tempfile  # here, not at the top: only a parse writes

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(handle, "wb") as out:
            out.write(hashlib.sha256(payload).digest())
            out.write(payload)
        os.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)
