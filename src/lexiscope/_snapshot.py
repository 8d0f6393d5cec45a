"""One cache slot per source file, shared by the dictionary and index loaders.

A slot is ``<cache>/lexiscope/<kind>-<sha256 of the source's absolute
path>.marshal``.  It holds the sha256 of the rest, then the content key of
the source it was written from, then the loader's payload.  A reader that
finds the slot missing, unreadable, truncated, altered or written from
other content gets None and parses its source again, and that parse
replaces the slot; a cache that cannot be written is skipped.  A slot is
only ever a cache of a parse.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
from pathlib import Path

__all__: list[str] = []


def slot_path(kind: str, source: str | os.PathLike) -> Path | None:
    """The slot of kind for the source file or directory, or None when there is no cache.

    The cache is $XDG_CACHE_HOME if that is absolute, else ~/.cache if
    that is absolute, else there is none.
    """
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = os.path.expanduser(os.path.join("~", ".cache"))
        if not os.path.isabs(cache):
            return None
    name = hashlib.sha256(os.fsencode(os.path.abspath(source))).hexdigest()
    return Path(cache) / "lexiscope" / f"{kind}-{name}.marshal"


def content_key(format_tag: bytes, parts) -> bytes:
    """A sha256 over a format tag, this Python's cache tag (marshal's format is per version) and parts."""
    key = hashlib.sha256(format_tag)
    key.update(str(sys.implementation.cache_tag).encode())
    for part in parts:
        key.update(part)
    return key.digest()


def read_slot(path: Path, key: bytes) -> memoryview | None:
    """The payload stored at path under key, or None for a missing, damaged or other-keyed slot."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    rest = memoryview(data)[32:]
    if hashlib.sha256(rest).digest() != data[:32] or rest[:32] != key:
        return None
    return rest[32:]


def write_slot(path: Path, key: bytes, chunks: list[bytes]) -> None:
    """Store the payload chunks at path under key for read_slot; a cache that cannot be written is skipped.

    The payload is the chunks back to back; they are written one by one,
    never joined.

    The slot is written under a temporary name, which only its owner can
    read or write, and renamed into place, so a concurrent reader never
    reads a partial slot.
    """
    import tempfile  # here, not at the top: only a parse writes

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return
    digest = hashlib.sha256(key)
    for chunk in chunks:
        digest.update(chunk)
    try:
        with os.fdopen(handle, "wb") as out:
            out.write(digest.digest())
            out.write(key)
            out.writelines(chunks)
        os.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)
