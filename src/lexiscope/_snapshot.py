"""One cache slot per source, shared by the dictionary and index loaders.

A slot is ``<cache>/lexiscope/<kind>-<sha256 of the source's absolute
path>.marshal``.  It holds the sha256 of the rest, then the content key of
the files it was written from, then the loader's payload, then the stamp
and the stamp's length (8 bytes, little-endian).  The stamp is the
marshalled (source's absolute path, wall time in ns taken before the files
were read, each file's stat signature, each file's sha256).

A read stats the files.  When each file's signature is the stamp's and
each file's mtime and ctime are older than the stamp's time by more than
RACY_WINDOW_NS, no file has changed since it was read, and the stamp's
sha256s make the key; otherwise every file is hashed (git's "racily
clean" rule).  The slot is used when its own sha256 checks out and its key
is the files'.  A hashed read that finds the slot good and every file
settled writes the slot again under a new stamp, so the next read trusts
the stat.  A reader that finds the slot missing, unreadable, damaged or
written from other content gets None and parses its source again; the
write after the parse is skipped when a file changed during it.  A source
with a file that is there but is not a regular file, such as a pipe, is
never read from or written to a slot: no key stands for bytes a read
consumes.  Every write removes the slots of its kind whose source is
gone, and the content-named snapshots of earlier versions.  A cache that
cannot be written is skipped.  A slot is only ever a cache of a parse.
"""

from __future__ import annotations

import contextlib
import hashlib
import marshal
import os
import re
import stat
import sys
import time
from pathlib import Path

__all__: list[str] = []

# A file whose mtime or ctime is not this much older than a stamp's time
# is hashed: a change in the same timestamp tick as the stamp may leave
# the signature as it was.  2 s is FAT's mtime granularity, the coarsest
# in use.
RACY_WINDOW_NS = 2_000_000_000

# The sha256 that stands for a file that is not there.
ABSENT = bytes(32)
_CHUNK = 1 << 20

# The dictionary snapshots of earlier versions, named after their content.
_LEGACY_NAME = re.compile(r"[0-9a-f]{64}\.marshal")


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


def file_digest(path: Path) -> bytes:
    """The sha256 of a regular file, or ABSENT when there is no file.

    OSError for a file that cannot be read or is not a regular file: a
    pipe's bytes are gone once read, so no key can stand for them.
    """
    if _state(path)[0] is None:
        return ABSENT
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_CHUNK):
            digest.update(chunk)
    return digest.digest()


def _state(path: Path):
    """(stat signature, last mtime or ctime in ns) of a regular file, or (None, None) when there is no file.

    OSError for anything else at path, and when it cannot be stat'd.
    """
    try:
        status = os.stat(path)
    except (FileNotFoundError, NotADirectoryError):
        return None, None
    if not stat.S_ISREG(status.st_mode):
        raise OSError(f"not a regular file: {path}")
    signature = (status.st_size, status.st_mtime_ns, status.st_ino, status.st_dev)
    return signature, max(status.st_mtime_ns, status.st_ctime_ns)


def _open_slot(path: Path):
    """(key, payload, stamp) of the slot at path, or None for a missing or damaged one."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    view = memoryview(data)
    if len(data) < 72 or hashlib.sha256(view[32:]).digest() != data[:32]:
        return None
    end = len(data) - 8 - int.from_bytes(data[-8:], "little")
    if end < 64:
        return None
    try:
        stamp = marshal.loads(view[end:-8])
    except (EOFError, ValueError, TypeError):
        return None
    return data[32:64], view[64:end], stamp


def write_slot(path: Path, key: bytes, chunks: list[bytes]) -> None:
    """Store the chunks at path under key; a cache that cannot be written is skipped.

    The chunks are written one by one, never joined.

    The slot is written under a temporary name, which only its owner can
    read or write, and renamed into place, so a concurrent reader never
    reads a partial slot.
    """
    import tempfile  # here, not at the top: only a parse or a new stamp writes

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


def _states(files: list[Path]):
    """Each file's _state, or None when one is not a regular file or cannot be stat'd."""
    try:
        return [_state(path) for path in files]
    except OSError:
        return None


class Slot:
    """The cache slot of one source: read before its parse, written after it.

    files are the files the source's content key covers, in a fixed order;
    format_tag is the loader's, bumped with its payload's layout.
    """

    def __init__(self, path: Path, source, format_tag: bytes, files: list[Path]):
        self.path = path
        self.source = os.path.abspath(source)
        self.format_tag = format_tag
        self.files = files
        self.key: bytes | None = None

    @classmethod
    def of(cls, kind: str, source, format_tag: bytes, files: list[Path]) -> Slot | None:
        """The slot of kind for source, or None when there is no cache."""
        path = slot_path(kind, source)
        return None if path is None else cls(path, source, format_tag, files)

    def read(self) -> memoryview | None:
        """The payload, when the slot was written from the files as they are now; else None.

        Stamps the files first, for write.
        """
        self.time_ns = time.time_ns()
        self.states = _states(self.files)
        if self.states is None:
            return None
        opened = _open_slot(self.path)
        digests = None if opened is None else self._trusted(opened[2])
        trusted = digests is not None
        if not trusted:
            try:
                digests = tuple(file_digest(path) for path in self.files)
            except OSError:
                return None
        self.digests = digests
        self.key = content_key(self.format_tag, digests)
        if opened is None or opened[0] != self.key:
            return None
        limit = self.time_ns - RACY_WINDOW_NS
        if not trusted and all(changed is None or changed < limit for _, changed in self.states):
            self.write([opened[1]])
        return opened[1]

    def _trusted(self, stamp) -> tuple[bytes, ...] | None:
        """The stamp's sha256s, when every file is as the stamp saw it and settled before it; else None."""
        try:
            source, time_ns, signatures, digests = stamp
        except (TypeError, ValueError):
            return None
        if not (
            source == self.source
            and type(time_ns) is int
            and time_ns <= self.time_ns
            and signatures == tuple(signature for signature, _ in self.states)
            and type(digests) is tuple
            and len(digests) == len(self.files)
            and all(type(digest) is bytes for digest in digests)
        ):
            return None
        limit = time_ns - RACY_WINDOW_NS
        if any(changed is not None and changed >= limit for _, changed in self.states):
            return None
        return digests

    def write(self, chunks: list[bytes]) -> None:
        """Store the payload chunks under the stamp read took, unless a file changed since."""
        if self.key is None or _states(self.files) != self.states:
            return
        signatures = tuple(signature for signature, _ in self.states)
        stamp = marshal.dumps((self.source, self.time_ns, signatures, self.digests))
        write_slot(self.path, self.key, [*chunks, stamp, len(stamp).to_bytes(8, "little")])
        _sweep(self.path)


def _stamped_source(path: Path) -> str | None:
    """The source a slot's stamp names, or None for a slot without a readable stamp."""
    try:
        with open(path, "rb") as handle:
            end = handle.seek(-8, os.SEEK_END)
            size = int.from_bytes(handle.read(8), "little")
            if size > end - 64:
                return None
            handle.seek(end - size)
            stamp = marshal.loads(handle.read(size))
    except (OSError, EOFError, ValueError, TypeError):
        return None
    return stamp[0] if type(stamp) is tuple and stamp and type(stamp[0]) is str else None


def _sweep(own: Path) -> None:
    """Remove the slots of own's kind whose source is gone, and earlier versions' content-named snapshots.

    A slot without a readable stamp is of another format, which no read
    of this one uses, and goes too.  A reader that opened a removed slot
    still reads it whole; one that comes later finds no slot and parses.
    """
    prefix = own.name.split("-", 1)[0] + "-"
    try:
        names = os.listdir(own.parent)
    except OSError:
        return
    for name in names:
        path = own.parent / name
        if _LEGACY_NAME.fullmatch(name) or (
            name.startswith(prefix)
            and name.endswith(".marshal")
            and name != own.name
            and not os.path.exists(_stamped_source(path) or "")
        ):
            with contextlib.suppress(OSError):
                os.unlink(path)
