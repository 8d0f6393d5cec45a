"""One cache slot per source, shared by the dictionary and index loaders and the tree scan.

A slot is ``<cache>/lexiscope/<kind>-<sha256 of the source's absolute
path>.marshal``, and every kind has the one layout

    sha256, key, head length, head, tail, stamp, stamp length

The sha256 is of all the rest but the tail.  The key is the content key
of the files the slot was written from; the two lengths are 8 bytes,
little-endian.  Head and tail are the loader's payload.  Only the
dictionary slot has a tail, its shards and class table; the index slot
(whose head holds locate's postings once they are built) and the tree
scan's have none, so a warm index or scan holds no open file.  The stamp is the marshalled
(source's absolute path, wall time in ns taken before the files were
read, each file's stat signature, each file's sha256).  A read reads the
key, the head and the stamp and checks them; a tail stays in the file,
and the loader reads and checks a piece of it when it needs that piece
(see Tail).  A slot is only ever replaced by rename, so the tail read
through an open slot is the one its head was written with.

A read stats the files.  A file whose signature is the stamp's and whose
mtime and ctime are older than the stamp's time by more than
RACY_WINDOW_NS has not changed since it was read, and its sha256 in the
stamp goes into the key; any other file is hashed (git's "racily clean"
rule, file by file).  The slot is used when its own sha256 checks out and
its key is the files'.  A read that hashed a file and finds the slot good
and every file settled writes the slot again under a new stamp, so the
next read trusts the stat.  A reader that finds the slot missing,
unreadable, damaged or written from other content gets None and parses
its source again; the write after the parse is skipped when a file
changed during it.  A loader that hashes the bytes it parses (the tree
scan) has them make the key, so its read hashes no file when there is no
slot, and a file is read once.  A source with a file that is there but
is not a regular file, such as a pipe, is never read from or written to
a slot: no key stands for bytes a read consumes.  Every write removes the
slots of its kind whose source is gone or that the reader turns away.  A
cache that cannot be written is skipped.  A slot is only ever a cache of
a parse: what a parse gave, or what a save writes right after its file
(see index.save_index) when the parse's rules accept its values and
would give each back as it is.  Such a save reads the slot first, as a
load does, and writes it only when the sha256 the read took of the file
is that of the bytes it wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import marshal
import os
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


class Tail:
    """The tail of a slot, read a piece at a time from the slot's file as it was opened.

    It holds the file's descriptor (no file object, which would warn when
    left to the collector) and closes it when it is collected.  A piece is
    read as bytes are sliced, tail[start:end], with os.pread, which reads
    at an offset without moving a shared position, so threads may read at
    once.  The bytes are as the file holds them now: whoever reads them
    checks them.
    """

    __slots__ = ("_fd", "_start", "_size")

    def __init__(self, fd: int, start: int, size: int):
        self._fd = fd
        self._start = start
        self._size = size

    def __del__(self, close=os.close):
        close(self._fd)

    def __reduce__(self):
        # A copy would close the descriptor this one reads when it is collected.
        raise TypeError(f"cannot copy or pickle a {type(self).__name__}: it holds an open file")

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, piece: slice) -> bytes:
        """Bytes start to end of the tail; fewer, or other ones, when the file was changed in place."""
        start, end, _ = piece.indices(self._size)
        return os.pread(self._fd, end - start, self._start + start)


def _open_slot(path: Path):
    """(key, head, tail, stamp) of the slot at path, or None for a missing or damaged one.

    Reads the sha256, the key, the head's length, the head and the stamp,
    and checks the sha256 over all of them but itself.  The tail is a Tail
    of the open file, or b"" when it is empty, and then no file stays open.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        size = os.fstat(fd).st_size
        start = os.pread(fd, 72, 0)
        end = os.pread(fd, 8, max(size - 8, 0))
        if len(start) < 72 or len(end) < 8:
            return None
        head_end = 72 + int.from_bytes(start[64:], "little")
        stamp_start = size - 8 - int.from_bytes(end, "little")
        if not head_end <= stamp_start:
            return None
        head = os.pread(fd, head_end - 72, 72)
        stamp = os.pread(fd, size - stamp_start, stamp_start)
        if len(head) != head_end - 72 or len(stamp) != size - stamp_start:
            return None
        digest = hashlib.sha256(start[32:])
        digest.update(head)
        digest.update(stamp)
        if digest.digest() != start[:32]:
            return None
        stamp = marshal.loads(stamp[:-8])
        tail = b""
        if head_end < stamp_start:
            tail, fd = Tail(fd, head_end, stamp_start - head_end), None
        return start[32:64], head, tail, stamp
    except (OSError, EOFError, ValueError, TypeError):
        return None
    finally:
        if fd is not None:
            os.close(fd)


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
        self.digests: tuple[bytes, ...] | None = None
        self.states = None
        self.tail: Tail | bytes = b""

    @classmethod
    def of(cls, kind: str, source, format_tag: bytes, files: list[Path]) -> Slot | None:
        """The slot of kind for source, or None when there is no cache."""
        path = slot_path(kind, source)
        return None if path is None else cls(path, source, format_tag, files)

    def read(self, parse_hashes: bool = False):
        """The head of the payload, when the slot was written from the files as they are now; else None.

        Stamps the files first, for write, and keeps the payload's tail in
        self.tail.  A loader whose parse hashes the bytes it reads passes
        parse_hashes, and their sha256s to write: a read that finds no slot
        then hashes no file.
        """
        self.time_ns = time.time_ns()
        self.states = _states(self.files)
        if self.states is None:
            return None
        opened = _open_slot(self.path)
        if opened is None and parse_hashes:
            return None
        stamped = self._stamped(None if opened is None else opened[3])
        try:
            digests = tuple(
                file_digest(path) if digest is None else digest for path, digest in zip(self.files, stamped)
            )
        except OSError:
            return None
        self.digests = digests
        self.key = content_key(self.format_tag, digests)
        if opened is None or opened[0] != self.key:
            return None
        _key, head, self.tail, _stamp = opened
        limit = self.time_ns - RACY_WINDOW_NS
        if None in stamped and all(changed is None or changed < limit for _, changed in self.states):
            self.write(head, tail=[self.tail[:]])
        return head

    def _stamped(self, stamp) -> list[bytes | None]:
        """Per file, the stamp's sha256 when the file is as the stamp saw it and settled before it; else None."""
        untrusted = [None] * len(self.files)
        try:
            source, time_ns, signatures, digests = stamp
        except (TypeError, ValueError):
            return untrusted
        if not (
            source == self.source
            and type(time_ns) is int
            and time_ns <= self.time_ns
            and type(signatures) is tuple
            and len(signatures) == len(self.files)
            and type(digests) is tuple
            and len(digests) == len(self.files)
            and all(type(digest) is bytes for digest in digests)
        ):
            return untrusted
        limit = time_ns - RACY_WINDOW_NS
        return [
            digest if signature == stamped_signature and (changed is None or changed < limit) else None
            for (signature, changed), stamped_signature, digest in zip(self.states, signatures, digests)
        ]

    def write(self, head: bytes, digests: list[bytes] | None = None, tail: list[bytes] | tuple = ()) -> None:
        """Store the payload's head and tail, under read's stamp, unless a file changed since.

        digests, when given, are the sha256s of the bytes the payload was
        parsed from, one per file, and make the key.  A cache that cannot be
        written is skipped.  The slot is written under a temporary name,
        which only its owner can read or write, and renamed into place, so a
        concurrent reader never reads a partial slot.
        """
        if self.states is None:
            return
        if digests is not None:
            self.digests = tuple(digests)
            self.key = content_key(self.format_tag, self.digests)
        if self.key is None or self.changed() is not None:
            return
        _sweep(self.path)
        import tempfile  # here, not at the top: only a parse or a new stamp writes

        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        except OSError:
            return
        signatures = tuple(signature for signature, _ in self.states)
        stamp = marshal.dumps((self.source, self.time_ns, signatures, self.digests))
        start = [self.key, len(head).to_bytes(8, "little"), head]
        end = [stamp, len(stamp).to_bytes(8, "little")]
        digest = hashlib.sha256()
        for chunk in (*start, *end):
            digest.update(chunk)
        try:
            with os.fdopen(handle, "wb") as out:
                out.write(digest.digest())
                out.writelines(start)
                out.writelines(tail)
                out.writelines(end)
            os.replace(temp, self.path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(temp)

    def changed(self) -> Path | None:
        """The first file whose stat is not what read found, or None when none changed since."""
        for path, state in zip(self.files, self.states):
            try:
                if _state(path) != state:
                    return path
            except OSError:
                return path
        return None


def _sweep(own: Path) -> None:
    """Remove the slots of own's kind whose source is gone, or that the slot reader turns away.

    A slot the reader turns away is damaged or of another format, which no
    read of this one uses; its stamp is only unmarshalled once the slot's
    sha256 checks out.  A reader that opened a removed slot still reads it
    through its open file; one that comes later finds no slot and parses.
    """
    prefix = own.name.split("-", 1)[0] + "-"
    try:
        names = os.listdir(own.parent)
    except OSError:
        return
    for name in names:
        if name.startswith(prefix) and name.endswith(".marshal") and name != own.name:
            opened = _open_slot(own.parent / name)
            stamp = None if opened is None else opened[3]
            if not (type(stamp) is tuple and stamp and type(stamp[0]) is str and os.path.exists(stamp[0])):
                with contextlib.suppress(OSError):
                    os.unlink(own.parent / name)
