import copy
import gc
import hashlib
import marshal
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexiscope._snapshot as snapshot_module
import lexiscope.lexicon as lexicon_module
from lexiscope._snapshot import _open_slot, content_key, slot_path
from lexiscope.lexicon import (
    HYPERNYM,
    HYPONYM,
    RELATIONS,
    SELF,
    SYNONYM,
    Lexicon,
    LexiconError,
    MalformedLineError,
    MissingFileError,
    PosTag,
    _parse_lexicon,
    best_first,
    classify,
    lemmatize,
    load_lexicon,
    related_words,
    surface_forms,
)

from cache_rules import CacheRules
from conftest import MINIDICT, subprocess_env, write_dict


def fixture_lemma_count():
    # Independent oracle: count distinct lemmas straight off the index files.
    lemmas = set()
    for name in ("index.noun", "index.verb", "index.adj", "index.adv"):
        for line in (MINIDICT / name).read_text().splitlines():
            if line.strip() and not line.startswith(" "):
                lemmas.add(line.split()[0])
    return len(lemmas)


# One line appended to a minidict file, and the synset key it adds when
# the line is accepted; None means the load must reject the line.
_APPENDED_LINES = [
    pytest.param("index.verb", "car n 1 0 1 0 00000001", None, id="misfiled-index-line"),
    pytest.param(
        "data.verb", "00000199 29 n 01 zap 0 000 | a noun synset among verbs", None,
        id="misfiled-data-line",
    ),
    pytest.param(
        "data.noun", "00000299 03 s 01 zap 0 000 | a satellite among nouns", None,
        id="satellite-outside-data-adj",
    ),
    pytest.param("index.noun", "car n 1 0 1 0 00000001", None, id="duplicate-lemma"),
    pytest.param("verb.exc", "went", None, id="exception-without-base-form"),
    pytest.param("index.noun", " zap n 1 0 1 0 00000001", None, id="indented-line-after-header"),
    pytest.param("verb.exc", " sped speed", None, id="indented-exception-line"),
    pytest.param("index.noun", "motorcar n 1 1 @ X 2 00000003", None, id="sense-count-not-a-number"),
    pytest.param("index.noun", "zebra n 1 -1 5 00000003", None, id="negative-index-pointer-count"),
    pytest.param("index.noun", "zebra n 1 0 -1 5 00000003", None, id="negative-sense-count"),
    pytest.param("index.noun", "zebra n 1 0 1 -5 00000003", None, id="negative-tag-sense-count"),
    pytest.param(
        "data.noun", "00000099 03 n 01 gnu 0 -2 @ 00000001 n 0000 | a pointer past its count", None,
        id="negative-data-pointer-count",
    ),
    pytest.param(
        "data.noun", "00000099 03 n 01 zap 0 001 @ 00000077 n 0000 | points nowhere", None,
        id="unresolved-pointer",
    ),
    pytest.param(
        "data.adj", "00000203 00 s 01 fresh 0 000 | a satellite", (203, PosTag.ADJECTIVE),
        id="satellite-in-data-adj",
    ),
    pytest.param(
        "data.noun",
        "00000015 03 n 01 finder 0 001 + 00000101 v 0101 | one who finds",
        (15, PosTag.NOUN),
        id="cross-pos-pointer",
    ),
]


class TestLoad:
    def test_entry_count_matches_index_files(self, lexicon):
        assert len(lexicon) == fixture_lemma_count() == 23

    def test_synset_counts(self, lexicon):
        assert Counter(pos for _offset, pos in lexicon.synsets) == {
            PosTag.NOUN: 14,
            PosTag.VERB: 6,
            PosTag.ADJECTIVE: 2,
            PosTag.ADVERB: 1,
        }

    def test_ten_lemma_dict_has_ten_entries(self, tmp_path):
        words = ["alpha", "bravo", "charlie", "delta", "echo",
                 "foxtrot", "golf", "hotel", "india", "juliet"]
        lex = load_lexicon(write_dict(tmp_path / "dict", nouns=words))
        assert len(lex) == len(words) == 10

    def test_empty_directory_is_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_lexicon(tmp_path)

    def test_partial_directory_is_missing_file(self, tmp_path):
        write_dict(tmp_path / "dict", nouns=["alpha"])
        (tmp_path / "dict" / "data.adv").unlink()
        with pytest.raises(MissingFileError, match="data.adv"):
            load_lexicon(tmp_path / "dict")

    def test_malformed_index_line_reports_file_and_line(self, tmp_path):
        root = write_dict(tmp_path / "dict", nouns=["alpha"])
        (root / "index.noun").write_text("alpha n x 0 1 1 00000001\n")
        with pytest.raises(MalformedLineError) as err:
            load_lexicon(root)
        assert err.value.file_name == "index.noun"
        assert err.value.line_number == 1

    def test_malformed_data_line_aborts(self, tmp_path):
        root = write_dict(tmp_path / "dict", nouns=["alpha"])
        (root / "data.noun").write_text("00000001 00 n ZZ alpha 0 000 | bad\n")
        with pytest.raises(MalformedLineError):
            load_lexicon(root)

    def test_dangling_index_offset_rejected(self, tmp_path):
        root = write_dict(tmp_path / "dict", nouns=["alpha"])
        (root / "index.noun").write_text("alpha n 1 0 1 1 00000099\n")
        with pytest.raises(MalformedLineError, match="00000099|99"):
            load_lexicon(root)

    @pytest.mark.parametrize("file_name, line, accepted_id", _APPENDED_LINES)
    def test_appended_line_is_checked(self, tmp_path, file_name, line, accepted_id):
        root = tmp_path / "dict"
        shutil.copytree(MINIDICT, root)
        with open(root / file_name, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        if accepted_id is not None:
            _lemmas, hypernyms, hyponyms = load_lexicon(root).synsets[accepted_id]
            assert hypernyms == hyponyms == ()
            return
        with pytest.raises(MalformedLineError) as err:
            load_lexicon(root)
        assert err.value.file_name == file_name
        assert err.value.line_number == len((root / file_name).read_text().splitlines())

    @pytest.mark.parametrize("file_name", ["data.noun", "index.verb", "verb.exc"])
    def test_undecodable_line_is_reported(self, tmp_path, file_name):
        # A long license header puts the bad byte past the first chunk a
        # text read decodes.
        root = tmp_path / "dict"
        shutil.copytree(MINIDICT, root)
        path = root / file_name
        header = b"" if file_name.endswith(".exc") else b"  license text, one of many lines\n" * 500
        path.write_bytes(header + path.read_bytes() + b"caf\xe9 cafe\n")
        with pytest.raises(MalformedLineError, match="not UTF-8") as err:
            load_lexicon(root)
        assert err.value.file_name == file_name
        assert err.value.line_number == path.read_bytes().count(b"\n")

    def test_satellite_adjective_and_marker(self, lexicon):
        entry = lexicon.entries.get("new")
        assert entry is not None
        assert list(entry) == [PosTag.ADJECTIVE]

    def test_determinism(self, lexicon):
        again = load_lexicon(MINIDICT)
        assert again.entries == lexicon.entries
        assert again.synsets == lexicon.synsets

    def test_marshal_round_trip(self):
        assert_marshals(_parse_lexicon(MINIDICT))


def _tables(lexicon):
    return lexicon.entries, lexicon.synsets, lexicon.exceptions


def _no_parse(root):
    raise AssertionError(f"parsed {root} with a valid snapshot present")


def _with_digest(payload):
    """A slot of payload, the slot's bytes after its sha256: that sha256, of all but the shards, then payload."""
    head_end = 40 + int.from_bytes(payload[32:40], "little")
    stamp_start = len(payload) - 8 - int.from_bytes(payload[-8:], "little")
    return hashlib.sha256(payload[:head_end] + payload[stamp_start:]).digest() + payload


_SHARDS = 1024

# The header's fields, in order.
_ENTRY_COUNT, _SYNSET_COUNT, _EXCEPTIONS, _ENTRY_STARTS, _SYNSET_STARTS, _BOUNDS, _DIGESTS = range(7)


def _split(data):
    """A slot's (header, shard bytes), read by the documented layout: digest, key, header size."""
    size = int.from_bytes(data[64:72], "little")
    return marshal.loads(data[72 : 72 + size]), data[72 + size :]


def _join(data, header, header_bytes=None):
    """The slot data with its header replaced by header (or header_bytes), the digest made valid."""
    if header_bytes is None:
        header_bytes = marshal.dumps(header)
    return _with_digest(data[32:64] + len(header_bytes).to_bytes(8, "little") + header_bytes + _split(data)[1])


def _stamp(data):
    """A slot's stamp and the stamp's length with its 8-byte length field."""
    size = int.from_bytes(data[-8:], "little")
    return marshal.loads(data[-8 - size : -8]), 8 + size


def _flipped(data, offset, bits):
    """data with the byte at offset xored with bits."""
    return data[:offset] + bytes([data[offset] ^ bits]) + data[offset + 1 :]


def _unstamped(data):
    """A slot's key and payload: the slot without its sha256 and its stamp."""
    return data[32 : len(data) - _stamp(data)[1]]


def _key(root=MINIDICT):
    """The content key of the dictionary under root: its files' sha256s, 32 zero bytes for one that is absent."""
    files = [root / name for name in lexicon_module._DICT_FILES]
    digests = [hashlib.sha256(path.read_bytes()).digest() if path.exists() else bytes(32) for path in files]
    return content_key(lexicon_module._SNAPSHOT_FORMAT, digests)


def _stored(path, root=MINIDICT):
    """The tables the slot at path holds for the dictionary under root, or None."""
    opened = _open_slot(path)
    if opened is None or opened[0] != _key(root):
        return None
    return lexicon_module._open_payload(*opened[1:3], lambda: pytest.fail(f"a shard of {path} is damaged"))


def _shard_tables(data):
    """The entries and synsets a snapshot's shards hold, every shard unmarshalled."""
    header, shards = _split(data)
    bounds = header[_BOUNDS]
    tables = ({}, {})
    for number in range(2 * _SHARDS):
        blob = shards[bounds[number] : bounds[number + 1]]
        if blob:
            tables[number // _SHARDS].update(marshal.loads(blob))
    return tables


def _damage_entry_shard(path, word, root=MINIDICT):
    """Flip a byte of the lemma shard that holds word in the slot at path, whose sha256 does not cover it.

    Returns the damaged slot's bytes.
    """
    data = path.read_bytes()
    header, tail = _split(data)
    number = bisect_right(header[_ENTRY_STARTS], word)
    low, high = header[_BOUNDS][number : number + 2]
    assert word in marshal.loads(tail[low:high])
    damaged = _flipped(data, len(data) - len(tail) + (low + high) // 2, 0x20)
    path.write_bytes(damaged)
    assert _open_slot(path)[0] == _key(root)  # the slot itself still checks out
    return damaged


def _damage_class_table(path, root=MINIDICT):
    """Flip a byte of the class table, the last piece of the slot at path's tail; the damaged slot's bytes."""
    data = path.read_bytes()
    header, tail = _split(data)
    low, high = header[_BOUNDS][-2:]
    assert "car" in marshal.loads(tail[low:high])
    damaged = _flipped(data, len(data) - len(tail) + (low + high) // 2, 0x20)
    path.write_bytes(damaged)
    assert _open_slot(path)[0] == _key(root)  # the slot itself still checks out
    return damaged


# The two kinds of tail piece: a lemma shard, which a lookup of "car"
# reaches, and the class table, which a classification reaches.
_DAMAGED_PIECES = (
    ("shard", lambda path, root: _damage_entry_shard(path, "car", root), lambda lexicon: lexicon.entries.get("car")),
    ("table", _damage_class_table, lambda lexicon: classify(lexicon, "cars")),
)


def _with_field(data, field, change):
    """data with one header field replaced by change(its value), the digest made valid."""
    header = list(_split(data)[0])
    header[field] = change(header[field])
    return _join(data, tuple(header))


def assert_same_mapping(table, expected, missing):
    """table answers get, [], in, len and iteration as the dict expected does."""
    keys = list(table)
    assert len(table) == len(keys) == len(expected)
    assert set(keys) == set(expected)
    for key, value in expected.items():
        assert table.get(key) == value
        assert table[key] == value
        assert key in table
    for key in missing:
        assert key not in expected
        assert table.get(key) is None
        assert table.get(key, "default") == "default"
        assert key not in table
        with pytest.raises(KeyError):
            table[key]
    assert table == expected


class TestSnapshot(CacheRules):
    kind, load, source = "lexicon", staticmethod(load_lexicon), MINIDICT
    edit = "index.noun", b"car n 1 1 @ 1 12 ", b"car n 1 1 @ 1 13 "

    def test_second_load_reads_the_snapshot(self, tmp_path, slots, monkeypatch):
        parsed = _parse_lexicon(MINIDICT)
        cold = load_lexicon(MINIDICT)
        [path] = slots.iterdir()
        assert path == slot_path("lexicon", MINIDICT)
        assert path.name == f"lexicon-{hashlib.sha256(os.fsencode(os.path.abspath(MINIDICT))).hexdigest()}.marshal"
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        data = path.read_bytes()
        (entry_count, synset_count, exceptions, entry_starts, synset_starts, bounds, digests), shards = _split(data)
        stamp, stamp_length = _stamp(data)
        # The slot's sha256 covers all but the shards; each shard has its own in the header.
        head_end = len(data) - len(shards)
        assert data[:32] == hashlib.sha256(data[32:head_end] + data[-stamp_length:]).digest()
        assert data[32:64] == _key()
        assert (entry_count, synset_count) == (len(parsed[0]), len(parsed[1]))
        assert exceptions == parsed[2]
        # 2 * _SHARDS shards, then the class table: one more bound and sha256.
        assert len(bounds) == 2 * _SHARDS + 2 and bounds[0] == 0 and bounds[-1] == len(shards) - stamp_length
        assert digests == b"".join(
            hashlib.sha256(shards[low:high]).digest() for low, high in zip(bounds, bounds[1:])
        )
        # The class table: every lemma in key order to its tag count per pos in PosTag order, None for a pos it lacks.
        table = marshal.loads(shards[bounds[-2] : bounds[-1]])
        assert list(table) == sorted(parsed[0])
        assert table == {
            lemma: tuple(entry[pos][0] if pos in entry else None for pos in PosTag) for lemma, entry in parsed[0].items()
        }
        # Equal count tuples are one object.
        assert len({*map(id, table.values())}) == len({*table.values()})
        source, _time_ns, signatures, digests = stamp
        files = [MINIDICT / name for name in lexicon_module._DICT_FILES]
        assert source == os.path.abspath(MINIDICT)
        assert signatures == tuple(
            (s.st_size, s.st_mtime_ns, s.st_ino, s.st_dev) if path.exists() else None
            for path, s in ((path, path.exists() and path.stat()) for path in files)
        )
        assert digests == tuple(hashlib.sha256(path.read_bytes()).digest() if path.exists() else bytes(32) for path in files)
        assert _shard_tables(data) == parsed[:2]
        # Each shard holds one range of sorted keys, which its start opens.
        for starts, first in ((entry_starts, 0), (synset_starts, _SHARDS)):
            assert len(starts) == _SHARDS - 1 and list(starts) == sorted(starts)
            for number in range(_SHARDS):
                blob = shards[bounds[first + number] : bounds[first + number + 1]]
                keys = list(marshal.loads(blob)) if blob else []
                assert keys == sorted(keys)
                assert all(number == 0 or starts[number - 1] <= key for key in keys)
                assert all(number == _SHARDS - 1 or key < starts[number] for key in keys)
        # A copy is another directory, so it has a slot of its own; the key
        # is the content alone, so both slots hold the same key and payload
        # under stamps of their own files.
        copy = tmp_path / "copy"
        shutil.copytree(MINIDICT, copy)
        load_lexicon(copy)
        copy_slot = slot_path("lexicon", copy)
        assert sorted(slots.iterdir()) == sorted([path, copy_slot])
        assert _unstamped(copy_slot.read_bytes()) == _unstamped(data)
        monkeypatch.setattr(lexicon_module, "_parse_lexicon", _no_parse)
        warm, warm_copy = load_lexicon(MINIDICT), load_lexicon(copy)
        assert _tables(cold) == _tables(warm) == _tables(warm_copy) == parsed

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda data: data[: len(data) // 2], id="truncated"),
            pytest.param(lambda data: data[:20], id="shorter-than-a-digest"),
            pytest.param(  # still unmarshals, to other words
                lambda data: data[:32] + data[32:].replace(b"vehicle", b"vehicla", 1),
                id="flipped-payload-byte",
            ),
            pytest.param(lambda data: _join(data, list(_split(data)[0])), id="marshalled-list"),
            pytest.param(lambda data: _with_field(data, _EXCEPTIONS, lambda _: []), id="list-for-a-table"),
            pytest.param(  # a header cut short, its length field to match
                lambda data: _join(data, None, marshal.dumps(_split(data)[0])[:-1]),
                id="marshal-eof",
            ),
            pytest.param(lambda data: _join(data, None, b"\xff"), id="marshal-bad-type-code"),
            pytest.param(
                lambda data: _with_field(data, _BOUNDS, lambda bounds: bounds[:-1] + (bounds[-1] + 1,)),
                id="offsets-past-the-end",
            ),
            pytest.param(
                lambda data: _with_field(data, _BOUNDS, lambda bounds: (0, bounds[-1]) + bounds[2:]),
                id="offsets-out-of-order",
            ),
            pytest.param(lambda data: _with_field(data, _BOUNDS, lambda bounds: bounds[:-1]), id="offset-table-short"),
            pytest.param(  # the last synset shard runs on over the class table's bytes
                lambda data: _with_field(data, _BOUNDS, lambda bounds: bounds[:-2] + bounds[-1:] * 2),
                id="empty-class-table",
            ),
            pytest.param(
                lambda data: _with_field(data, _ENTRY_STARTS, lambda starts: starts[::-1]), id="starts-out-of-order"
            ),
            pytest.param(lambda data: _with_field(data, _SYNSET_STARTS, lambda starts: starts[1:]), id="starts-short"),
            pytest.param(
                lambda data: _with_field(data, _SYNSET_STARTS, lambda starts: starts[:-1] + ("car",)),
                id="starts-of-two-types",
            ),
            pytest.param(  # a byte of the last shard, before the class table; the digest left as it was
                lambda data: _flipped(data, len(data) - len(_split(data)[1]) + _split(data)[0][_BOUNDS][-2] - 3, 0x20),
                id="damaged-shard",
            ),
            pytest.param(lambda data: _with_field(data, _ENTRY_COUNT, lambda _: 0), id="zero-count-over-shards"),
            pytest.param(lambda data: _with_field(data, _SYNSET_COUNT, lambda _: -1), id="negative-count"),
            pytest.param(lambda data: _with_field(data, _ENTRY_COUNT, str), id="count-not-an-int"),
            pytest.param(  # the format-1 file: the sha256, then the marshalled tables
                lambda data: _with_digest(marshal.dumps(_parse_lexicon(MINIDICT))), id="format-1",
            ),
            pytest.param(lambda data: _with_digest(data[64:]), id="format-3"),  # the sha256, then the payload
            pytest.param(lambda data: _with_digest(bytes(32) + data[64:]), id="other-key"),
        ],
    )
    def test_damaged_snapshot_is_parsed_again(self, slots, damage):
        parsed = _parse_lexicon(MINIDICT)
        load_lexicon(MINIDICT)
        [path] = slots.iterdir()
        path.write_bytes(damage(path.read_bytes()))
        lexicon = load_lexicon(MINIDICT)
        assert classify(lexicon, "cars") == ("car", PosTag.NOUN)
        assert _tables(lexicon) == parsed
        assert _stored(path) == parsed
        assert list(slots.iterdir()) == [path]

    def test_damaged_shard_that_no_lookup_reaches_is_never_parsed(self, slots, monkeypatch):
        parsed = _parse_lexicon(MINIDICT)
        load_lexicon(MINIDICT)
        [path] = slots.iterdir()
        damaged = _damage_entry_shard(path, "car")
        starts = _split(damaged)[0][_ENTRY_STARTS]
        monkeypatch.setattr(lexicon_module, "_parse_lexicon", _no_parse)
        lexicon = load_lexicon(MINIDICT)
        others = {word for word in parsed[0] if bisect_right(starts, word) != bisect_right(starts, "car")}
        assert others and "car" not in others
        assert {word: lexicon.entries[word] for word in others} == {word: parsed[0][word] for word in others}
        assert dict(lexicon.synsets) == parsed[1]
        assert lemmatize(lexicon, "vehicles") == [("vehicle", PosTag.NOUN)]
        assert path.read_bytes() == damaged

    def test_reaching_a_damaged_shard_answers_from_one_parse(self, slots, monkeypatch):
        parsed = _parse_lexicon(MINIDICT)
        parse = lexicon_module._parse_lexicon
        for piece, damage, reach in _DAMAGED_PIECES:
            load_lexicon(MINIDICT)
            [path] = slots.iterdir()
            damage(path, MINIDICT)
            lexicon = load_lexicon(MINIDICT)
            assert lexicon.entries["vehicle"] == parsed[0]["vehicle"], piece  # read from the slot
            parses = []
            with monkeypatch.context() as patch:
                patch.setattr(lexicon_module, "_parse_lexicon", lambda root: parses.append(root) or parse(root))
                with ThreadPoolExecutor(max_workers=4) as pool:
                    found = list(pool.map(lambda _: reach(lexicon), range(8)))
                assert found == [reach(Lexicon(*parsed))] * 8, piece
                assert _tables(lexicon) == parsed
                assert classify(lexicon, "cars") == ("car", PosTag.NOUN)
                assert parses == [MINIDICT], piece
            # The slot is written again, every piece of it good.
            assert _stored(path) == parsed
            assert classify(Lexicon(*_stored(path)), "cars") == ("car", PosTag.NOUN)
            assert list(slots.iterdir()) == [path]
            with monkeypatch.context() as patch:
                patch.setattr(lexicon_module, "_parse_lexicon", _no_parse)
                assert _tables(load_lexicon(MINIDICT)) == parsed

    @pytest.mark.parametrize("when", ["before the parse", "during the parse"])
    def test_dictionary_edited_since_the_load_is_an_error_at_a_damaged_shard(self, tmp_path, slots, monkeypatch, when):
        for piece, damage, reach in _DAMAGED_PIECES:
            root = tmp_path / piece
            shutil.copytree(MINIDICT, root)
            load_lexicon(root)
            path = slot_path("lexicon", root)
            damaged = damage(path, root)
            lexicon = load_lexicon(root)
            assert lexicon.entries.get("vehicle") is not None
            index = root / "index.noun"

            def edit():
                index.write_text(index.read_text().replace("car n 1 1 @ 1 12 ", "car n 1 1 @ 1 13 "))

            with monkeypatch.context() as patch:
                if when == "before the parse":
                    edit()
                else:
                    parse = lexicon_module._parse_lexicon
                    patch.setattr(lexicon_module, "_parse_lexicon", lambda root: (edit(), parse(root))[1])
                for _ in range(2):
                    with pytest.raises(LexiconError, match=f"{index} changed since the dictionary was loaded"):
                        reach(lexicon)
            assert path.read_bytes() == damaged
            assert load_lexicon(root).entries["car"][PosTag.NOUN][0] == 13

    def test_warm_load_hashes_no_shard(self, slots, monkeypatch):
        load_lexicon(MINIDICT)
        [path] = slots.iterdir()
        data = path.read_bytes()
        (*_, entry_starts, _synset_starts, bounds, _digests), tail = _split(data)
        shards = [tail[low:high] for low, high in zip(bounds, bounds[1:])]
        hashed = []

        class Counting:
            def __init__(self, data=b""):
                self._sha256 = hashlib.sha256()
                self.update(data)

            def update(self, data):
                hashed.append(bytes(data))
                self._sha256.update(data)

            def digest(self):
                return self._sha256.digest()

            def hexdigest(self):
                return self._sha256.hexdigest()

        for module in (snapshot_module, lexicon_module):
            monkeypatch.setattr(module, "hashlib", SimpleNamespace(sha256=Counting))
        lexicon = load_lexicon(MINIDICT)
        assert hashed and not [chunk for chunk in hashed for shard in shards if shard and shard in chunk]
        del hashed[:]
        assert lexicon.entries["car"]
        assert hashed == [shards[bisect_right(entry_starts, "car")]]

    def test_no_cache_builds_no_payload(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "cache")
        monkeypatch.setenv("HOME", "home")

        def no_payload(tables):
            raise AssertionError("built a snapshot payload with no cache")

        monkeypatch.setattr(lexicon_module, "_snapshot_payload", no_payload)
        assert _tables(load_lexicon(MINIDICT)) == _parse_lexicon(MINIDICT)

    def test_edited_file_is_parsed_again(self, tmp_path, slots):
        # Same length and the same mtime: only the content tells the edit.
        root = tmp_path / "dict"
        shutil.copytree(MINIDICT, root)
        assert load_lexicon(root).entries["car"][PosTag.NOUN][0] == 12
        index = root / "index.noun"
        stat = index.stat()
        edited = index.read_text().replace("car n 1 1 @ 1 12 ", "car n 1 1 @ 1 13 ")
        index.write_text(edited)
        os.utime(index, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert index.stat().st_size == stat.st_size
        reloaded = load_lexicon(root)
        assert reloaded.entries["car"][PosTag.NOUN][0] == 13
        assert _tables(reloaded) == _parse_lexicon(root)
        # The edit replaced the directory's one slot.
        [path] = slots.iterdir()
        assert _stored(path, root) == _parse_lexicon(root)

    @pytest.mark.parametrize(
        "file_name, line, accepted_id",
        [case for case in _APPENDED_LINES if case.values[2] is None],
    )
    def test_malformed_dictionary_is_rejected_past_a_snapshot(
        self, tmp_path, slots, file_name, line, accepted_id
    ):
        root = tmp_path / "dict"
        shutil.copytree(MINIDICT, root)
        load_lexicon(root)
        before = list(slots.iterdir())
        with open(root / file_name, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(MalformedLineError) as err:
            load_lexicon(root)
        assert err.value.file_name == file_name
        assert err.value.line_number == len((root / file_name).read_text().splitlines())
        assert list(slots.iterdir()) == before

    def test_missing_file_is_reported_past_a_snapshot(self, tmp_path, slots):
        root = tmp_path / "dict"
        shutil.copytree(MINIDICT, root)
        load_lexicon(root)
        (root / "data.adv").unlink()
        with pytest.raises(MissingFileError, match="data.adv"):
            load_lexicon(root)

    def test_tables_answer_as_the_parse(self, slots):
        entries, synsets, exceptions = _parse_lexicon(MINIDICT)
        cold = load_lexicon(MINIDICT)
        warm = load_lexicon(MINIDICT)
        for lexicon in (cold, warm):
            assert_same_mapping(lexicon.entries, entries, ["values", "qqzx", "CAR", "car\u2028", "\ud800", 7, None])
            assert_same_mapping(
                lexicon.synsets, synsets,
                [(1, PosTag.ADVERB), (-5, 1), (float("nan"), 1), (float("inf"), 1), "ab", (1,), 3, None],
            )
            assert lexicon.exceptions == exceptions
            assert len(lexicon) == len(entries)

    def test_deep_copy_of_a_warm_lexicon_leaves_its_snapshot_open(self, slots, lexicon):
        words = sorted(_parse_lexicon(MINIDICT)[0])
        load_lexicon(MINIDICT)
        warm = load_lexicon(MINIDICT)  # read from the snapshot, no shard loaded yet
        with pytest.raises(TypeError):
            copy.deepcopy(warm)
        gc.collect()  # a copied snapshot file, collected, would close the one warm reads
        assert [classify(warm, word) for word in words] == [classify(lexicon, word) for word in words]

    def test_equal_keys_find_one_synset(self, lexicon):
        key = next(iter(lexicon.synsets))
        assert lexicon.synsets[(float(key[0]), PosTag(key[1]))] == lexicon.synsets[key]
        assert (float(key[0]) + 0.5, key[1]) not in lexicon.synsets

    def test_snapshot_does_not_depend_on_the_hash_seed(self, tmp_path):
        written = []
        for seed in ("1", "2"):
            cache = tmp_path / f"cache-{seed}"
            env = subprocess_env(PYTHONHASHSEED=seed, XDG_CACHE_HOME=str(cache))
            subprocess.run(
                [sys.executable, "-c", "import sys; from lexiscope.lexicon import load_lexicon; load_lexicon(sys.argv[1])",
                 str(MINIDICT)],
                env=env, check=True,
            )
            [path] = (cache / "lexiscope").iterdir()
            written.append((path.name, _unstamped(path.read_bytes())))
        assert written[0] == written[1]

    def test_threads_reading_one_fresh_lexicon_agree(self, slots):
        entries, synsets, _exceptions = _parse_lexicon(MINIDICT)
        load_lexicon(MINIDICT)
        fresh = load_lexicon(MINIDICT)  # read from the snapshot, no shard loaded yet

        def read(order):
            return (
                [(word, fresh.entries.get(word)) for word in order]
                + [(key, fresh.synsets[key]) for key in sorted(synsets)]
            )

        orders = [sorted(entries, reverse=bool(n % 2)) + ["qqzx"] for n in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside a shard load too
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read, order) for order in orders]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for order, result in zip(orders, results):
            assert result == [(word, entries.get(word)) for word in order] + sorted(synsets.items())


class TestRealisticFormat:
    """Lines shaped like the real WordNet 3.1 database files."""

    def _write(self, root):
        root.mkdir()
        (root / "data.noun").write_text(
            "  1 license header line\n"
            "00001740 03 n 02 sports_car 0 sport_car 0 003 @ 00001850 n 0000"
            " #p 00001850 n 0000 %p 00001850 n 0000 | a fast low car\n"
            "00001850 03 n 01 machine 0 002 ~ 00001740 n 0000 + 00002100 v 0101"
            " | a device with moving parts\n"
        )
        (root / "index.noun").write_text(
            "  1 license header line\n"
            "machine n 1 2 ~ + 1 4 00001850\n"
            "sport_car n 1 1 @ 1 0 00001740\n"
            "sports_car n 1 1 @ 1 1 00001740\n"
        )
        (root / "data.verb").write_text(
            "00002100 38 v 02 machine 0 tool 1 001 + 00001850 n 0101"
            " 02 + 08 00 + 11 00 | turn on a machine tool\n"
        )
        (root / "index.verb").write_text("machine v 1 1 + 1 2 00002100\ntool v 1 1 + 1 0 00002100\n")
        (root / "data.adj").write_text(
            "00003000 00 s 02 fast(p) 0 quick 0 001 & 00003000 a 0000 | acting in a short time\n"
        )
        (root / "index.adj").write_text("fast a 1 1 & 1 9 00003000\nquick a 1 1 & 1 3 00003000\n")
        (root / "data.adv").write_text("")
        (root / "index.adv").write_text("")
        return root

    def test_loads_and_keeps_only_isa_pointers(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        assert len(lex) == 6
        lemmas, hypernyms, _hyponyms = lex.synsets[(1740, PosTag.NOUN)]
        assert lemmas == ("sports_car", "sport_car")
        assert hypernyms == ((1850, PosTag.NOUN),)
        _lemmas, _hypernyms, hyponyms = lex.synsets[(1850, PosTag.NOUN)]
        assert hyponyms == ((1740, PosTag.NOUN),)

    def test_verb_frames_and_cross_pos_pointers_skipped(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        assert lex.synsets[(2100, PosTag.VERB)] == (("machine", "tool"), (), ())

    def test_satellite_and_marker_normalization(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        lemmas, _hypernyms, _hyponyms = lex.synsets[(3000, PosTag.ADJECTIVE)]
        assert lemmas == ("fast", "quick")
        assert list(lex.entries.get("fast")) == [PosTag.ADJECTIVE]

    def test_multi_word_lemma_and_synonyms(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        related = related_words(lex, "sports_car", {SYNONYM, HYPERNYM}, 1)
        assert ("sport_car", SYNONYM, 1) in related
        assert ("machine", HYPERNYM, 1) in related

    def test_tag_counts_rank_pos(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        # machine: noun tag count 4 vs verb 2 -> noun
        assert classify(lex, "machine")[1] == PosTag.NOUN
        # tool: only verb, tag count 0 -> still verb
        assert classify(lex, "tool")[1] == PosTag.VERB


class TestConcurrentReaders:
    def test_parallel_queries_match_sequential(self, lexicon):
        from concurrent.futures import ThreadPoolExecutor

        words = sorted(lexicon.entries) + ["running", "values", "qqzx"]

        def probe(word):
            return (
                word,
                classify(lexicon, word),
                sorted(related_words(lexicon, word, RELATIONS, 2)),
            )

        sequential = [probe(w) for w in words]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(probe, words))
        assert parallel == sequential


class TestLookup:
    def test_good_is_noun_and_adjective(self, lexicon):
        entry = lexicon.entries.get("good")
        assert {PosTag.NOUN, PosTag.ADJECTIVE} <= set(entry)

    def test_unknown_word_absent(self, lexicon):
        assert lexicon.entries.get("qqzx") is None

    def test_set_is_noun_and_verb(self, lexicon):
        entry = lexicon.entries.get("set")
        assert {PosTag.NOUN, PosTag.VERB} <= set(entry)

    def test_no_morphology_applied(self, lexicon):
        assert lexicon.entries.get("values") is None


class TestLemmatize:
    def test_plural_detaches(self, lexicon):
        assert ("value", PosTag.NOUN) in lemmatize(lexicon, "values")

    def test_identity_for_index_lemma(self, lexicon):
        results = lemmatize(lexicon, "data")
        assert results[0] == ("data", PosTag.NOUN)

    def test_consonant_doubling_undo(self, lexicon):
        assert ("run", PosTag.VERB) in lemmatize(lexicon, "running")

    def test_exception_list(self, lexicon):
        assert ("find", PosTag.VERB) in lemmatize(lexicon, "found")
        assert ("run", PosTag.VERB) in lemmatize(lexicon, "ran")

    def test_exact_matches_first(self, lexicon):
        results = lemmatize(lexicon, "set")
        assert results[0][0] == "set"

    def test_unrecognized_is_empty(self, lexicon):
        assert lemmatize(lexicon, "qqzx") == []

    def test_no_duplicates(self, lexicon):
        results = lemmatize(lexicon, "values")
        assert len(results) == len(set(results))


class TestPrimaryPos:
    def test_value_is_noun_by_tag_count(self, lexicon):
        # index fixture: value noun 30 vs verb 5
        assert classify(lexicon, "value")[1] == PosTag.NOUN

    def test_set_is_verb_by_tag_count(self, lexicon):
        # index fixture: set noun 7 vs verb 21
        assert classify(lexicon, "set")[1] == PosTag.VERB

    def test_unknown_is_none(self, lexicon):
        assert classify(lexicon, "xyzzy") is None

    def test_good_gets_exactly_one_pos(self, lexicon):
        assert classify(lexicon, "good")[1] == PosTag.ADJECTIVE

    def test_tie_breaks_noun_first(self, tmp_path):
        root = write_dict(tmp_path / "dict", nouns=["light"], verbs=["light"])
        lex = load_lexicon(root)
        assert classify(lex, "light")[1] == PosTag.NOUN

    def test_first_candidate_of_the_top_count_wins(self, tmp_path):
        # axes detaches to axe (-s, then -es + e) before ax (-es); one tag count each.
        lex = load_lexicon(write_dict(tmp_path / "dict", verbs=["ax", "axe"]))
        assert lemmatize(lex, "axes") == [("axe", PosTag.VERB), ("ax", PosTag.VERB)]
        assert classify(lex, "axes") == ("axe", PosTag.VERB)

    def test_classify_picks_best_lemma(self, lexicon):
        assert classify(lexicon, "values") == ("value", PosTag.NOUN)
        assert classify(lexicon, "running") == ("run", PosTag.VERB)


class TestRelatedWords:
    def test_get_is_hypernym_of_find(self, lexicon):
        related = related_words(lexicon, "find", {HYPERNYM}, 1)
        assert ("get", HYPERNYM, 1) in related

    def test_type_is_hyponym_of_form(self, lexicon):
        related = related_words(lexicon, "form", {HYPONYM}, 1)
        assert ("type", HYPONYM, 1) in related

    def test_vehicle_is_hypernym_of_car(self, lexicon):
        related = related_words(lexicon, "car", {HYPERNYM}, 1)
        assert ("vehicle", HYPERNYM, 1) in related

    def test_synonyms_are_co_members(self, lexicon):
        related = related_words(lexicon, "car", {SYNONYM}, 1)
        assert ("auto", SYNONYM, 1) in related
        assert all(rel != SYNONYM or word != "car" for word, rel, _ in related)

    def test_empty_relations_depth_zero(self, lexicon):
        assert related_words(lexicon, "car", set(), 0) == {("car", SELF, 0)}

    def test_unknown_word_only_self(self, lexicon):
        assert related_words(lexicon, "qqzx", RELATIONS, 3) == {("qqzx", SELF, 0)}

    def test_depth_two_reaches_grandparent(self, lexicon):
        related = related_words(lexicon, "car", {HYPERNYM}, 2)
        assert ("vehicle", HYPERNYM, 1) in related
        assert ("conveyance", HYPERNYM, 2) in related
        assert ("transport", HYPERNYM, 2) in related

    def test_monotone_in_depth_and_relations(self, lexicon):
        for word in ("car", "find", "form", "set", "qqzx"):
            shallow = related_words(lexicon, word, {HYPERNYM}, 1)
            deeper = related_words(lexicon, word, {HYPERNYM}, 3)
            wider = related_words(lexicon, word, RELATIONS, 1)
            assert shallow <= deeper
            assert shallow <= related_words(lexicon, word, RELATIONS, 3)
            assert related_words(lexicon, word, set(), 1) <= wider

    def test_hypernym_hyponym_symmetry(self, lexicon):
        # a in hyponyms(b) <=> b in hypernyms(a), over all fixture lemma pairs
        lemmas = list(lexicon.entries)
        for a in lemmas:
            hypernyms_of_a = {
                word for word, rel, _ in related_words(lexicon, a, {HYPERNYM}, 1) if rel == HYPERNYM
            }
            for b in lemmas:
                hyponyms_of_b = {
                    word for word, rel, _ in related_words(lexicon, b, {HYPONYM}, 1) if rel == HYPONYM
                }
                assert (a in hyponyms_of_b) == (b in hypernyms_of_a)


_WORDS = ("form", "shape", "car", "sports_car", "Nile", "run")
_FILES = (
    (PosTag.NOUN, "noun", "n"),
    (PosTag.VERB, "verb", "v"),
    (PosTag.ADJECTIVE, "adj", "a"),
    (PosTag.ADVERB, "adv", "r"),
)


@st.composite
def _dictionaries(draw):
    """A small dictionary model over all four parts of speech, rendered to WordNet text.

    Returns the files by name and the entries, synsets and exception tables
    load_lexicon should build from them.
    """
    files, entries, synsets, exceptions = {}, {}, {}, {}
    for tag, suffix, char in _FILES:
        offsets = draw(st.lists(st.integers(1, 99_999_999), max_size=4, unique=True))
        types = {
            offset: draw(st.sampled_from("as")) if tag is PosTag.ADJECTIVE else char
            for offset in offsets
        }
        words = {offset: draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3, unique=True))
                 for offset in offsets}
        pointers = {offset: [] for offset in offsets}
        for _ in range(draw(st.integers(0, 3)) if len(offsets) > 1 else 0):
            upper, lower = draw(st.permutations(offsets))[:2]
            instance = "i" if draw(st.booleans()) else ""
            pointers[lower].append(("@" + instance, upper))
            pointers[upper].append(("~" + instance, lower))
        header = "  1 license text, skipped\n" if draw(st.booleans()) else ""

        data = header
        senses: dict[str, list[int]] = {}
        for offset in offsets:
            markers = ("", "(p)", "(ip)") if tag is PosTag.ADJECTIVE else ("",)
            rendered = [word + draw(st.sampled_from(markers)) for word in words[offset]]
            extra = [("+", draw(st.sampled_from(offsets)))] if draw(st.booleans()) else []
            links = pointers[offset] + extra
            data += (
                f"{offset:08d} 03 {types[offset]} {len(rendered):02x} "
                + "".join(f"{word} 0 " for word in rendered)
                + f"{len(links):03d}"
                + "".join(f" {symbol} {target:08d} {types[target]} 0000" for symbol, target in links)
                + (" 01 + 08 00" if tag is PosTag.VERB else "")
                + " | a gloss\n"
            )
            lemmas = tuple(word.lower() for word in words[offset])
            synsets[(offset, tag)] = (
                lemmas,
                tuple((t, tag) for symbol, t in pointers[offset] if symbol[0] == "@"),
                tuple((t, tag) for symbol, t in pointers[offset] if symbol[0] == "~"),
            )
            for lemma in lemmas:
                senses.setdefault(lemma, []).append(offset)

        index = header
        for lemma, lemma_offsets in sorted(senses.items()):
            ordered = draw(st.permutations(lemma_offsets))
            tag_count = draw(st.integers(0, 40))
            symbols = sorted({symbol for o in ordered for symbol, _ in pointers[o]})
            index += (
                f"{lemma} {char} {len(ordered)} {len(symbols)} "
                + "".join(f"{symbol} " for symbol in symbols)
                + f"{len(ordered)} {tag_count} "
                + " ".join(f"{offset:08d}" for offset in ordered)
                + "  \n"
            )
            entries.setdefault(lemma, {})[tag] = (tag_count, tuple((offset, tag) for offset in ordered))
        files[f"data.{suffix}"] = data
        files[f"index.{suffix}"] = index

        if draw(st.booleans()):
            table = draw(st.dictionaries(
                st.sampled_from(("ran", "went", "Geese")),
                st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2),
                max_size=3,
            ))
            files[f"{suffix}.exc"] = "".join(f"{k} {' '.join(v)}\n" for k, v in table.items())
            exceptions[tag] = {k.lower(): tuple(w.lower() for w in v) for k, v in table.items()}
    return files, entries, synsets, exceptions


@settings(max_examples=150, deadline=None)
@given(_dictionaries())
def test_load_returns_the_modelled_dictionary(case):
    # Loaded twice into a cache of its own: the first load parses and writes
    # the snapshot, the second reads it.
    files, entries, synsets, exceptions = case
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        root = Path(directory) / "dict"
        root.mkdir()
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        patch.setenv("XDG_CACHE_HOME", str(Path(directory) / "cache"))
        parsed = _parse_lexicon(root)
        cold = load_lexicon(root)
        assert len(list((Path(directory) / "cache" / "lexiscope").iterdir())) == 1
        patch.setattr(lexicon_module, "_parse_lexicon", _no_parse)
        warm = load_lexicon(root)
    missing_entries = ["zork", "", "Car", "car "]
    missing_synsets = [(0, PosTag.NOUN), (100_000_000, PosTag.VERB), (1, 5), (1.5, 1), "car", (1, 2, 3)]
    for lexicon in (cold, warm):
        assert_same_mapping(lexicon.entries, entries, missing_entries)
        assert_same_mapping(lexicon.synsets, synsets, missing_synsets)
        assert lexicon.exceptions == exceptions
        assert _tables(lexicon) == parsed
    assert_marshals(parsed)


def _reference_lemmatize(lexicon, token):
    """lemmatize as first written: every rule of every part of speech, a closure and a seen-set."""
    candidates = []
    seen = set()

    def push(lemma, pos):
        entry = lexicon.entries.get(lemma)
        if entry is None or pos not in entry:
            return
        if (lemma, pos) not in seen:
            seen.add((lemma, pos))
            candidates.append((lemma, pos))

    for pos in PosTag:
        push(token, pos)
    for pos in PosTag:
        for lemma in lexicon.exceptions.get(pos, {}).get(token, ()):
            push(lemma, pos)
    for pos in PosTag:
        for suffix, replacement in lexicon_module._DETACHMENTS[pos]:
            if not token.endswith(suffix) or len(token) <= len(suffix):
                continue
            stem = token[: -len(suffix)] + replacement
            push(stem, pos)
            if suffix in ("ing", "ed") and not replacement and lexicon_module._ends_doubled(stem):
                push(stem[:-1], pos)
    return candidates


def _reference_classify(lexicon, word):
    """classify as first written, over the candidate list of _reference_lemmatize."""
    best = {}
    for lemma, pos in _reference_lemmatize(lexicon, word.lower()):
        count = lexicon.entries[lemma][pos][0]
        if pos not in best or count > best[pos][0]:
            best[pos] = (count, lemma)
    if not best:
        return None
    pos = max(best, key=lambda tag: (best[tag][0], -tag))
    return best[pos][1], pos


def test_classify_and_lemmatize_match_their_references_on_minidict(lexicon):
    words = [*lexicon.entries, "values", "running", "found", "ran", "Cars", "CAR", "goods", "shaped",
             "setting", "sets", "", "s", "ing", "qqzx", "runned"]
    # Every exception, detachment and undoubling form of each part of speech, in three cases.
    words += [case(form) for form in sorted(surface_forms(lexicon, lexicon.entries))
              for case in (str, str.upper, str.capitalize)]
    for word in words:
        assert lemmatize(lexicon, word) == _reference_lemmatize(lexicon, word), word
        assert classify(lexicon, word) == _reference_classify(lexicon, word), word


def assert_marshals(tables):
    # The parsed tables are plain data: marshal takes them whole and gives them back equal.
    assert marshal.loads(marshal.dumps(tables)) == tables


class TestBestFirst:
    def test_self_then_distance_relation_word(self):
        triples = {
            ("zeta", HYPONYM, 1),
            ("alpha", HYPERNYM, 2),
            ("beta", SYNONYM, 1),
            ("omega", SELF, 0),
            ("gamma", HYPERNYM, 1),
            ("delta", HYPONYM, 1),
            ("acme", HYPONYM, 2),
        }
        assert best_first(triples) == [
            ("omega", SELF, 0),
            ("beta", SYNONYM, 1),
            ("gamma", HYPERNYM, 1),
            ("delta", HYPONYM, 1),
            ("zeta", HYPONYM, 1),
            ("alpha", HYPERNYM, 2),
            ("acme", HYPONYM, 2),
        ]

    def test_car_at_depth_two(self, lexicon):
        assert best_first(related_words(lexicon, "car", RELATIONS, 2)) == [
            ("car", SELF, 0),
            ("auto", SYNONYM, 1),
            ("vehicle", HYPERNYM, 1),
            ("conveyance", HYPERNYM, 2),
            ("transport", HYPERNYM, 2),
        ]
