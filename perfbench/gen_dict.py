"""Seeded generator of a WordNet-scale dictionary in the WordNet 3.x layout.

Writes the eight ``index.<pos>`` / ``data.<pos>`` files plus the four
``<pos>.exc`` files.  The shape follows WordNet 3.0: about 117k synsets,
a license header whose lines start with spaces, glosses with quoted
examples, every pointer symbol, verb frames, satellite (``s``) adjective
synsets, adjective markers such as ``(p)``, multiword ``_`` lemmas and
true byte offsets.  The same seed always gives the same bytes.

``generate_dictionary`` returns a ``Dictionary`` model that the corpus
generator draws identifiers and planted concepts from, and that the
benchmark checks ``load_lexicon`` against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# (file suffix, synset type, synset count) as in WordNet 3.0.
POS_PLAN = (("noun", "n", 82115), ("verb", "v", 13767), ("adj", "a", 18156), ("adv", "r", 3621))

# Words Java reserves or the scanner treats as keywords; never lemmas, so
# that any single-word lemma is a safe identifier fragment.
JAVA_WORDS = frozenset("""
abstract assert boolean break byte case catch char class const continue default do
double else enum extends final finally float for goto if implements import instanceof
int interface long native new package private protected public return short static
strictfp super switch synchronized this throw throws transient try void volatile while
true false null var record sealed permits yield non exports module open opens requires
uses provides transitive to with
""".split())

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "z", "br", "cl", "dr", "fl", "gr", "pl", "pr", "sk", "sl", "sp",
           "st", "tr", "ch", "sh", "th", "qu")
_NUCLEI = ("a", "e", "i", "o", "u", "a", "e", "o", "ai", "ea", "ou", "io")
_CODAS = ("", "", "", "n", "r", "l", "s", "t", "m", "nd", "rt", "st", "ck", "ng")
_SYLLABLES = (1, 2, 2, 3)
# Synset sizes drawn uniformly from this list: 58% one word, 25% two, ...
_SIZES = (1,) * 58 + (2,) * 25 + (3,) * 10 + (4,) * 4 + (5,) * 2 + (6,)

# Pointer symbols that WordNet answers with a pointer back from the target
# (symbol -> returned symbol).  The loader keeps only @, @i, ~ and ~i and
# must parse past every other symbol.
MIRRORED = {"@": "~", "@i": "~i", "#m": "%m", "#s": "%s", "#p": "%p",
            ";c": "-c", ";r": "-r", ";u": "-u", "!": "!", "+": "+", "=": "=",
            "&": "&", "$": "$"}

_LICENSE = """\
This dictionary was generated from a seed for benchmarking only.
Its words are invented strings; none of them is meant to be English.
The layout follows the WordNet 3.0 database files: a header of lines
that start with spaces, then one record per line.  Data records begin
with their own byte offset, so a reader may seek to any synset.
Index records list every sense of a lemma in sense order.
Pointer fields name a symbol, a target offset, a part of speech and a
source/target word pair in hexadecimal.  Verb records add frames.
Glosses follow a vertical bar and may hold quoted examples.
THE GENERATED FILES ARE PROVIDED AS IS, WITHOUT WARRANTY OF ANY KIND,
EXPRESS OR IMPLIED.  USE THEM ONLY TO EXERCISE DICTIONARY READERS.
"""


@dataclass
class Synset:
    pos: str                 # n, v, a, s or r
    words: list[str]         # lemmas, lowercase, '_' for multiword
    pointers: list = field(default_factory=list)  # (symbol, target index, src/tgt hex)
    head: str = ""           # data line fields between the offset and the pointer count
    tail: str = ""           # verb frames, then '| gloss'
    offset: int = 0

    def line_length(self) -> int:
        pointers = sum(len(symbol) + 17 for symbol, _t, _l in self.pointers)
        return 13 + len(self.head) + pointers + 1 + len(self.tail) + 3


@dataclass
class Dictionary:
    """What the generator wrote, for the corpus generator and the checks."""

    synsets: list[Synset]
    senses: dict[tuple[str, str], list[int]]   # (lemma, file pos) -> synset indexes
    ranked_words: list[str]   # single-word lemmas, most senses first
    nonwords: list[str]       # strings that no lemma, inflection or exception matches
    entries: int              # distinct index lemmas (what load_lexicon counts)
    synset_counts: dict[str, int]

    def hypernyms(self, index: int) -> list[int]:
        return [t for sym, t, _ in self.synsets[index].pointers if sym in ("@", "@i")]


def _invent_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    rand = rng.random
    words = []
    while len(words) < count:
        parts = [_ONSETS[int(rand() * len(_ONSETS))] + _NUCLEI[int(rand() * len(_NUCLEI))]
                 for _ in range(_SYLLABLES[int(rand() * 4)])]
        word = "".join(parts) + _CODAS[int(rand() * len(_CODAS))]
        if len(word) < 4 or word in taken or word in JAVA_WORDS or not word.isalpha():
            continue
        if word.endswith(("s", "ed", "ing", "er", "est", "ies", "es")):
            continue  # keep inflected corpus forms unambiguous
        taken.add(word)
        words.append(word)
    return words


def _build_synsets(rng: random.Random, pool: list[str], multi: list[str], scale: float) -> list[Synset]:
    rand = rng.random
    synsets: list[Synset] = []
    used: list[str] = []
    fresh = iter(pool)
    fresh_multi = iter(multi)
    for suffix, pos, count in POS_PLAN:
        for i in range(max(20, int(count * scale))):
            ss_type = pos
            if pos == "a" and i % 5 >= 2:
                ss_type = "s"  # about 60% satellites, as in WordNet
            size = _SIZES[int(rand() * len(_SIZES))]
            words: list[str] = []
            while len(words) < size:
                roll = rand()
                if roll < 0.2 and pos in ("n", "v"):
                    word = next(fresh_multi)
                elif roll < 0.63 or not used:
                    word = next(fresh)
                    used.append(word)
                else:
                    word = used[int(len(used) * rand() ** 3)]
                if word not in words:
                    words.append(word)
            synsets.append(Synset(ss_type, words))
    return synsets


def _link(synsets: list[Synset], a: int, b: int, symbol: str, lexical: str = "0000") -> None:
    synsets[a].pointers.append((symbol, b, lexical))
    back = MIRRORED.get(symbol)
    if back is not None:
        reverse = lexical[2:] + lexical[:2]
        synsets[b].pointers.append((back, a, reverse))


def _add_pointers(rng: random.Random, synsets: list[Synset]) -> None:
    by_pos: dict[str, list[int]] = {}
    for index, synset in enumerate(synsets):
        by_pos.setdefault("a" if synset.pos == "s" else synset.pos, []).append(index)
    nouns, verbs, adjs, advs = by_pos["n"], by_pos["v"], by_pos["a"], by_pos["r"]

    rand = rng.random
    # Is-a forests: each synset hangs off a random earlier one.
    for members, roots in ((nouns, 9), (verbs, 1 + len(verbs) // 25)):
        for position in range(roots, len(members)):
            parent = members[int(position * rand())]
            symbol = "@i" if members is nouns and rand() < 0.09 else "@"
            _link(synsets, members[position], parent, symbol)
            if rand() < 0.02:
                other = members[int(position * rand())]
                if other != parent:
                    _link(synsets, members[position], other, "@")

    heads = [i for i in adjs if synsets[i].pos == "a"]
    for index in adjs:
        if synsets[index].pos == "s":
            _link(synsets, index, heads[int(rand() * len(heads))], "&")

    def sprinkle(members, symbol, share, targets=None, lexical=False):
        targets = targets or members
        for index in members:
            if rand() < share:
                target = targets[int(rand() * len(targets))]
                if target == index:
                    continue
                tag = "0000"
                if lexical:
                    tag = f"{rng.randint(1, len(synsets[index].words)):02x}" \
                          f"{rng.randint(1, len(synsets[target].words)):02x}"
                _link(synsets, index, target, symbol, tag)

    sprinkle(nouns, "#m", 0.06)
    sprinkle(nouns, "#s", 0.01)
    sprinkle(nouns, "#p", 0.05)
    sprinkle(nouns, ";c", 0.05)
    sprinkle(nouns, ";r", 0.01)
    sprinkle(nouns, ";u", 0.01)
    sprinkle(nouns, "=", 0.01, adjs)
    sprinkle(nouns, "!", 0.02, lexical=True)
    sprinkle(nouns, "+", 0.25, verbs, lexical=True)
    sprinkle(verbs, "*", 0.03)
    sprinkle(verbs, ">", 0.02)
    sprinkle(verbs, "^", 0.04)
    sprinkle(verbs, "$", 0.08)
    sprinkle(verbs, "!", 0.05, lexical=True)
    sprinkle(verbs, ";c", 0.02, nouns)
    sprinkle(adjs, "!", 0.15, heads, lexical=True)
    sprinkle(adjs, "^", 0.08)
    sprinkle(adjs, "<", 0.01, verbs, lexical=True)
    sprinkle(adjs, "\\", 0.2, nouns, lexical=True)
    sprinkle(adjs, ";u", 0.01, nouns)
    sprinkle(advs, "\\", 0.8, adjs, lexical=True)
    sprinkle(advs, "!", 0.05, lexical=True)
    sprinkle(advs, ";r", 0.02, nouns)


def _decorate(rng: random.Random, synsets: list[Synset], pool: list[str]) -> None:
    """Fill in each synset's words, lexical ids, verb frames and gloss."""
    rand = rng.random
    # Glosses are runs of words cut from one long text of common words.
    common = pool[:5000]
    text = " ".join(common[int(rand() * len(common))] for _ in range(50_000)) + " "
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == " "]
    lexfiles = {"n": (3, 26), "v": (29, 15), "a": (0, 2), "s": (0, 1), "r": (2, 1)}
    for synset in synsets:
        first, spread = lexfiles[synset.pos]
        fields = [f"{first + int(rand() * spread):02d}", synset.pos, f"{len(synset.words):02x}"]
        for word in synset.words:
            roll = rand()
            if synset.pos in ("a", "s") and roll < 0.02:
                word += ("(p)", "(a)", "(ip)")[int(roll * 150)]
            elif synset.pos == "n" and roll < 0.03:
                word = word.capitalize()
            fields.append(word)
            fields.append("0" if roll < 0.6 else "1" if roll < 0.9 else "2")
        synset.head = " ".join(fields)

        tail = []
        if synset.pos == "v":
            frames = [f"+ {1 + int(rand() * 35):02d} 00"]
            if rand() < 0.4:
                frames.append(f"+ {1 + int(rand() * 35):02d} {1 + int(rand() * len(synset.words)):02x}")
            tail.append(f"{len(frames):02d}")
            tail.extend(frames)
        tail.append("|")
        start = int(rand() * (len(starts) - 40))
        tail.append(text[starts[start]:starts[start + 4 + int(rand() * 11)] - 1])
        gloss = " ".join(tail)
        if rand() < 0.5:
            start = int(rand() * (len(starts) - 40))
            example = text[starts[start]:starts[start + 3 + int(rand() * 6)] - 1]
            gloss += f'; "the {synset.words[0].replace("_", " ")} {example}"'
        synset.tail = gloss


def _data_line(synsets: list[Synset], synset: Synset) -> str:
    pointers = []
    for symbol, target, lexical in synset.pointers:
        other = synsets[target]
        pointers.append(f" {symbol} {other.offset:08d} {'a' if other.pos == 's' else other.pos} {lexical}")
    return f"{synset.offset:08d} {synset.head} {len(synset.pointers):03d}{''.join(pointers)} {synset.tail}  \n"


def _header(kind: str) -> str:
    rows = _LICENSE.splitlines() + [f"{kind} file of the generated dictionary.", ""]
    return "".join(f"  {n} {row}  \n" for n, row in enumerate(rows, start=1))


def generate_dictionary(out_dir: str | Path, seed: int, scale: float = 1.0) -> Dictionary:
    """Write the dictionary files under out_dir and return their model.

    `scale` shrinks every count, for quick self-tests; 1.0 is WordNet size.
    """
    rng = random.Random(f"lexiscope-dict-{seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    taken: set[str] = set()
    pool = _invent_words(rng, int(110_000 * scale) + 100, taken)
    bases = pool[:len(pool) // 4]
    rand = rng.random
    multi = sorted({f"{bases[int(rand() * len(bases))]}_{bases[int(rand() * len(bases))]}"
                    for _ in range(int(40_000 * scale) + 100)})
    rng.shuffle(multi)
    synsets = _build_synsets(rng, pool, multi, scale)
    _add_pointers(rng, synsets)
    _decorate(rng, synsets, pool)

    senses: dict[tuple[str, str], list[int]] = {}
    for index, synset in enumerate(synsets):
        file_pos = "a" if synset.pos == "s" else synset.pos
        for word in synset.words:
            senses.setdefault((word, file_pos), []).append(index)

    members_by_pos: dict[str, list[Synset]] = {"n": [], "v": [], "a": [], "r": []}
    for synset in synsets:
        members_by_pos["a" if synset.pos == "s" else synset.pos].append(synset)
    # Offsets are fixed-width, so every line length is known before any
    # offset is: assign all offsets first, then render the pointers.
    headers = {}
    for suffix, pos, _count in POS_PLAN:
        headers[suffix] = _header(f"data.{suffix}")
        offset = len(headers[suffix])
        for synset in members_by_pos[pos]:
            synset.offset = offset
            offset += synset.line_length()
    synset_counts = {}
    for suffix, pos, _count in POS_PLAN:
        members = members_by_pos[pos]
        synset_counts[suffix] = len(members)
        text = headers[suffix] + "".join(_data_line(synsets, synset) for synset in members)
        (out / f"data.{suffix}").write_text(text, encoding="utf-8")

    for suffix, pos, _count in POS_PLAN:
        rows = []
        for (lemma, file_pos), indexes in senses.items():
            if file_pos != pos:
                continue
            symbols = sorted({sym for i in indexes for sym, _t, _l in synsets[i].pointers})
            tagged = min(len(indexes), int(rng.paretovariate(1.2)) - 1)
            offsets = " ".join(f"{synsets[i].offset:08d}" for i in indexes)
            rows.append(f"{lemma} {pos} {len(indexes)} {len(symbols)} "
                        + "".join(s + " " for s in symbols)
                        + f"{len(indexes)} {tagged} {offsets}  \n")
        rows.sort()
        (out / f"index.{suffix}").write_text(_header(f"index.{suffix}") + "".join(rows), encoding="utf-8")

    singles = sorted({word for word, _pos in senses if "_" not in word},
                     key=lambda w: (-sum(len(senses.get((w, p), ())) for p in "nvar"), w))
    _write_exceptions(rng, out, senses, taken, scale)
    nonwords = _invent_words(rng, 3000, taken)
    entries = len({lemma for lemma, _pos in senses})
    return Dictionary(synsets, senses, singles, nonwords, entries, synset_counts)


def _write_exceptions(rng, out: Path, senses, taken: set[str], scale: float) -> None:
    """Irregular forms, in WordNet 3.0's numbers, each mapped to a lemma."""
    sizes = {"noun": ("n", 2054), "verb": ("v", 2401), "adj": ("a", 1494), "adv": ("r", 7)}
    for suffix, (pos, count) in sizes.items():
        lemmas = sorted(word for word, p in senses if p == pos and "_" not in word)
        forms = _invent_words(rng, max(1, int(count * scale)), taken)
        table = {form: rng.choice(lemmas) for form in forms}
        lines = "".join(f"{form} {lemma}\n" for form, lemma in sorted(table.items()))
        (out / f"{suffix}.exc").write_text(lines, encoding="utf-8")
