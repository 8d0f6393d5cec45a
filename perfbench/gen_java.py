"""Seeded generator of Java projects whose declaration nodes are known.

Each project is a tree of ``.java`` files built from words of a generated
dictionary (see ``gen_dict``): identifiers draw lemmas with a Zipf skew,
plus inflected forms and non-words.  The files carry what real code
carries around declarations: javadoc and line comments, string, char and
text-block literals holding braces, generics, annotations, nested types,
enums, records, interfaces with default methods, and lambdas and
anonymous classes inside method and initializer bodies.

Alongside the files the generator returns the node list a scan of them
should yield, in scan order.  Constructs the scanner is known to miss
(``@interface`` types, enum constants, record components) stay in the
files at a realistic rate; their nodes are counted in ``excluded`` and
left out of the expected list.

Every project also plants the methods of the shared ``Concept`` list, so
``locate`` has known answers: exact, synonym and hypernym variants of a
few key-phrases whose words appear nowhere else in the project.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from gen_dict import Dictionary

ABBREVIATIONS = ("impl", "cfg", "mgr", "ctx", "tmp", "buf", "idx", "num", "str", "obj",
                 "src", "dst", "msg", "req", "resp", "conn", "util", "spec", "proc", "attr")
ACRONYMS = ("XML", "HTTP", "JSON", "URL", "IO", "UUID", "SQL", "API")
SCALAR_TYPES = ("int", "long", "boolean", "double", "String", "Object", "byte[]", "char")
GENERIC_TYPES = ("List<{}>", "Set<{}>", "Optional<{}>", "Map<String, {}>",
                 "Map<{}, List<Integer>>", "Supplier<? extends {}>")

ZIPF_WORDS = 20_000
ZIPF_EXPONENT = 1.07


@dataclass(frozen=True)
class Plant:
    """One planted method and what locate must do with it."""

    name: str
    params: tuple[str, ...]


@dataclass(frozen=True)
class Concept:
    """A locate command with the methods planted for it."""

    phrase: str
    options: tuple[str, ...]
    plants: tuple[Plant, ...]
    must_hit: tuple[str, ...]    # plant names that must be among the hits
    must_miss: tuple[str, ...]   # plant names that must not be


@dataclass
class Project:
    name: str
    files: int
    expected: list[tuple]                 # (kind, name, file, line, parent id) in scan order
    excluded: Counter = field(default_factory=Counter)
    planted: dict[str, tuple[str, int]] = field(default_factory=dict)  # name -> (file, line)


def _camel(words: list[str]) -> str:
    return words[0] + "".join(w.capitalize() for w in words[1:])


class Words:
    """Identifier fragments: Zipf-ranked lemmas, inflections and non-words."""

    def __init__(self, dictionary: Dictionary, rng: random.Random, excluded: set[str]):
        self.rand = rng.random
        head = dictionary.ranked_words[:len(dictionary.ranked_words) // 2]
        self.ranked = [w for w in head if w not in excluded][:ZIPF_WORDS]
        total = 0.0
        self.cumulative = []
        for rank in range(len(self.ranked)):
            total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
            self.cumulative.append(total)
        self.nouns = {w for (w, pos) in dictionary.senses if pos == "n"}
        self.verbs = {w for (w, pos) in dictionary.senses if pos == "v"}
        self.nonwords = list(ABBREVIATIONS) + dictionary.nonwords

    def pick(self, seq):
        return seq[int(self.rand() * len(seq))]

    def word(self) -> str:
        roll = self.rand()
        if roll < 0.14:
            return self.nonwords[int(len(self.nonwords) * self.rand() ** 3)]
        word = self.ranked[bisect.bisect_left(self.cumulative, self.rand() * self.cumulative[-1])]
        if roll > 0.91:
            if word in self.nouns and roll > 0.95:
                return word + "s"
            if word in self.verbs:
                return word + ("ing" if roll > 0.935 else "ed")
        return word

    def words(self, low: int, high: int) -> list[str]:
        return [self.word() for _ in range(low + int(self.rand() * (high - low + 1)))]

    def camel(self, low=1, high=3) -> str:
        return _camel(self.words(low, high))

    def pascal(self, low=1, high=3) -> str:
        parts = [w.capitalize() for w in self.words(low, high)]
        if self.rand() < 0.05:
            parts.insert(int(self.rand() * len(parts)), self.pick(ACRONYMS))
        return "".join(parts)

    def constant(self) -> str:
        return "_".join(w.upper() for w in self.words(1, 3))

    def type_name(self, own_types: list[str]) -> str:
        roll = self.rand()
        if roll < 0.45:
            return self.pick(SCALAR_TYPES)
        if roll < 0.65 and own_types:
            return self.pick(own_types)
        if roll < 0.8:
            return self.pick(GENERIC_TYPES).format(self.pick(own_types) if own_types else "String")
        return self.pascal(1, 2)


class _File:
    """Lines of one source file and the nodes a scan of it should give."""

    def __init__(self, path: str):
        self.path = path
        self.lines: list[str] = []
        self.nodes: list[tuple] = []  # (kind, name, line, local parent index)

    def add(self, text: str) -> int:
        """Append text (may span lines); return the line number it starts on."""
        start = len(self.lines) + 1
        self.lines.extend(text.split("\n"))
        return start

    def node(self, kind: str, name: str, line: int, parent: int | None) -> int:
        self.nodes.append((kind, name, line, parent))
        return len(self.nodes) - 1


class _Writer:
    def __init__(self, words: Words, project: Project):
        self.w = words
        self.rand = words.rand
        self.project = project
        self.own_types: list[str] = []

    # --- noise around declarations ---

    def javadoc(self, f: _File, ind: str) -> None:
        text = " ".join(self.w.words(4, 12))
        rows = [f"{ind}/**", f"{ind} * {text.capitalize()}."]
        if self.rand() < 0.5:
            rows.append(f"{ind} * Uses {{@link {self.w.pascal(1, 2)}#{self.w.camel()}(String)}} "
                        f"and {{@code map.get(\"{{\")}}.")
        if self.rand() < 0.4:
            rows.append(f"{ind} * @param {self.w.camel(1, 1)} the {' '.join(self.w.words(1, 3))}")
        rows.append(f"{ind} */")
        f.add("\n".join(rows))

    def comment(self, f: _File, ind: str) -> None:
        roll = self.rand()
        if roll < 0.5:
            f.add(f"{ind}// {' '.join(self.w.words(2, 8))}")
        elif roll < 0.75:
            f.add(f"{ind}// TODO {self.w.camel()}() {{ is not closed here")
        else:
            f.add(f"{ind}/* {' '.join(self.w.words(2, 6))} */")

    def annotation(self) -> str:
        roll = self.rand()
        if roll < 0.4:
            return "@Override"
        if roll < 0.6:
            return '@SuppressWarnings({"unchecked", "rawtypes"})'
        if roll < 0.75:
            return f'@Deprecated(since = "{1 + int(self.rand() * 9)}.0")'
        if roll < 0.9:
            return f"@{self.w.pascal(1, 2)}"
        return f'@{self.w.pascal(1, 1)}(name = "{self.w.camel()} {{", order = {int(self.rand() * 9)})'

    def statement(self, ind: str) -> str:
        w = self.w
        roll = self.rand()
        a, b = w.camel(), w.camel()
        if roll < 0.15:
            return f"{ind}int {a} = {b}.size() + {int(self.rand() * 100)};"
        if roll < 0.25:
            return f'{ind}String {a} = "{{" + {b} + "}}, {w.word()}";'
        if roll < 0.33:
            return f"{ind}char {a} = '{{', {b} = '\\'';"
        if roll < 0.43:
            return f"{ind}Runnable {a} = () -> {{ {b}.{w.camel()}(); }};"
        if roll < 0.5:
            return (f"{ind}{w.pascal(1, 2)} {a} = new {w.pascal(1, 2)}() {{\n"
                    f"{ind}    @Override\n"
                    f"{ind}    public void {w.camel()}(int {b}) {{ {w.camel()}({b}); }}\n"
                    f"{ind}}};")
        if roll < 0.58:
            return f"{ind}for (String {a} : {b}) {{ if ({a}.isEmpty()) {{ continue; }} }}"
        if roll < 0.65:
            return (f'{ind}String {a} = """\n'
                    f'{ind}    {{"{w.word()}": "{w.word()} }}"\n'
                    f'{ind}    """;')
        if roll < 0.72:
            return f"{ind}{b}.forEach(({a}, value) -> {w.camel()}.put({a}, value));"
        if roll < 0.8:
            return f"{ind}if ({a} > {b}) {{\n{ind}    return;\n{ind}}}"
        if roll < 0.87:
            return f"{ind}// {' '.join(w.words(2, 6))} }} {{"
        if roll < 0.93:
            return f"{ind}try {{ {a}.{w.camel()}(); }} catch (RuntimeException e) {{ throw e; }}"
        return f"{ind}{a}.{w.camel()}({b}, \"{w.word()}\", '{{');"

    def body(self, ind: str) -> str:
        return "\n".join(self.statement(ind) for _ in range(1 + int(self.rand() * 4)))

    # --- declarations ---

    def params(self) -> list[tuple[str, str]]:
        count = int(self.rand() ** 1.5 * 4)
        out = []
        for _ in range(count):
            name = self.w.camel(1, 2)
            prefix = ""
            roll = self.rand()
            if roll < 0.1:
                prefix = "final "
            elif roll < 0.15:
                prefix = "@Nullable "
            out.append((prefix + self.w.type_name(self.own_types), name))
        if out and self.rand() < 0.05:
            out[-1] = ("String...", out[-1][1])
        return out

    def method(self, f: _File, ind: str, parent: int, kind: str) -> None:
        """A method node plus its parameters; kind is class, interface or abstract."""
        w = self.w
        if self.rand() < 0.3:
            self.javadoc(f, ind)
        if self.rand() < 0.3:
            f.add(ind + self.annotation())
        name = w.camel(1, 3)
        self.emit_method(f, ind, parent, kind, name, self.params())

    def emit_method(self, f, ind, parent, kind, name, params) -> None:
        w = self.w
        roll = self.rand()
        modifiers = {"interface": ("", "", "static ", "default "),
                     "class": ("public ", "private ", "protected ", "public static ",
                               "static ", "public synchronized ", "final ")}.get(kind, ("abstract ",))
        modifier = w.pick(modifiers)
        generic = "<T> " if roll < 0.08 else ""
        result = "void" if roll < 0.4 else w.type_name(self.own_types)
        throws = " throws IOException" if self.rand() < 0.1 else ""
        abstract = (kind == "interface" and modifier == "") or kind == "abstract"
        if len(params) > 2 and self.rand() < 0.4:
            head = f"{ind}{modifier}{generic}{result} {name}("
            start = f.add(head)
            rows = [f"{ind}        {t} {p}," for t, p in params]
            rows[-1] = rows[-1][:-1] + ")" + throws + (";" if abstract else " {")
            f.add("\n".join(rows))
            method = f.node("method", name, start, parent)
            for i, (_t, p) in enumerate(params):
                f.node("parameter", p, start + 1 + i, method)
        else:
            plist = ", ".join(f"{t} {p}" for t, p in params)
            start = f.add(f"{ind}{modifier}{generic}{result} {name}({plist}){throws}"
                          + (";" if abstract else " {"))
            method = f.node("method", name, start, parent)
            for _t, p in params:
                f.node("parameter", p, start, method)
        if not abstract:
            f.add(self.body(ind + "    "))
            f.add(ind + "}")

    def fields(self, f: _File, ind: str, parent: int, constants_only=False) -> None:
        w = self.w
        roll = self.rand()
        if constants_only or roll < 0.25:
            name = w.constant()
            value = w.pick((str(int(self.rand() * 1000)), f'"{w.word()}, {{{w.word()}}};"', "'}'"))
            line = f.add(f"{ind}{'' if constants_only else 'private '}static final "
                         f"{'String' if value.startswith(chr(34)) else 'int' if value[0].isdigit() else 'char'}"
                         f" {name} = {value};")
            f.node("field", name, line, parent)
        elif roll < 0.5:
            name = w.camel()
            line = f.add(f"{ind}private {w.type_name(self.own_types)} {name};")
            f.node("field", name, line, parent)
        elif roll < 0.6:
            names = [w.camel(1, 2) for _ in range(2 + int(self.rand() * 3))]
            decl = ", ".join(n + (f" = {i}" if i % 2 else "") for i, n in enumerate(names))
            line = f.add(f"{ind}protected int {decl};")
            for n in names:
                f.node("field", n, line, parent)
        elif roll < 0.68:
            name = w.camel()
            line = f.add(f"{ind}private final Map<String, List<{w.pascal(1, 1)}>> {name} = new HashMap<>();")
            f.node("field", name, line, parent)
        elif roll < 0.74:
            name = w.camel()
            line = f.add(f"{ind}private final Runnable {name} = () -> {{ {w.camel()}(1, 2); }};")
            f.node("field", name, line, parent)
        elif roll < 0.8:
            name = w.camel()
            line = f.add(f"{ind}private Comparator<{w.pascal(1, 1)}> {name} = new Comparator<>() {{\n"
                         f"{ind}    public int compare(Object left, Object right) {{ return 0; }}\n"
                         f"{ind}}};")
            f.node("field", name, line, parent)
        elif roll < 0.85:
            name = w.camel()
            line = f.add(f'{ind}String[] {name} = {{"{w.word()}", "{{", "{w.word()}"}};')
            f.node("field", name, line, parent)
        elif roll < 0.9:
            name = w.constant()
            line = f.add(f'{ind}private static final String {name} = """\n'
                         f'{ind}    {{ "{w.word()}": [{w.word()}, "}}"] }}\n'
                         f'{ind}    """;')
            f.node("field", name, line, parent)
        elif roll < 0.95:
            f.add(f"{ind}@{w.pascal(1, 1)}")
            name = w.camel()
            line = f.add(f"{ind}private java.util.List<{w.pascal(1, 2)}> {name};")
            f.node("field", name, line, parent)
        else:
            name = w.camel()
            line = f.add(f"{ind}volatile long {name} = System.nanoTime();")
            f.node("field", name, line, parent)

    def type_decl(self, f: _File, ind: str, parent: int | None, depth: int,
                  keyword: str | None = None, name: str | None = None, plant: Plant | None = None) -> None:
        """A type declaration; a planted method goes last in a class body."""
        w = self.w
        roll = self.rand()
        if keyword is None:
            keyword = ("class" if roll < 0.74 else "interface" if roll < 0.86
                       else "enum" if roll < 0.93 else "record" if roll < 0.98 else "@interface")
        name = name or w.pascal(1, 3)
        self.own_types.append(name)
        if self.rand() < 0.5:
            self.javadoc(f, ind)
        if self.rand() < 0.2:
            f.add(ind + self.annotation())
        modifiers = "public " if parent is None else w.pick(("", "static ", "private static ", "public "))
        if keyword == "@interface":
            members = [w.camel() for _ in range(1 + int(self.rand() * 3))]
            body = "\n".join(f"{ind}    {w.pick(('int', 'String', 'String[]'))} {m}() default "
                             f"{w.pick(('1', '{}', chr(34) + 'x' + chr(34)))};" for m in members)
            f.add(f"{ind}{modifiers}@interface {name} {{\n{body}\n{ind}}}")
            self.project.excluded["@interface"] += 1 + len(members)
            return
        if keyword == "record":
            components = [(w.type_name(self.own_types), w.camel(1, 2)) for _ in range(1 + int(self.rand() * 3))]
            header = ", ".join(f"{t} {c}" for t, c in components)
            line = f.add(f"{ind}{modifiers}record {name}({header}) implements Comparable<{name}> {{")
            self.project.excluded["record component"] += len(components)
            node = f.node("class", name, line, parent)
            if self.rand() < 0.5:
                f.add(f"{ind}    {name} {{\n{ind}        Objects.requireNonNull({components[0][1]});\n{ind}    }}")
            self.members(f, ind + "    ", node, depth, "class", 1, 3)
            f.add(ind + "}")
            return
        generic = w.pick(("", "", "", "<T>", "<K extends Comparable<K>, V>"))
        extends = ""
        if keyword == "class" and self.rand() < 0.3:
            extends = f" extends {w.pascal(1, 2)}"
        if self.rand() < 0.3:
            extends += f" implements {w.pascal(1, 2)}<{w.pascal(1, 1)}>, java.io.Serializable"
        abstract = keyword == "class" and self.rand() < 0.1
        line = f.add(f"{ind}{modifiers}{'abstract ' if abstract else ''}{keyword} {name}{generic}{extends} {{")
        node = f.node("class", name, line, parent)
        if keyword == "enum":
            constants = [w.constant() for _ in range(2 + int(self.rand() * 5))]
            if self.rand() < 0.5:
                rows = ",\n".join(f"{ind}    {c}({int(self.rand() * 100)}, \"{w.word()}\")" for c in constants)
            else:
                rows = f"{ind}    " + ", ".join(constants)
            f.add(rows + ";")
            self.project.excluded["enum constant"] += len(constants)
            self.members(f, ind + "    ", node, depth, "class", 0, 3)
        elif keyword == "interface":
            self.members(f, ind + "    ", node, depth, "interface", 1, 5)
        else:
            self.members(f, ind + "    ", node, depth, "abstract" if abstract else "class", 4, 20)
        if plant is not None:
            self.emit_method(f, ind + "    ", node, "class", plant.name, [("int", p) for p in plant.params])
        f.add(ind + "}")

    def members(self, f: _File, ind: str, parent: int, depth: int, kind: str, low: int, high: int) -> None:
        count = low + int(self.rand() * (high - low + 1))
        for _ in range(count):
            roll = self.rand()
            if roll < 0.08:
                self.comment(f, ind)
            if kind == "interface":
                if roll < 0.15:
                    self.fields(f, ind, parent, constants_only=True)
                else:
                    self.method(f, ind, parent, "interface")
            elif roll < 0.36:
                self.fields(f, ind, parent)
            elif roll < 0.86:
                self.method(f, ind, parent, "abstract" if kind == "abstract" and roll < 0.5 else "class")
            elif roll < 0.93:
                # Constructors are not declaration nodes; their body is a skipped block.
                name = self.w.pascal(1, 1)
                f.add(f"{ind}public {name}(int {self.w.camel(1, 1)}) {{\n{self.body(ind + '    ')}\n{ind}}}")
            elif roll < 0.97 and depth < 2:
                self.type_decl(f, ind, parent, depth + 1)
            else:
                f.add(f"{ind}static {{\n{self.body(ind + '    ')}\n{ind}}}")


def choose_concepts(dictionary: Dictionary, seed: int) -> list[Concept]:
    """Key-phrases for locate, from words whose relatives are all single words."""
    rng = random.Random(f"lexiscope-concepts-{seed}")
    senses, synsets = dictionary.senses, dictionary.synsets

    def single(words):
        return [w for w in words if "_" not in w]

    def related(word: str) -> tuple[list[str], list[str], list[str]]:
        """(synonyms, hypernyms, grand-hypernyms) of a noun's first sense."""
        first = senses[(word, "n")][0]
        syns = single(w for w in synsets[first].words if w != word)
        ups = dictionary.hypernyms(first)
        hypers = single(w for up in ups for w in synsets[up].words)
        grand = single(w for up in ups for g in dictionary.hypernyms(up) for w in synsets[g].words)
        return syns, hypers, grand

    candidates = []
    for word in dictionary.ranked_words[len(dictionary.ranked_words) // 2:]:
        if (word, "n") not in senses or any((word, p) in senses for p in "var"):
            continue
        if len(senses[(word, "n")]) != 1:
            continue
        syns, hypers, grand = related(word)
        if syns and hypers and grand and not set(syns) & set(hypers + grand) and word not in hypers + grand:
            candidates.append((word, syns[0], hypers[0], grand[0]))
        if len(candidates) >= 200:
            break
    picked = rng.sample(candidates, 9)
    k = [c[0] for c in picked]
    syn = {c[0]: c[1] for c in picked}
    hyper = {c[0]: c[2] for c in picked}
    grand = {c[0]: c[3] for c in picked}

    def plant(words, params=()):
        return Plant(_camel(words), tuple(params))

    def names(plants):
        return tuple(p.name for p in plants)

    # Each phrase plants an exact match and a match through a relative:
    # a synonym, a direct hypernym, or (for --depth 2) a hypernym's hypernym.
    two = (plant([k[0], k[1]]), plant([syn[k[0]], k[1]]), plant([hyper[k[0]]], [k[1]]))
    # The middle keyword is inflected: it must match through its lemma.
    three = (plant([k[2], k[3], k[4]]), plant([k[2], syn[k[3]]], [k[4]]))
    bare = (plant([k[5], k[6]]), plant([syn[k[5]], k[6]]))
    deep = (plant([k[7]], [k[8]]), plant([grand[k[7]], k[8]]))
    return [
        Concept(f"{k[0]} {k[1]}", (), two, names(two), ()),
        Concept(f"{k[2]} {k[3]}s {k[4]}", (), three, names(three), ()),
        Concept(f"{k[5]} {k[6]}", ("--relations", "none"), bare, names(bare[:1]), names(bare[1:])),
        Concept(f"{k[7]} {k[8]}", ("--depth", "2"), deep, names(deep), ()),
    ]


def concept_words(dictionary: Dictionary, concepts: list[Concept]) -> set[str]:
    """Every word a concept keyword reaches within two is-a steps or as a synonym.

    Random identifiers never use these, so only planted methods can match.
    """
    senses, synsets = dictionary.senses, dictionary.synsets
    out: set[str] = set()
    for concept in concepts:
        for keyword in concept.phrase.split():
            base = keyword[:-1] if (keyword, "n") not in senses and keyword.endswith("s") else keyword
            seeds = [i for p in "nvar" for i in senses.get((base, p), ())]
            out.add(base)
            for index in seeds:
                out.update(synsets[index].words)
            for symbol in (("@", "@i"), ("~", "~i")):
                frontier = seeds
                for _ in range(2):
                    frontier = [t for i in frontier for s, t, _l in synsets[i].pointers if s in symbol]
                    for index in frontier:
                        out.update(synsets[index].words)
    return out


def generate_project(root: str | Path, dictionary: Dictionary, concepts: list[Concept],
                     seed: str, files: int) -> Project:
    """Write `files` Java files under root; return the nodes they should scan to."""
    root = Path(root)
    rng = random.Random(f"lexiscope-project-{seed}")
    words = Words(dictionary, rng, concept_words(dictionary, concepts))
    project = Project(root.name, files, [])
    writer = _Writer(words, project)

    packages = sorted({f"{words.word()}/{words.word()}" for _ in range(max(2, files // 40))})
    plants = [plant for concept in concepts for plant in concept.plants]
    plant_at = dict(zip(rng.sample(range(files), len(plants)), plants))

    generated: list[_File] = []
    names_used: set[str] = set()
    for number in range(files):
        package = words.pick(packages)
        name = words.pascal(1, 3)
        while f"{package}/{name}" in names_used:
            name += words.pick(ACRONYMS)
        names_used.add(f"{package}/{name}")
        f = _File(f"{package}/{name}.java")
        writer.own_types = [name]
        if rng.random() < 0.3:
            f.add("/*\n * Copyright (c) generated project.\n * Licensed for benchmarking only.\n */")
        f.add(f"package {package.replace('/', '.')};\n")
        f.add("\n".join(f"import java.util.{t};" for t in ("List", "Map", "HashMap", "Optional", "Objects")
                        if rng.random() < 0.6))
        f.add("import java.io.IOException;\n")
        roll = rng.random()
        plant = plant_at.get(number)
        if plant is not None:
            roll = 0.5  # planted methods go into a plain class
            project.planted[plant.name] = ("", 0)
        if roll < 0.01:
            writer.type_decl(f, "", None, 0, "@interface")
        else:
            keyword = ("class" if roll < 0.85 else "interface" if roll < 0.93
                       else "enum" if roll < 0.97 else "record")
            writer.type_decl(f, "", None, 0, keyword, name, plant)
            if rng.random() < 0.1:
                f.add("")
                writer.type_decl(f, "", None, 1, "class")
        generated.append(f)

    for f in generated:
        path = root / f.path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(f.lines) + "\n", encoding="utf-8")

    for f in sorted(generated, key=lambda f: f.path.split("/")):
        base = len(project.expected)
        for kind, name, line, parent in f.nodes:
            project.expected.append((kind, name, f.path, line, None if parent is None else base + parent))
            if kind == "method" and name in project.planted:
                project.planted[name] = (f.path, line)
    return project
