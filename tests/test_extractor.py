import bisect
import io
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiscope.extractor import (
    _CLASS_KEYWORDS,
    _NOISE_RE,
    _NON_TYPE_KEYWORDS,
    _TOKEN_RE,
    IDENTIFIER_RE,
    ScanDiagnostics,
    SchemaError,
    SourceNode,
    _Scanner,
    _tokenize,
    extract_java,
    extract_project,
    ingest_nodes,
)

from conftest import FIXTURES, MINICORPUS


def shapes(nodes):
    return [(n.kind, n.name, n.parent_id) for n in nodes]


class TestExtractJava:
    def test_car_example(self):
        nodes = extract_java(
            "class Car { int wheelCount; void setValue(int newValue){} }", "Car.java"
        )
        assert shapes(nodes) == [
            ("class", "Car", None),
            ("field", "wheelCount", 0),
            ("method", "setValue", 0),
            ("parameter", "newValue", 2),
        ]
        assert [n.id for n in nodes] == [0, 1, 2, 3]

    def test_empty_input(self):
        assert extract_java("", "Empty.java") == []

    def test_get_type_listing(self):
        text = """
            public class WordTools {
                public String getType(String word) {
                    return null;
                }
            }
        """
        nodes = extract_java(text, "WordTools.java")
        assert shapes(nodes) == [
            ("class", "WordTools", None),
            ("method", "getType", 0),
            ("parameter", "word", 1),
        ]

    def test_lines_are_one_based(self):
        text = "class A {\n  int x;\n  void f() {}\n}\n"
        nodes = extract_java(text, "A.java")
        assert [(n.name, n.line) for n in nodes] == [("A", 1), ("x", 2), ("f", 3)]

    def test_comments_and_literals_are_ignored(self):
        text = """
            // class NotReal { int bogus; }
            /* void alsoFake(int ghost) {} */
            class Real {
                String s = "class Fake { }";
                char c = '{';
            }
        """
        nodes = extract_java(text, "Real.java")
        assert shapes(nodes) == [("class", "Real", None), ("field", "s", 0), ("field", "c", 0)]

    def test_interface_enum_record_map_to_class(self):
        text = """
            interface Shape { int area(); }
            enum Color { RED, GREEN; int code; }
            record Point(int x, int y) { }
        """
        nodes = extract_java(text, "Mix.java")
        assert shapes(nodes) == [
            ("class", "Shape", None),
            ("method", "area", 0),
            ("class", "Color", None),
            ("field", "code", 2),
            ("class", "Point", None),
        ]

    def test_nested_class_parentage(self):
        nodes = extract_java("class A { class B { int x; } int y; }", "N.java")
        assert shapes(nodes) == [
            ("class", "A", None),
            ("class", "B", 0),
            ("field", "x", 1),
            ("field", "y", 0),
        ]

    def test_constructor_is_not_a_method(self):
        nodes = extract_java("class E { E(int x) { x = 1; } int y; }", "E.java")
        assert shapes(nodes) == [("class", "E", None), ("field", "y", 0)]

    def test_multi_declarator_fields(self):
        nodes = extract_java("class M { int a, b = 2, c[]; }", "M.java")
        assert shapes(nodes) == [
            ("class", "M", None),
            ("field", "a", 0),
            ("field", "b", 0),
            ("field", "c", 0),
        ]

    def test_generics_and_annotations_are_noise(self):
        text = """
            @Entity(name = "t")
            class G {
                @Id private Long id;
                Map<String, List<Integer>> index = new HashMap<>();
                public <T> T pick(List<T> items, int n) { return null; }
            }
        """
        nodes = extract_java(text, "G.java")
        assert shapes(nodes) == [
            ("class", "G", None),
            ("field", "id", 0),
            ("field", "index", 0),
            ("method", "pick", 0),
            ("parameter", "items", 3),
            ("parameter", "n", 3),
        ]

    def test_varargs_arrays_and_qualified_types(self):
        text = "class V { void log(String fmt, Object... args) {} java.util.Date d; }"
        nodes = extract_java(text, "V.java")
        assert shapes(nodes) == [
            ("class", "V", None),
            ("method", "log", 0),
            ("parameter", "fmt", 1),
            ("parameter", "args", 1),
            ("field", "d", 0),
        ]

    def test_abstract_and_throws(self):
        text = "abstract class D { abstract void f(int a, int b) throws IOException; }"
        nodes = extract_java(text, "D.java")
        assert shapes(nodes) == [
            ("class", "D", None),
            ("method", "f", 0),
            ("parameter", "a", 1),
            ("parameter", "b", 1),
        ]

    def test_method_bodies_are_not_scanned(self):
        text = """
            class H {
                void outer() {
                    int local = 1;
                    Runnable r = new Runnable() { public void run() {} };
                }
            }
        """
        nodes = extract_java(text, "H.java")
        assert shapes(nodes) == [("class", "H", None), ("method", "outer", 0)]

    def test_anonymous_class_in_field_initializer(self):
        text = "class I { Runnable r = new Runnable() { public void run() {} }; int z; }"
        nodes = extract_java(text, "I.java")
        assert shapes(nodes) == [
            ("class", "I", None),
            ("field", "r", 0),
            ("field", "z", 0),
        ]

    def test_static_initializer_counts_as_skip(self):
        diagnostics = ScanDiagnostics()
        nodes = extract_java("class S { static { x = 1; } int y; }", "S.java", diagnostics=diagnostics)
        assert shapes(nodes) == [("class", "S", None), ("field", "y", 0)]
        assert diagnostics.skipped_blocks >= 1

    def test_unparseable_regions_never_raise(self):
        nodes = extract_java("class W { ] ) } junk ;;; {", "W.java")
        assert ("class", "W", None) in shapes(nodes)

    def test_names_match_identifier_pattern(self):
        import re

        text = "class X { int a1; void f$g(int _h) {} }"
        for node in extract_java(text, "X.java"):
            assert re.fullmatch(r"[A-Za-z_$][A-Za-z0-9_$]*", node.name)

    @pytest.mark.parametrize("opener", ["/*", '"""'], ids=["comment", "text-block"])
    def test_unclosed_comment_or_text_block_runs_to_end_of_file(self, opener):
        nodes = extract_java(f"class A {{ int x; }}\n{opener}\nclass Ghost {{ int y; }}", "A.java")
        assert shapes(nodes) == [("class", "A", None), ("field", "x", 0)]

    @pytest.mark.parametrize("quote", ['"', "'"], ids=["string", "char"])
    def test_unclosed_literal_runs_to_end_of_line(self, quote):
        text = f"class B {{\n  String s = {quote}abc; int z; }}\n  ;\n  int w;\n}}\n"
        nodes = extract_java(text, "B.java")
        assert [(n.kind, n.name, n.line) for n in nodes] == [
            ("class", "B", 1),
            ("field", "s", 2),
            ("field", "w", 4),
        ]

    @pytest.mark.parametrize(
        ("text", "expected", "skipped"),
        [
            ("class A { int x = 1 } class B { int y; }",
             [("class", "A", None), ("class", "B", None), ("field", "y", 1)], 1),
            ("class A { class I { int x = 1 } int y; }",
             [("class", "A", None), ("class", "I", 0), ("field", "y", 0)], 1),
            ("class A { int x = f(1) } int z; class B { int y; }",
             [("class", "A", None), ("class", "B", None), ("field", "y", 1)], 1),
            ("class A { int c = a < b; int d; }",
             [("class", "A", None), ("field", "c", 0), ("field", "d", 0)], 0),
        ],
        ids=["closes-type", "closes-nested-type", "closes-after-call", "comparison"],
    )
    def test_initializer_ends_at_a_closer_it_did_not_open(self, text, expected, skipped):
        diagnostics = ScanDiagnostics()
        nodes = extract_java(text, "A.java", diagnostics=diagnostics)
        assert shapes(nodes) == expected
        assert diagnostics.skipped_declarations == skipped

    def test_rerun_is_identical(self):
        text = "class R { int a; void f(int b) {} class Q { int c; } }"
        assert extract_java(text, "R.java") == extract_java(text, "R.java")


def _reference_tokenize(text):
    """(token, 1-based line) pairs: the tokenizer before line tables.

    Blanks each noise character but newlines, lists every newline offset,
    and finds each token's line by bisection.
    """
    cleaned = _NOISE_RE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    newlines = [i for i, ch in enumerate(cleaned) if ch == "\n"]
    return [
        (m.group(0), bisect.bisect_right(newlines, m.start()) + 1)
        for m in _TOKEN_RE.finditer(cleaned)
    ]


_COMMA = object()  # declarator boundary sentinel inside a member buffer


class _ReferenceScanner:
    """The scanner before declarator lists, over reference (token, line) pairs.

    Skips balanced runs one token at a time.  Its one intended difference
    from that scanner, where a field initializer ends, comes from calling
    `_Scanner.skip_initializer`.
    """

    def __init__(self, pairs, file_path: str, diagnostics: ScanDiagnostics):
        self.tokens = [token for token, _ in pairs]
        self.lines = [line for _, line in pairs]
        self.pos = 0
        self.file_path = file_path
        self.next_id = 0
        self.nodes: list[SourceNode] = []
        self.diagnostics = diagnostics

    # --- token stream helpers ---

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> str | None:
        return None if self.at_end() else self.tokens[self.pos]

    def advance(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def emit(self, kind: str, index: int, parent_id: int | None) -> int:
        node_id = self.next_id
        self.next_id += 1
        self.nodes.append(
            SourceNode(node_id, kind, self.tokens[index], self.file_path, self.lines[index], parent_id)
        )
        return node_id

    def skip_balanced(self, opener: str, closer: str) -> None:
        depth = 1
        while not self.at_end() and depth > 0:
            tok = self.advance()
            if tok == opener:
                depth += 1
            elif tok == closer:
                depth -= 1

    def skip_annotation(self) -> None:
        """Consume an @Name[(args)] annotation; the '@' already consumed."""
        if not self.at_end() and IDENTIFIER_RE.fullmatch(self.tokens[self.pos]):
            self.advance()
            while self.peek() == ".":  # qualified annotation name
                self.advance()
                if not self.at_end() and IDENTIFIER_RE.fullmatch(self.tokens[self.pos]):
                    self.advance()
            if self.peek() == "(":
                self.advance()
                self.skip_balanced("(", ")")

    # --- grammar-ish scanning ---

    def scan_compilation_unit(self) -> None:
        while not self.at_end():
            tok = self.advance()
            if tok in _CLASS_KEYWORDS:
                self.scan_class_declaration(parent_id=None)
            elif tok == "@":
                self.skip_annotation()
            elif tok == "{":
                self.diagnostics.skipped_blocks += 1
                self.skip_balanced("{", "}")
            # package/import statements and stray tokens fall through

    def scan_class_declaration(self, parent_id: int | None) -> None:
        """Keyword already consumed; emits the node and scans the body."""
        if self.at_end() or not IDENTIFIER_RE.fullmatch(self.tokens[self.pos]):
            self.diagnostics.skipped_declarations += 1
            return
        class_id = self.emit("class", self.pos, parent_id)
        self.pos += 1
        # Skim the header: generics, extends/implements lists, record components.
        while not self.at_end():
            tok = self.advance()
            if tok == "{":
                self.scan_class_body(class_id)
                return
            if tok == ";":  # headerless declaration, nothing more to scan
                return
            if tok == "<":
                self.skip_balanced("<", ">")
            elif tok == "(":
                self.skip_balanced("(", ")")
            elif tok == "@":
                self.skip_annotation()

    def scan_class_body(self, class_id: int) -> None:
        """Member loop between the braces of a type body."""
        buffer: list = []  # identifier token indices and _COMMA sentinels

        def reset():
            buffer.clear()

        tokens = self.tokens
        while self.pos < len(tokens):
            index = self.pos
            tok = tokens[index]
            self.pos = index + 1
            if tok == "}":
                if any(item is not _COMMA for item in buffer):
                    self.diagnostics.skipped_declarations += 1
                return
            if tok == ";":
                self.finish_field(buffer, class_id)
                reset()
            elif tok == "=":
                self.skip_initializer(buffer)
            elif tok == ",":
                buffer.append(_COMMA)
            elif tok == "(":
                if not self.try_method(buffer, class_id):
                    self.skip_balanced("(", ")")
                else:
                    reset()
            elif tok == "{":
                # initializer block, constructor body, or unparsed construct
                self.diagnostics.skipped_blocks += 1
                self.skip_balanced("{", "}")
                reset()
            elif tok in _CLASS_KEYWORDS:
                self.scan_class_declaration(class_id)
                reset()
            elif tok == "@":
                self.skip_annotation()
            elif tok == "<":
                self.skip_balanced("<", ">")
            elif IDENTIFIER_RE.fullmatch(tok):
                buffer.append(index)
            # '.', '[', ']', numbers and other noise are dropped

        if any(item is not _COMMA for item in buffer):
            self.diagnostics.skipped_declarations += 1

    def skip_initializer(self, buffer: list) -> None:
        _Scanner.skip_initializer(self)

    def try_method(self, buffer: list, class_id: int) -> bool:
        """Decide whether buffer + '(' starts a method; emit it if so.

        A method name must be an identifier directly preceded by a type
        token (an identifier that is not a modifier/keyword).  The '('
        is already consumed; on success the parameter list, optional
        throws clause, and body/semicolon are consumed too.
        """
        idents = [item for item in buffer if item is not _COMMA]
        if len(idents) < 2 or _COMMA in buffer:
            return False
        name_index = idents[-1]
        type_token = self.tokens[idents[-2]]
        if type_token in _NON_TYPE_KEYWORDS or not IDENTIFIER_RE.fullmatch(self.tokens[name_index]):
            return False

        saved = self.pos
        params = self.scan_parameters()
        # Confirm with the trailer: optional throws list, then '{' or ';'.
        while not self.at_end():
            tok = self.advance()
            if tok in ("{", ";"):
                method_id = self.emit("method", name_index, class_id)
                for param_index in params:
                    self.emit("parameter", param_index, method_id)
                if tok == "{":
                    self.skip_balanced("{", "}")
                return True
            if tok == "@":
                self.skip_annotation()
            elif tok == "(":  # annotation-member default value etc.
                self.skip_balanced("(", ")")
            elif IDENTIFIER_RE.fullmatch(tok) or tok[0].isdigit() or tok in (",", ".", "[", "]"):
                continue
            elif tok == "<":
                self.skip_balanced("<", ">")
            else:
                break
        self.pos = saved
        return False

    def scan_parameters(self) -> list[int]:
        """Token indices of the parameter names of a '(...)' list; '(' consumed."""
        params: list[int] = []
        current: list[int] = []

        def close_segment():
            if current:
                params.append(current[-1])
                current.clear()

        tokens = self.tokens
        while self.pos < len(tokens):
            index = self.pos
            tok = tokens[index]
            self.pos = index + 1
            if tok == ")":
                close_segment()
                return params
            if tok == ",":
                close_segment()
            elif tok == "@":
                self.skip_annotation()
            elif tok == "<":
                self.skip_balanced("<", ">")
            elif tok == "(":
                self.skip_balanced("(", ")")
            elif IDENTIFIER_RE.fullmatch(tok):
                current.append(index)
        close_segment()
        return params

    def finish_field(self, buffer: list, class_id: int) -> None:
        """Emit field nodes for a ';'-terminated member declaration."""
        if not buffer:
            return
        segments: list[list[int]] = [[]]
        for item in buffer:
            if item is _COMMA:
                segments.append([])
            else:
                segments[-1].append(item)
        head = segments[0]
        if len(head) < 2:  # needs at least a type and a name
            self.diagnostics.skipped_declarations += 1
            return
        names = [head[-1]] + [seg[0] for seg in segments[1:] if seg]
        for index in names:
            self.emit("field", index, class_id)


# Every character str.splitlines() breaks at; only "\n" ends a Java line here.
_LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

_JAVA_PIECES = [
    "class A {", "interface Shape {", "enum Color {", "record P(int x) {", "@interface M {",
    "int x;", "int a, b = 2, c[];", "String s = null;", "void f(int a, String b) {",
    "abstract void g(List<T> items) throws IOException;", "<T> T pick(T t) {", "A(int n) {",
    "static {", "@Override", "@Ann(value = 1)", "public", "private", "final", "return",
    "new Runnable() {", "x = f(1);", "Map<String, List<Integer>> m;", "42", "0x1F", ".",
    "{", "}", "(", ")", "[", "]", "<", ">", ",", ";", "=", "@", "$x", "_y",
    "{ {", "} }", "((", "))", "<<", ">>", "if (a) { b(); }",
    "// class Line { int c; }", "/* void block(int p) {} */", "/*", "*/", "/** doc */",
    '"s"', '"a\\"b"', '"{"', '"', "'c'", "'\\''", "'{'", "'", '"""\ntext { \n"""', '"""',
    "\\", "é", "日本",
]

# Balanced runs nested a few levels deep, as in method bodies, initializers
# and generic types; the skipper must find the closer that matches.
_nested = st.recursive(
    st.sampled_from(["", "x();", "int local = 1;", "a < b", "new Runnable() { }"]),
    lambda inner: st.tuples(st.sampled_from(["{}", "()", "<>", "[]"]), st.lists(inner, max_size=3)).map(
        lambda pair: pair[0][0] + " ".join(pair[1]) + pair[0][1]
    ),
    max_leaves=8,
)

_members = st.tuples(
    st.sampled_from(["void m(int a) ", "static ", "int f = ", "A(int n) ", "List<T> g(Map", "@Ann"]),
    _nested,
    st.sampled_from(["", ";", " int after;", " void next(int p) {}"]),
).map("".join)

# Type bodies whose members share a declaration, end early or nest a type,
# so the member loop must split declarators and start afresh after each member.
_MEMBER_PIECES = [
    "public static class In { int i; }", "int a, b c;", "int a, String b() {}", "x, y(int z);",
    "int f = 1", "int k = new int[] {1}, q;", "enum E { A, B; int e; }", "int c = a < b;",
    "int x;", "String s, t;", "void f(int a, String b) {}", "int g(final int p, List<T> q);",
    "A(int n) {}", "static {}", "@Override", "x;", ",", ";", "=", "\n",
]

_type_bodies = st.tuples(
    st.sampled_from(["class C {", "interface I {", "record R(int r) {"]),
    st.lists(st.sampled_from(_MEMBER_PIECES) | _members, max_size=10),
    st.sampled_from(["}", "} }", ""]),
).map(lambda parts: " ".join([parts[0], *parts[1], parts[2]]))

_java_like = st.lists(
    st.sampled_from(_JAVA_PIECES)
    | st.sampled_from(_LINE_BREAKS)
    | st.sampled_from([" ", "\t"])
    | _members
    | _type_bodies,
    max_size=80,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_java_like)
def test_tokens_lines_and_scan_agree_with_reference(text):
    reference = _reference_tokenize(text)
    line_ends = []
    tokens = _tokenize(text, line_ends)
    assert tokens == [token for token, _ in reference]
    assert [bisect.bisect_right(line_ends, i) + 1 for i in range(len(tokens))] == [
        line for _, line in reference
    ]

    diagnostics = ScanDiagnostics()
    nodes = extract_java(text, "F.java", diagnostics=diagnostics)
    expected = _ReferenceScanner(reference, "F.java", ScanDiagnostics())
    expected.scan_compilation_unit()
    assert nodes == expected.nodes
    assert diagnostics == expected.diagnostics


class TestExtractProject:
    def test_counts_and_order(self, tmp_path):
        (tmp_path / "b").mkdir()
        (tmp_path / "a.java").write_text("class A { int x; }")
        (tmp_path / "b" / "c.java").write_text("class C { }")
        (tmp_path / "b" / "d.java").write_text("class D { }")
        (tmp_path / "notes.txt").write_text("class NotJava {}")
        nodes, file_count = extract_project(tmp_path)
        assert file_count == 3
        assert [n.file_path for n in nodes] == ["a.java", "a.java", "b/c.java", "b/d.java"]
        assert [n.id for n in nodes] == [0, 1, 2, 3]

    def test_empty_directory(self, tmp_path):
        assert extract_project(tmp_path) == ([], 0)

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(OSError):
            extract_project(tmp_path / "nope")

    def test_directory_named_java_is_skipped_and_dangling_link_unreadable(self, tmp_path):
        (tmp_path / "pkg.java").mkdir()
        (tmp_path / "pkg.java" / "a.java").write_text("class A { }")
        (tmp_path / "C.java").symlink_to(tmp_path / "gone.java")
        diagnostics = ScanDiagnostics()
        nodes, file_count = extract_project(tmp_path, diagnostics)
        assert file_count == 1
        assert [n.file_path for n in nodes] == ["pkg.java/a.java"]
        assert diagnostics.unreadable_files == 1

    def test_parent_ids_reference_earlier_nodes(self, tmp_path):
        (tmp_path / "a.java").write_text("class A { void f(int p) {} }")
        (tmp_path / "b.java").write_text("class B { int q; }")
        nodes, _ = extract_project(tmp_path)
        for node in nodes:
            if node.parent_id is not None:
                assert node.parent_id < node.id


class TestGoldenMiniCorpus:
    def test_node_list_matches_committed_golden(self):
        golden = json.loads((FIXTURES / "minicorpus_nodes.json").read_text())
        nodes, file_count = extract_project(MINICORPUS)
        assert file_count == 20
        produced = [
            {
                "id": n.id,
                "kind": n.kind,
                "name": n.name,
                "file": n.file_path,
                "line": n.line,
                "parent": n.parent_id,
            }
            for n in nodes
        ]
        assert produced == golden

    def test_node_counts_per_kind(self):
        nodes, _ = extract_project(MINICORPUS)
        assert Counter(n.kind for n in nodes) == {
            "class": 21,
            "method": 22,
            "parameter": 12,
            "field": 21,
        }


class TestIngestNodes:
    def test_single_class_record(self):
        nodes = ingest_nodes(io.StringIO('{"kind":"class","name":"Car","file":"a.java","line":1}\n'))
        assert nodes == [SourceNode(0, "class", "Car", "a.java", 1, None)]

    def test_full_hierarchy(self):
        lines = [
            '{"kind":"class","name":"Car","file":"a.java","line":1}',
            '{"kind":"method","name":"drive","file":"a.java","line":2,"parent":0}',
            '{"kind":"parameter","name":"speed","file":"a.java","line":2,"parent":1}',
            '{"kind":"field","name":"wheels","file":"a.java","line":3,"parent":0}',
        ]
        nodes = ingest_nodes(lines)
        assert shapes(nodes) == [
            ("class", "Car", None),
            ("method", "drive", 0),
            ("parameter", "speed", 1),
            ("field", "wheels", 0),
        ]

    def test_bad_kind(self):
        with pytest.raises(SchemaError, match="line 1"):
            ingest_nodes(['{"kind":"module","name":"M","file":"a.java","line":1}'])

    def test_parameter_with_field_parent(self):
        lines = [
            '{"kind":"class","name":"Car","file":"a.java","line":1}',
            '{"kind":"field","name":"wheels","file":"a.java","line":2,"parent":0}',
            '{"kind":"parameter","name":"speed","file":"a.java","line":3,"parent":1}',
        ]
        with pytest.raises(SchemaError, match="line 3"):
            ingest_nodes(lines)

    def test_dangling_parent(self):
        with pytest.raises(SchemaError, match="earlier node"):
            ingest_nodes(['{"kind":"method","name":"f","file":"a.java","line":1,"parent":5}'])

    def test_empty_name(self):
        with pytest.raises(SchemaError):
            ingest_nodes(['{"kind":"class","name":"","file":"a.java","line":1}'])

    def test_invalid_json_reports_line(self):
        with pytest.raises(SchemaError, match="line 2"):
            ingest_nodes(['{"kind":"class","name":"A","file":"a.java","line":1}', "{nope"])

    def test_orphan_method_rejected(self):
        with pytest.raises(SchemaError, match="parent"):
            ingest_nodes(['{"kind":"method","name":"f","file":"a.java","line":1}'])

    def test_blank_lines_skipped(self):
        nodes = ingest_nodes(["", '{"kind":"class","name":"A","file":"a.java","line":1}', "  "])
        assert len(nodes) == 1
