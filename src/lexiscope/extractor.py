"""Extract named declaration nodes from Java-syntax source files.

This is a declaration-level lexical scanner, not a Java parser.  It strips
comments and literals, then walks the token stream recognizing type
declarations, members, and parameter lists.  Method and initializer bodies
are skipped wholesale, so local variables, lambdas, and anonymous classes
never produce nodes.  Regions that do not look like a declaration are
dropped and counted in the diagnostics.
"""

from __future__ import annotations

import bisect
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, NamedTuple

__all__ = [
    "SourceNode",
    "ScanDiagnostics",
    "SchemaError",
    "KINDS",
    "extract_java",
    "extract_project",
    "ingest_nodes",
]

KINDS = ("class", "method", "parameter", "field")

IDENTIFIER_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")

_CLASS_KEYWORDS = {"class", "interface", "enum", "record"}

# Keywords that can precede a member name but never denote its type.
_NON_TYPE_KEYWORDS = {
    "public", "private", "protected", "static", "final", "abstract",
    "default", "native", "synchronized", "transient", "volatile",
    "strictfp", "sealed", "throws", "extends", "implements", "permits",
    "package", "import", "new", "return",
} | _CLASS_KEYWORDS

# Comments, text blocks, strings, and char literals, in match-priority order.
# An unclosed comment or text block runs to the end of the file, and an
# unclosed string or char literal to the end of its line, so none of them is
# scanned as code.
_NOISE_RE = re.compile(
    r'"""(?:[^"\\]|\\.|"(?!""))*(?:"""|\Z)'
    r"|//[^\n]*"
    r"|/\*(?:.*?\*/|.*)"
    r'|"(?:[^"\\\n]|\\.)*(?:"|$)'
    r"|'(?:[^'\\\n]|\\.)*(?:'|$)",
    re.S | re.M,
)

_TOKEN_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*|[0-9][0-9A-Za-z_$]*|\S")

_BRACKETS = {"(": ")", "[": "]", "{": "}"}
_INITIALIZER_ENDS = {",", ";", ")", "]", "}"}


class SourceNode(NamedTuple):
    """One extracted declaration: a class, method, parameter, or field."""

    id: int
    kind: str
    name: str
    file_path: str
    line: int
    parent_id: int | None = None


@dataclass
class ScanDiagnostics:
    """Counters for constructs the scanner gave up on."""

    skipped_declarations: int = 0
    skipped_blocks: int = 0
    unreadable_files: int = 0


class SchemaError(Exception):
    """A line-delimited node record violates the ingestion schema."""

    def __init__(self, line_number: int, reason: str, file_name: str | None = None):
        where = f"line {line_number}" if file_name is None else f"{file_name}, line {line_number}"
        super().__init__(f"{where}: {reason}")
        self.file_name = file_name
        self.line_number = line_number
        self.reason = reason


def _blank_noise(match: re.Match) -> str:
    # One space keeps the tokens on either side apart, and the newlines keep
    # every later token on its line.
    return " " + "\n" * match.group(0).count("\n")


def _tokenize(text: str, line_ends: list[int]) -> list[str]:
    """The tokens of the comment/literal-stripped text.

    Appends to `line_ends`, for each line of the text (split at "\\n" only),
    the number of tokens up to the end of that line, so token i is on line
    bisect_right(line_ends, i) + 1.
    """
    cleaned = _NOISE_RE.sub(_blank_noise, text)
    tokens: list[str] = []
    extend, findall, append = tokens.extend, _TOKEN_RE.findall, line_ends.append
    for line in cleaned.split("\n"):
        extend(findall(line))
        append(len(tokens))
    return tokens


def _next(tokens: list[str], token: str, start: int) -> int:
    """Index of the first `token` at or after `start`, else len(tokens)."""
    try:
        return tokens.index(token, start)
    except ValueError:
        return len(tokens)


class _Scanner:
    """Walks the tokens by index; a node's line is looked up when it is emitted."""

    def __init__(self, tokens: list[str], line_ends: list[int], file_path: str, start_id: int,
                 diagnostics: ScanDiagnostics):
        self.tokens = tokens
        self.line_ends = line_ends
        self.pos = 0
        self.file_path = file_path
        self.next_id = start_id
        self.nodes: list[SourceNode] = []
        self.diagnostics = diagnostics

    def peek(self) -> str:
        """The token at pos, or "" at the end."""
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def emit(self, kind: str, index: int, parent_id: int | None) -> int:
        """Append the node named by token `index`."""
        node_id = self.next_id
        self.next_id += 1
        line = bisect.bisect_right(self.line_ends, index) + 1
        self.nodes.append(
            SourceNode(node_id, kind, self.tokens[index], self.file_path, line, parent_id)
        )
        return node_id

    def skip_balanced(self, opener: str, closer: str) -> None:
        """Consume tokens until the matching closer; opener already consumed.

        Jumps from one opener or closer to the next with list.index, keeping
        the next opener found until the closers pass it.
        """
        tokens, end = self.tokens, len(self.tokens)
        depth, pos = 1, self.pos
        next_opener = _next(tokens, opener, pos)
        while depth:
            next_closer = _next(tokens, closer, pos)
            if next_closer == end:
                pos = end
                break
            while next_opener < next_closer:
                depth += 1
                next_opener = _next(tokens, opener, next_opener + 1)
            depth -= 1
            pos = next_closer + 1
        self.pos = pos

    def skip_annotation(self) -> None:
        """Consume an @Name[(args)] annotation; the '@' already consumed."""
        if IDENTIFIER_RE.fullmatch(self.peek()):
            self.pos += 1
            while self.peek() == ".":  # qualified annotation name
                self.pos += 1
                if IDENTIFIER_RE.fullmatch(self.peek()):
                    self.pos += 1
            if self.peek() == "(":
                self.pos += 1
                self.skip_balanced("(", ")")

    def skip_run(self, tok: str) -> bool:
        """Skip the annotation, '<...>' or '(...)' run that the consumed `tok` opens.

        False, with nothing consumed, when `tok` opens none of them.
        """
        if tok == "@":
            self.skip_annotation()
        elif tok == "<":
            self.skip_balanced("<", ">")
        elif tok == "(":
            self.skip_balanced("(", ")")
        else:
            return False
        return True

    # --- grammar-ish scanning ---

    def scan_compilation_unit(self) -> None:
        tokens = self.tokens
        while self.pos < len(tokens):
            tok = tokens[self.pos]
            self.pos += 1
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
        if not IDENTIFIER_RE.fullmatch(self.peek()):
            self.diagnostics.skipped_declarations += 1
            return
        class_id = self.emit("class", self.pos, parent_id)
        self.pos += 1
        # Skim the header: generics, extends/implements lists, record components.
        tokens = self.tokens
        while self.pos < len(tokens):
            tok = tokens[self.pos]
            self.pos += 1
            if tok == "{":
                self.scan_class_body(class_id)
                return
            if tok == ";":  # headerless declaration, nothing more to scan
                return
            self.skip_run(tok)

    def scan_class_body(self, class_id: int) -> None:
        """Member loop between the braces of a type body."""
        tokens = self.tokens
        declarators: list[list[int]] = [[]]  # identifier indices per ','-separated declarator
        while self.pos < len(tokens):
            index = self.pos
            tok = tokens[index]
            self.pos = index + 1
            if tok == "}":
                break
            if tok == ";":
                self.finish_field(declarators, class_id)
                declarators = [[]]
            elif tok == "=":
                self.skip_initializer()
            elif tok == ",":
                declarators.append([])
            elif tok == "(":
                if self.try_method(declarators, class_id):
                    declarators = [[]]
                else:
                    self.skip_balanced("(", ")")
            elif tok == "{":
                # initializer block, constructor body, or unparsed construct
                self.diagnostics.skipped_blocks += 1
                self.skip_balanced("{", "}")
                declarators = [[]]
            elif tok in _CLASS_KEYWORDS:
                self.scan_class_declaration(class_id)
                declarators = [[]]
            elif IDENTIFIER_RE.fullmatch(tok):
                declarators[-1].append(index)
            else:  # '@' and '<' runs; '.', '[', ']', numbers and other noise are dropped
                self.skip_run(tok)

        if any(declarators):
            self.diagnostics.skipped_declarations += 1

    def skip_initializer(self) -> None:
        """Consume '= ...' up to the ',' or ';' at its depth, or a closer it did not open.

        Leaves that token for the member loop, so declarators keep their
        boundaries and a '}' still closes the type body.  '<' is not an
        opener here: in an initializer, 'a < b' is a comparison.
        """
        tokens = self.tokens
        while self.pos < len(tokens):
            tok = tokens[self.pos]
            if tok in _INITIALIZER_ENDS:
                return
            self.pos += 1
            if tok in _BRACKETS:
                self.skip_balanced(tok, _BRACKETS[tok])

    def try_method(self, declarators: list[list[int]], class_id: int) -> bool:
        """Decide whether the member read so far + '(' starts a method; emit it if so.

        A method name must be an identifier directly preceded by a type
        token (an identifier that is not a modifier/keyword), in a member
        with one declarator.  The '(' is already consumed; on success the
        parameter list, optional throws clause, and body/semicolon are
        consumed too.
        """
        idents = declarators[0]
        if len(declarators) > 1 or len(idents) < 2 or self.tokens[idents[-2]] in _NON_TYPE_KEYWORDS:
            return False

        saved = self.pos
        params = self.scan_parameters()
        # Confirm with the trailer: optional throws list, then '{' or ';'.
        tokens = self.tokens
        while self.pos < len(tokens):
            tok = tokens[self.pos]
            self.pos += 1
            if tok == "{" or tok == ";":
                method_id = self.emit("method", idents[-1], class_id)
                for param_index in params:
                    self.emit("parameter", param_index, method_id)
                if tok == "{":
                    self.skip_balanced("{", "}")
                return True
            if IDENTIFIER_RE.fullmatch(tok) or tok[0].isdigit() or tok in (",", ".", "[", "]"):
                continue
            if not self.skip_run(tok):  # annotation-member default value etc.
                break
        self.pos = saved
        return False

    def scan_parameters(self) -> list[int]:
        """Token indices of the parameter names of a '(...)' list; '(' consumed."""
        params: list[int] = []
        last = None  # the last identifier of a parameter names it
        tokens = self.tokens
        while self.pos < len(tokens):
            index = self.pos
            tok = tokens[index]
            self.pos = index + 1
            if tok == ")":
                break
            if tok == ",":
                if last is not None:
                    params.append(last)
                last = None
            elif IDENTIFIER_RE.fullmatch(tok):
                last = index
            else:
                self.skip_run(tok)
        if last is not None:
            params.append(last)
        return params

    def finish_field(self, declarators: list[list[int]], class_id: int) -> None:
        """Emit field nodes for a ';'-terminated member declaration.

        The first declarator needs a type and a name and is named by its last
        identifier; each later one is named by its first.
        """
        head = declarators[0]
        if len(head) < 2:
            if head or len(declarators) > 1:  # not an empty member such as ';;'
                self.diagnostics.skipped_declarations += 1
            return
        self.emit("field", head[-1], class_id)
        for declarator in declarators[1:]:
            if declarator:
                self.emit("field", declarator[0], class_id)


def extract_java(
    text: str,
    file_path: str | Path,
    start_id: int = 0,
    diagnostics: ScanDiagnostics | None = None,
) -> list[SourceNode]:
    """Scan one Java source text into declaration nodes.

    Best effort: nothing raises on weird input; regions the scanner cannot
    shape into a declaration are counted in `diagnostics` and skipped.
    """
    line_ends: list[int] = []
    scanner = _Scanner(
        _tokenize(text, line_ends), line_ends, str(file_path), start_id,
        diagnostics or ScanDiagnostics(),
    )
    scanner.scan_compilation_unit()
    return scanner.nodes


def extract_project(
    root_directory: str | Path,
    diagnostics: ScanDiagnostics | None = None,
) -> tuple[list[SourceNode], int]:
    """Scan all *.java under a directory, in sorted relative-path order."""
    root = Path(root_directory)
    if not root.is_dir():
        raise NotADirectoryError(f"not a readable directory: {root}")
    diagnostics = diagnostics if diagnostics is not None else ScanDiagnostics()
    nodes: list[SourceNode] = []
    file_count = 0
    for path in sorted(root.rglob("*.java")):
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except IsADirectoryError:  # a directory named like a source file
            continue
        except OSError:
            diagnostics.unreadable_files += 1
            continue
        relative = path.relative_to(root).as_posix()
        nodes.extend(extract_java(text, relative, start_id=len(nodes), diagnostics=diagnostics))
        file_count += 1
    return nodes, file_count


def _validate_node(record, nodes: list[SourceNode]) -> SourceNode:
    """The node-record rules shared by JSONL ingest and index load.

    `record` is one decoded JSON value; `nodes` are the records accepted
    so far, and the new node's id is their count.  Raises ValueError with
    the reason on any violation.
    """
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    kind = record.get("kind")
    if kind not in KINDS:
        raise ValueError(f"bad kind {kind!r}")
    name = record.get("name")
    if not isinstance(name, str) or not IDENTIFIER_RE.fullmatch(name):
        raise ValueError(f"bad name {name!r}")
    file_path = record.get("file")
    if not isinstance(file_path, str) or not file_path:
        raise ValueError("missing file")
    line = record.get("line")
    if type(line) is not int or line < 1:
        raise ValueError(f"bad line {line!r}")

    parent = record.get("parent")
    if parent is None:
        if kind != "class":
            raise ValueError(f"{kind} requires a parent")
    else:
        if type(parent) is not int:
            raise ValueError(f"bad parent {parent!r}")
        if not 0 <= parent < len(nodes):
            raise ValueError(f"parent {parent} does not reference an earlier node")
        parent_kind = nodes[parent].kind
        required = "method" if kind == "parameter" else "class"
        if parent_kind != required:
            raise ValueError(f"{kind} parent must be a {required}, got {parent_kind}")
    return SourceNode(len(nodes), kind, name, file_path, line, parent)


def ingest_nodes(stream: IO[str] | Iterable[str]) -> list[SourceNode]:
    """Read one JSON node record per line into validated SourceNodes.

    Record fields: kind (class|method|parameter|field), name, file, line,
    optional parent (0-based index of an earlier record).  Raises
    SchemaError, with the offending line number, on any violation.
    """
    nodes: list[SourceNode] = []
    for line_number, raw in enumerate(stream, start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(line_number, f"invalid JSON ({exc.msg})") from exc
        try:
            nodes.append(_validate_node(record, nodes))
        except ValueError as exc:
            raise SchemaError(line_number, str(exc)) from exc
    return nodes
