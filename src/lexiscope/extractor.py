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
import contextlib
import hashlib
import json
import marshal
import os
import re
import stat
from dataclasses import dataclass
from itertools import count, repeat
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from ._snapshot import Slot, file_digest

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
                class_id = self.scan_class_declaration(parent_id=None)
                if class_id is not None:
                    self.scan_class_body(class_id)
            elif tok == "@":
                self.skip_annotation()
            elif tok == "{":
                self.diagnostics.skipped_blocks += 1
                self.skip_balanced("{", "}")
            # package/import statements and stray tokens fall through

    def scan_class_declaration(self, parent_id: int | None) -> int | None:
        """Keyword already consumed; emits the node and skims the header.

        The class's id when the '{' of its body was consumed, else None.
        """
        if not IDENTIFIER_RE.fullmatch(self.peek()):
            self.diagnostics.skipped_declarations += 1
            return None
        class_id = self.emit("class", self.pos, parent_id)
        self.pos += 1
        # Skim the header: generics, extends/implements lists, record components.
        tokens = self.tokens
        while self.pos < len(tokens):
            tok = tokens[self.pos]
            self.pos += 1
            if tok == "{":
                return class_id
            if tok == ";":  # headerless declaration, nothing more to scan
                return None
            self.skip_run(tok)
        return None

    def scan_class_body(self, class_id: int) -> None:
        """Member loop between the braces of a type body, and of the types nested in it.

        The enclosing bodies of a nested type wait on a stack, not on the
        call stack, so no depth of nesting exhausts the recursion limit.
        """
        tokens = self.tokens
        outer: list[int] = []  # the class ids of the enclosing bodies, innermost last
        declarators: list[list[int]] = [[]]  # identifier indices per ','-separated declarator
        while True:
            if self.pos >= len(tokens):
                tok = "}"  # the end of the file closes every open body
            else:
                index = self.pos
                tok = tokens[index]
                self.pos = index + 1
            if tok == "}":
                if any(declarators):
                    self.diagnostics.skipped_declarations += 1
                if not outer:
                    return
                class_id = outer.pop()
                declarators = [[]]
            elif tok == ";":
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
                nested = self.scan_class_declaration(class_id)
                if nested is not None:
                    outer.append(class_id)
                    class_id = nested
                declarators = [[]]
            elif IDENTIFIER_RE.fullmatch(tok):
                declarators[-1].append(index)
            else:  # '@' and '<' runs; '.', '[', ']', numbers and other noise are dropped
                self.skip_run(tok)

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
    """Scan all *.java under a directory, in sorted relative-path order.

    The scan is kept in the tree's cache slot (see _snapshot), keyed by
    the relative paths, the bytes of every file and this scanner's own
    source; a later scan of the same files from the same directory reads
    the slot, and adds the counters it stored to `diagnostics`.  A tree
    with a file that cannot be read gets no slot.
    """
    root = Path(root_directory)
    if not root.is_dir():
        raise NotADirectoryError(f"not a readable directory: {root}")
    diagnostics = diagnostics if diagnostics is not None else ScanDiagnostics()
    # Each file under its relative path's parts, which is how Paths sort.
    # os.walk tells a directory named like a source file, which is no
    # source, from a file without a stat, and enters no linked directory.
    prefix = len(os.path.join(root, "x")) - 1
    files = sorted(
        (path[prefix:].split(os.sep), path)
        for directory, _directories, names in os.walk(root)
        for path in (os.path.join(directory, name) for name in names if name.endswith(".java"))
    )
    paths = [path for _parts, path in files]
    relative = ["/".join(parts) for parts, _path in files]
    tag = b"\0".join([_SLOT_FORMAT, *map(os.fsencode, relative)])
    slot = Slot.of("scan", root, tag, [*paths, _SCANNER])
    payload = None if slot is None else slot.read(parse_hashes=True)
    scan = None if payload is None else _scan_from_slot(payload)
    if scan is None:
        scan, digests = _scan(paths, relative)
        if slot is not None and not scan[2].unreadable_files:
            with contextlib.suppress(OSError):  # a scanner that cannot be read keys no slot
                slot.write(_slot_payload(scan), [*digests, file_digest(_SCANNER)])
    nodes, file_count, counts = scan
    diagnostics.skipped_declarations += counts.skipped_declarations
    diagnostics.skipped_blocks += counts.skipped_blocks
    diagnostics.unreadable_files += counts.unreadable_files
    return nodes, file_count


def _scan(paths: list[str], relative: list[str]):
    """((nodes, number of files read, counters), sha256 of each file read) of a scan of the files.

    Each file is read once: the sha256s are of the bytes the scan decoded.
    A file is opened without blocking, so a pipe with no writer does not
    stall the scan; anything that is not a regular file once open is an
    unreadable file, as is a file that cannot be opened or read.
    """
    counts = ScanDiagnostics()
    nodes: list[SourceNode] = []
    digests: list[bytes] = []
    for path, name in zip(paths, relative):
        try:
            data = _read_regular(path)
        except OSError:
            counts.unreadable_files += 1
            continue
        digests.append(hashlib.sha256(data).digest())
        nodes.extend(extract_java(_decoded(data), name, start_id=len(nodes), diagnostics=counts))
    return (nodes, len(digests), counts), digests


def _read_regular(path: str) -> bytes:
    """The bytes of the regular file at path; OSError for anything else, found without blocking."""
    handle = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    with open(handle, "rb") as stream:
        if not stat.S_ISREG(os.fstat(handle).st_mode):
            raise OSError(f"not a regular file: {path}")
        return stream.read()


def _decoded(data: bytes) -> str:
    """The text read_text(encoding="utf-8", errors="replace") reads from a file of these bytes."""
    text = data.decode("utf-8", "replace")
    # Universal newlines: "\r\n" and a lone "\r" end a line as "\n" does.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# The scanner's source is in every scan slot's key, so a change to the
# scanner misses every slot; bump the tag when only the payload changes.
_SCANNER = Path(__file__)
_SLOT_FORMAT = b"lexiscope-scan-3"


def _slot_payload(scan) -> bytes:
    """The marshalled (file count, counters, the nodes' _node_columns) of a scan."""
    nodes, file_count, counts = scan
    counters = counts.skipped_declarations, counts.skipped_blocks, counts.unreadable_files
    return marshal.dumps((file_count, counters, *_node_columns(nodes)))


def _scan_from_slot(payload: bytes):
    """The (nodes, file count, counters) a slot payload holds, or None for a bad shape."""
    try:
        file_count, counters, *columns = marshal.loads(payload)
        counts = ScanDiagnostics(*counters)
    except (EOFError, ValueError, TypeError):
        return None
    return (_nodes_from_columns(columns), file_count, counts) if _good_columns(columns) else None


def _node_columns(nodes: list[SourceNode]) -> tuple[tuple, ...]:
    """The kind, name, file, line and parent columns of nodes whose ids are their positions.

    Equal kinds and equal files are one object, which marshal writes once.
    The scan and index slots store nodes as these columns.
    """
    _ids, kinds, names, files, lines, parents = zip(*nodes) if nodes else ((),) * 6
    same = dict(zip(kinds, kinds))
    same.update(zip(files, files))
    return tuple(map(same.__getitem__, kinds)), names, tuple(map(same.__getitem__, files)), lines, parents


def _good_columns(columns) -> bool:
    """Whether columns have the shape _node_columns gives: five tuples of one length."""
    return len(columns) == 5 and all(type(column) is tuple and len(column) == len(columns[0]) for column in columns)


def _nodes_from_columns(columns) -> list[SourceNode]:
    """The nodes whose _node_columns these are."""
    # tuple.__new__ over the zipped columns makes each node without a Python call.
    return list(map(tuple.__new__, repeat(SourceNode), zip(count(), *columns)))


def _validate_node(kind, name, file_path, line, parent, nodes: list[SourceNode], position: int) -> None:
    """The node rules shared by JSONL ingest, index load and save_index.

    The first five arguments are one node's field values; `nodes[:position]`
    are the nodes before it.  Raises ValueError with the reason on any
    violation.
    """
    if kind not in KINDS:
        raise ValueError(f"bad kind {kind!r}")
    # IDENTIFIER_RE.fullmatch(name), without the regex engine's cost per call.
    if not isinstance(name, str) or not (name.isascii() and name.replace("$", "_").isidentifier()):
        raise ValueError(f"bad name {name!r}")
    if not isinstance(file_path, str) or not file_path:
        raise ValueError("missing file")
    if type(line) is not int or line < 1:
        raise ValueError(f"bad line {line!r}")

    if parent is None:
        if kind != "class":
            raise ValueError(f"{kind} requires a parent")
    else:
        if type(parent) is not int:
            raise ValueError(f"bad parent {parent!r}")
        if not 0 <= parent < position:
            raise ValueError(f"parent {parent} does not reference an earlier node")
        parent_kind = nodes[parent].kind
        required = "method" if kind == "parameter" else "class"
        if parent_kind != required:
            raise ValueError(f"{kind} parent must be a {required}, got {parent_kind}")


def _node_from_record(record, nodes: list[SourceNode]) -> SourceNode:
    """The node after `nodes` that one decoded JSON record gives, by _validate_node's rules.

    Raises ValueError with the reason on any violation.
    """
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    fields = tuple(map(record.get, ("kind", "name", "file", "line", "parent")))
    _validate_node(*fields, nodes, len(nodes))
    return SourceNode(len(nodes), *fields)


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
            nodes.append(_node_from_record(record, nodes))
        except ValueError as exc:
            raise SchemaError(line_number, str(exc)) from exc
    return nodes
