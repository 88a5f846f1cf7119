"""Marker-driven symbol resolution.

Callers "edit" code virtually: they wrap an identifier in a SEARCH/REPLACE
block with FIND_DEFINITION(name) or FIND_REFERENCES(name). The block is
never applied; diffing REPLACE against SEARCH pins the identifier to an
exact (file, line, column), which is then fed to a symbol backend. This
lets a language model point at "this `index`, not the other twelve" with
plain text.

Positions are 1-based for both line and column throughout this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .edit_engine import locate_search, parse_edit_blocks
from .errors import MalformedBlock, NoMarkersFound, VulnmendError
from .repo_model import RepoIndex, read_text
from .repo_model import source_files  # noqa: F401  (probed by bench/spans.py)

_MARKER_RE = re.compile(
    r"\b(FIND_DEFINITION|FIND_REFERENCES)\(\s*([A-Za-z_]\w*)\s*\)")
_MARKER_NAMES = ("FIND_DEFINITION(", "FIND_REFERENCES(")
_WORD_RE = re.compile(r"\w+")

DEFAULT_REFERENCE_CAP = 50


@dataclass(frozen=True)
class MarkerQuery:
    kind: str          # "definition" | "references"
    symbol: str
    file: str
    line: int
    col: int


@dataclass(frozen=True)
class SymbolLocation:
    file: str
    line: int
    col: int
    preview: str

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}  {self.preview.strip()}"


@dataclass(frozen=True)
class ResolutionOutcome:
    query: MarkerQuery
    locations: tuple
    truncated: bool = False
    total: int = 0
    error: str | None = None
    includes_declaration: bool = False


@dataclass(frozen=True)
class ResolutionResult:
    outcomes: tuple

    def render(self) -> str:
        parts = []
        for i, oc in enumerate(self.outcomes, 1):
            q = oc.query
            kind = ("FIND_DEFINITION" if q.kind == "definition"
                    else "FIND_REFERENCES")
            note = " (declaration included)" if oc.includes_declaration else ""
            parts.append(f"Query {i}: {kind}({q.symbol}) "
                         f"at {q.file}:{q.line}:{q.col}{note}")
            if oc.error:
                parts.append(f"  error: {oc.error}")
                continue
            if not oc.locations:
                parts.append("  no results")
            label = "definition" if q.kind == "definition" else "reference"
            for loc in oc.locations:
                parts.append(f"  {label}: {loc.render()}")
            if oc.truncated:
                parts.append(f"  ... {len(oc.locations)} of {oc.total} "
                             f"shown; list truncated ...")
        return "\n".join(parts)


def _strip_markers(replace: str):
    """Remove marker wrappers, keeping the wrapped identifiers.

    Returns (stripped_text, markers) where each marker is
    (kind_keyword, symbol, offset_of_symbol_in_stripped_text).
    """
    pieces = []
    markers = []
    pos = 0
    stripped_len = 0
    for m in _MARKER_RE.finditer(replace):
        pieces.append(replace[pos:m.start()])
        stripped_len += m.start() - pos
        markers.append((m.group(1), m.group(2), stripped_len))
        pieces.append(m.group(2))
        stripped_len += len(m.group(2))
        pos = m.end()
    pieces.append(replace[pos:])
    return "".join(pieces), markers


def _nth_word_occurrence(line: str, token: str, col: int) -> int:
    """How many word-boundary occurrences of token start before col
    (0-based) in line, counting the one at col itself."""
    count = 0
    for m in re.finditer(rf"\b{re.escape(token)}\b", line):
        if m.start() <= col:
            count += 1
        else:
            break
    return count


def _col_of_occurrence(line: str, token: str, nth: int) -> int | None:
    for i, m in enumerate(re.finditer(rf"\b{re.escape(token)}\b", line), 1):
        if i == nth:
            return m.start()
    return None


def plan_queries(root: Path | str, blocks_text: str) -> list[MarkerQuery]:
    """Turn marker-bearing edit blocks into positioned queries.

    The replace body must equal the search body once markers are stripped;
    any other difference means the caller tried to edit and mark at once,
    which is rejected. Raises NoMarkersFound when no block carries any
    marker.
    """
    root = Path(root)
    queries: list[MarkerQuery] = []
    edits = parse_edit_blocks(blocks_text)
    for edit in edits:
        stripped, markers = _strip_markers(edit.replace)
        if any(tag in stripped for tag in _MARKER_NAMES):
            raise MalformedBlock(
                "FIND_DEFINITION/FIND_REFERENCES must wrap a single "
                "identifier")
        if not markers:
            continue
        if stripped != edit.search:
            raise MalformedBlock(
                "replace body must differ from search only by markers")
        path = root / edit.file
        if not path.is_file():
            raise FileNotFoundError(edit.file)
        content = read_text(path)
        start_idx, _, mode = locate_search(content, edit.search)
        file_lines = content.split("\n")
        search_lines = edit.search.split("\n")
        for kw, symbol, offset in markers:
            before = edit.search[:offset]
            line_idx = before.count("\n")
            col_in_search = offset - (before.rfind("\n") + 1)
            file_line_no = start_idx + line_idx + 1
            if mode == "exact":
                col = col_in_search
            else:
                nth = _nth_word_occurrence(search_lines[line_idx], symbol,
                                           col_in_search)
                col = _col_of_occurrence(file_lines[file_line_no - 1],
                                         symbol, nth)
                if col is None:
                    raise MalformedBlock(
                        f"cannot place marker for {symbol!r} on "
                        f"{edit.file}:{file_line_no}")
            kind = "definition" if kw == "FIND_DEFINITION" else "references"
            queries.append(MarkerQuery(kind=kind, symbol=symbol,
                                       file=edit.file, line=file_line_no,
                                       col=col + 1))
    if not queries:
        raise NoMarkersFound("no FIND_DEFINITION/FIND_REFERENCES markers "
                             "in any block")
    return queries


def resolve_code_symbol(root: Path | str, blocks_text: str,
                        backend: IndexBackend,
                        reference_cap: int = DEFAULT_REFERENCE_CAP
                        ) -> ResolutionResult:
    """Plan queries from blocks_text and run them against the backend.

    Per-query backend failures become error outcomes; they never abort
    the sibling queries.
    """
    queries = plan_queries(root, blocks_text)
    outcomes = []
    for q in queries:
        try:
            if q.kind == "definition":
                locs = backend.definition(q.file, q.line, q.col)
            else:
                locs = backend.references(q.file, q.line, q.col)
            total = len(locs)
            truncated = total > reference_cap
            outcomes.append(ResolutionOutcome(
                query=q, locations=tuple(locs[:reference_cap]),
                truncated=truncated, total=total,
                includes_declaration=backend.includes_declaration))
        except (VulnmendError, OSError) as exc:
            outcomes.append(ResolutionOutcome(query=q, locations=(),
                                              error=str(exc)))
    return ResolutionResult(outcomes=tuple(outcomes))


class IndexBackend:
    """Symbol backend built from the element scanner plus token scanning.

    Definitions come from the element index (a marker placed on the
    definition itself therefore finds itself, too). References are
    word-boundary token occurrences, declaration sites included. Both
    look only in the files that hold the token as a whole word, and
    answer from those files as they are now.
    """

    includes_declaration = True

    def __init__(self, index: RepoIndex):
        self.index = index
        self.root = index.root

    def _name_site(self, element, rel: str) -> SymbolLocation | None:
        # element names are identifiers, so a whole-word occurrence of
        # the name is exactly a maximal word run equal to it
        for idx, text in enumerate(element.text.split("\n")):
            for m in _WORD_RE.finditer(text):
                if m.group() == element.name:
                    return SymbolLocation(file=rel,
                                          line=element.start_line + idx,
                                          col=m.start() + 1, preview=text)
        return None

    def _token_at(self, file: str, line: int, col: int) -> str | None:
        lines = read_text(self.root / file).split("\n")
        if not (1 <= line <= len(lines)):
            return None
        text = lines[line - 1]
        for m in re.finditer(r"[A-Za-z_]\w*", text):
            if m.start() <= col - 1 < m.end():
                return m.group(0)
        return None

    def definition(self, file: str, line: int, col: int):
        token = self._token_at(file, line, col)
        if token is None:
            return []
        out = []
        for rel in self.index.files_with_word(token):
            try:
                elements = self.index.elements(rel)
            except VulnmendError:
                continue
            for e in elements:
                if e.name == token:
                    loc = self._name_site(e, rel)
                    if loc is not None:
                        out.append(loc)
        out.sort(key=lambda l: (l.file, l.line, l.col))
        return out

    def references(self, file: str, line: int, col: int):
        token = self._token_at(file, line, col)
        if token is None:
            return []
        pattern = re.compile(rf"\b{re.escape(token)}\b")
        out = []
        for rel in self.index.files_with_word(token):
            for idx, text in enumerate(
                    read_text(self.root / rel).split("\n"), 1):
                if token not in text:
                    continue
                for m in pattern.finditer(text):
                    out.append(SymbolLocation(file=rel, line=idx,
                                              col=m.start() + 1,
                                              preview=text))
        return out


def make_symbol_backend(index: RepoIndex) -> IndexBackend:
    """The symbol backend for one workspace: the in-process index."""
    return IndexBackend(index)
