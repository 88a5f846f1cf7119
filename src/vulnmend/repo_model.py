"""Model of a C/C++ workspace, and the package's file writers.

Everything here treats the tree as data: directory listings, top-level
element extraction, a content-keyed element index and body-elided
skeletons. The index and listings never write; write_text and
write_json are the one place the package writes a file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .cparse import ElementKind, scan_elements
from .errors import ParseFailure

__all__ = [
    "ElementKind",
    "CodeElement",
    "DEFAULT_EXTENSIONS",
    "DEFAULT_IGNORE_DIRS",
    "read_text",
    "write_text",
    "write_json",
    "source_files",
    "render_repo_tree",
    "parse_elements",
    "RepoIndex",
    "skeletonize",
]

DEFAULT_EXTENSIONS = (".c", ".h", ".cc", ".cpp", ".cxx", ".hpp", ".hh")
DEFAULT_IGNORE_DIRS = frozenset({".git", ".hg", ".svn"})


def read_text(path: Path | str) -> str:
    """Decode a workspace file so that writing the result back is
    byte-lossless even when the file is not valid UTF-8."""
    data = Path(path).read_bytes()
    return data.decode("utf-8", errors="surrogateescape")


def write_text(path: Path | str, text: str) -> None:
    """Write text as read_text decoded it, creating missing parent
    directories; surrogate escapes go back out as their raw bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8", errors="surrogateescape"))


def write_json(path: Path | str, payload) -> None:
    """Deterministic JSON: sorted keys, two-space indent, final newline."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class CodeElement:
    """One named top-level element of a source file.

    Lines are 1-based and inclusive; text is the exact content of those
    lines, newlines included. body holds the character offsets, in the
    whole file's text, of a function body's braces.
    """

    name: str
    qualifier: str | None
    kind: ElementKind
    file: str
    start_line: int
    end_line: int
    text: str
    body: tuple[int, int] | None = None

    @property
    def qualified_name(self) -> str:
        return f"{self.qualifier}::{self.name}" if self.qualifier else self.name


def source_files(root: Path | str,
                 extensions: Iterable[str] = DEFAULT_EXTENSIONS,
                 ignore_dirs: Iterable[str] = DEFAULT_IGNORE_DIRS) -> list[str]:
    """Relative paths of all source files under root, sorted."""
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(str(root))
    exts = tuple(extensions)
    ignored = set(ignore_dirs)
    found = []
    for path in root.rglob("*"):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if any(part in ignored for part in rel.parts[:-1]):
            continue
        if path.suffix in exts:
            found.append(rel.as_posix())
    found.sort()
    return found


def render_repo_tree(repo: RepoIndex | Path | str) -> str:
    """Indented listing of the source files of a workspace.

    Two spaces per level, directories carry a trailing slash, children are
    sorted lexicographically. Directories without any source file beneath
    them are omitted entirely. Given a directory instead of its index,
    the listing is taken for this call only.
    """
    index = RepoIndex.of(repo)
    tree: dict = {}
    for rel in index.files():
        node = tree
        parts = rel.split("/")
        for part in parts[:-1]:
            node = node.setdefault(part + "/", {})
        node[parts[-1]] = None

    lines = [index.root.name + "/"]

    def emit(node: dict, depth: int) -> None:
        for name in sorted(node):
            lines.append("  " * depth + name)
            if node[name] is not None:
                emit(node[name], depth + 1)

    emit(tree, 1)
    return "\n".join(lines)


def parse_elements(root: Path | str, relpath: str):
    """Top-level elements of one file, ordered by start line."""
    return RepoIndex(root).elements(relpath)


def _elements_of(text: str, relpath: str) -> tuple[CodeElement, ...]:
    lines = text.splitlines(keepends=True)
    # offsets of line starts, for charpos -> line conversion
    starts = [0]
    for ln in lines:
        starts.append(starts[-1] + len(ln))

    def line_of(pos: int) -> int:
        lo, hi = 0, len(lines)
        while lo < hi:
            mid = (lo + hi) // 2
            if starts[mid + 1] <= pos:
                lo = mid + 1
            else:
                hi = mid
        return lo + 1

    out = []
    for raw in scan_elements(text):
        start_line = line_of(raw.start)
        end_line = line_of(max(raw.end - 1, raw.start))
        out.append(CodeElement(
            name=raw.name,
            qualifier=raw.qualifier,
            kind=raw.kind,
            file=relpath.replace("\\", "/"),
            start_line=start_line,
            end_line=end_line,
            text="".join(lines[start_line - 1:end_line]),
            body=raw.body,
        ))
    return tuple(out)


class RepoIndex:
    """The source files of one workspace and their top-level elements.

    The file list is taken once, on first use: edit sets rewrite files
    but never add or remove one. A file is parsed again only when the
    digest of its current bytes differs from the digest it was last
    parsed at, so lookups always answer from the text on disk. Per file
    only (digest, elements) is kept, never the text.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._files: list[str] | None = None
        self._parsed: dict[str, tuple[bytes, tuple[CodeElement, ...]]] = {}
        # bumped on every parse; a consumer that derives data from the
        # elements rebuilds it when this moved
        self.generation = 0

    @classmethod
    def of(cls, repo: "RepoIndex | Path | str") -> "RepoIndex":
        """repo itself, or a new index over the directory repo."""
        return repo if isinstance(repo, RepoIndex) else cls(repo)

    def files(self) -> list[str]:
        if self._files is None:
            self._files = source_files(self.root)
        return self._files

    def read(self, relpath: str) -> tuple[str, tuple[CodeElement, ...]]:
        """Current text of one file and its elements, by start line."""
        path = self.root / relpath
        if not path.is_file():
            raise FileNotFoundError(relpath)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ParseFailure(f"cannot read {relpath}: {exc}") from exc
        text = data.decode("utf-8", errors="surrogateescape")
        digest = hashlib.blake2b(data, digest_size=16).digest()
        cached = self._parsed.get(relpath)
        if cached is None or cached[0] != digest:
            cached = (digest, _elements_of(text, relpath))
            self._parsed[relpath] = cached
            self.generation += 1
        return text, cached[1]

    def elements(self, relpath: str) -> tuple[CodeElement, ...]:
        return self.read(relpath)[1]


def skeletonize(text: str,
                elements: Iterable[CodeElement] | None = None) -> str:
    """Collapse every function body to `{ ... }`.

    Declarations, type definitions, macros, globals and comments outside
    bodies survive verbatim. Bodies already shorter than the placeholder
    are left alone so the result never grows. Pass the elements of text
    (as RepoIndex.read returns them) to skip scanning it again.
    """
    replacements = []
    for element in scan_elements(text) if elements is None else elements:
        if element.kind is not ElementKind.FUNCTION or element.body is None:
            continue
        open_pos, close_pos = element.body
        inner = text[open_pos + 1:close_pos]
        if len(inner) > len(" ... "):
            replacements.append((open_pos + 1, close_pos))
    for start, end in sorted(replacements, reverse=True):
        text = text[:start] + " ... " + text[end:]
    return text
