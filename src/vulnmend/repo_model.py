"""Read-only model of a C/C++ workspace.

Everything here treats the tree as data: directory listings, top-level
element extraction and body-elided skeletons. Nothing in this module
writes to the workspace.
"""

from __future__ import annotations

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
    "source_files",
    "render_repo_tree",
    "parse_elements",
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
    Path(path).write_bytes(text.encode("utf-8", errors="surrogateescape"))


@dataclass(frozen=True)
class CodeElement:
    """One named top-level element of a source file.

    Lines are 1-based and inclusive; text is the exact content of those
    lines, newlines included.
    """

    name: str
    qualifier: str | None
    kind: ElementKind
    file: str
    start_line: int
    end_line: int
    text: str

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


def render_repo_tree(root: Path | str,
                     extensions: Iterable[str] = DEFAULT_EXTENSIONS,
                     ignore_dirs: Iterable[str] = DEFAULT_IGNORE_DIRS) -> str:
    """Indented listing of the source files under root.

    Two spaces per level, directories carry a trailing slash, children are
    sorted lexicographically. Directories without any source file beneath
    them are omitted entirely.
    """
    root = Path(root)
    files = source_files(root, extensions, ignore_dirs)
    tree: dict = {}
    for rel in files:
        node = tree
        parts = rel.split("/")
        for part in parts[:-1]:
            node = node.setdefault(part + "/", {})
        node[parts[-1]] = None

    lines = [root.name + "/"]

    def emit(node: dict, depth: int) -> None:
        for name in sorted(node):
            lines.append("  " * depth + name)
            if node[name] is not None:
                emit(node[name], depth + 1)

    emit(tree, 1)
    return "\n".join(lines)


def parse_elements(root: Path | str, relpath: str):
    """Top-level elements of one file, ordered by start line."""
    root = Path(root)
    path = root / relpath
    if not path.is_file():
        raise FileNotFoundError(relpath)
    try:
        text = read_text(path)
    except OSError as exc:
        raise ParseFailure(f"cannot read {relpath}: {exc}") from exc

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
        ))
    return out


def skeletonize(text: str) -> str:
    """Collapse every function body to `{ ... }`.

    Declarations, type definitions, macros, globals and comments outside
    bodies survive verbatim. Bodies already shorter than the placeholder
    are left alone so the result never grows.
    """
    replacements = []
    for raw in scan_elements(text):
        if raw.kind is not ElementKind.FUNCTION or raw.body is None:
            continue
        open_pos, close_pos = raw.body
        inner = text[open_pos + 1:close_pos]
        if len(inner) > len(" ... "):
            replacements.append((open_pos + 1, close_pos))
    for start, end in sorted(replacements, reverse=True):
        text = text[:start] + " ... " + text[end:]
    return text
