"""Model of a C/C++ workspace, and the package's file writers.

Everything here treats the tree as data: directory listings, top-level
element extraction, a content-keyed element index and body-elided
skeletons. RepoIndex is the one reader of a workspace: every tool and
stage names files through it, so one rule decides which paths a model
may name. The index and listings never write; write_text and write_json
are the one place the package writes a file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .cparse import ElementKind, scan_elements
from .errors import ParseFailure

DEFAULT_EXTENSIONS = (".c", ".h", ".cc", ".cpp", ".cxx", ".hpp", ".hh")
DEFAULT_IGNORE_DIRS = frozenset({".git", ".hg", ".svn"})


def read_text(path: Path | str) -> str:
    """Decode a workspace file so that writing the result back is
    byte-lossless even when the file is not valid UTF-8."""
    data = Path(path).read_bytes()
    return data.decode("utf-8", errors="surrogateescape")


_LINE = re.compile(r"[^\n]*\n|[^\n]+")
_WORD = re.compile(r"\w+")
_WORD_CHAR = re.compile(r"\w")


def split_lines(text: str) -> list[str]:
    r"""Lines of text, each keeping its "\n" (the last may have none).
    Only "\n" ends a line, as gcc, the sanitizers and git apply count
    lines; a "\r", "\f" or other break that str.splitlines honours stays
    inside its line."""
    return _LINE.findall(text)


def skip_dangling_links(directory: str, names: list[str]) -> set[str]:
    """shutil.copytree ignore= callable that drops links whose target is
    missing. The target is looked up from the link's own directory, so a
    valid relative link is kept and copied as the file it points to."""
    return {name for name in names
            if os.path.islink(os.path.join(directory, name))
            and not os.path.exists(os.path.join(directory, name))}


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

    def is_named(self, name: str) -> bool:
        """Whether a search for name finds this element: name is its bare
        name or, with `::`, the last scopes of its qualified name, so
        `M::f` and `N::M::f` both find `N::M::f`."""
        if "::" not in name:
            return self.name == name
        return f"::{self.qualified_name}".endswith(f"::{name}")


def _resolves_inside(root: Path, path: Path) -> bool:
    return path.resolve().is_relative_to(root.resolve())


def source_files(root: Path | str,
                 extensions: Iterable[str] = DEFAULT_EXTENSIONS,
                 ignore_dirs: Iterable[str] = DEFAULT_IGNORE_DIRS) -> list[str]:
    """Relative paths of all source files under root, sorted. A link
    that resolves outside root is skipped, as RepoIndex.path refuses it;
    rglob does not enter linked directories, so only a file's own link
    needs resolving."""
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
        if path.suffix not in exts:
            continue
        if path.is_symlink() and not _resolves_inside(root, path):
            continue
        found.append(rel.as_posix())
    found.sort()
    return found


def render_repo_tree(index: RepoIndex) -> str:
    """Indented listing of the source files of a workspace.

    Two spaces per level, directories carry a trailing slash, children are
    sorted lexicographically. Directories without any source file beneath
    them are omitted entirely.
    """
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


def _elements_of(text: str, relpath: str) -> tuple[CodeElement, ...]:
    lines = split_lines(text)
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


class WholeWord:
    """Where a word occurs in a text as a maximal run of word characters.
    A string that is not a run of word characters occurs nowhere. One
    pattern is compiled per matcher, however many texts it scans."""

    def __init__(self, word: str):
        self.word = word
        # a literal head keeps re's fast literal scan, which a leading \b
        # or lookbehind would turn off; the character before each hit is
        # checked by hand instead
        self._head = (re.compile(re.escape(word) + r"(?!\w)")
                      if _WORD.fullmatch(word) else None)

    def offsets(self, text: str) -> Iterator[int]:
        """The offsets of the occurrences, ascending."""
        if self._head is None:
            return
        for m in self._head.finditer(text):
            start = m.start()
            if start == 0 or not _WORD_CHAR.match(text, start - 1):
                yield start


class RepoIndex:
    """The one reader of a workspace: its source files, their text and
    their top-level elements. Tools and stages hold the index, never
    its root, so path() decides for all of them which names may be read.

    The file list is taken once, on first use: edit sets rewrite files
    but never add or remove one. A file is parsed again only when the
    digest of its current bytes differs from the digest it was last
    parsed at, so lookups always answer from the text on disk. Per file
    only (digest, elements) is kept, never the text.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._files: list[str] | None = None
        self._listed: frozenset[str] = frozenset()
        self._parsed: dict[str, tuple[bytes, tuple[CodeElement, ...]]] = {}

    def files(self) -> list[str]:
        if self._files is None:
            self._files = source_files(self.root)
            self._listed = frozenset(self._files)
        return self._files

    def path(self, name: str) -> Path:
        """root / name, for a regular file inside root. Names come from
        model output, so one that climbs above root (even to come back),
        an absolute path elsewhere and a link out are refused; a listed
        name passed that check when it was listed."""
        path = self.root / name
        if name not in self._listed and (
                os.path.normpath(name).split(os.sep)[0] == ".."
                or not _resolves_inside(self.root, path)):
            raise ValueError(f"{name} is outside the workspace")
        if not path.is_file():
            raise FileNotFoundError(name)
        return path

    def text(self, name: str) -> str:
        """The current text of the file path(name) allows."""
        return read_text(self.path(name))

    def read(self, relpath: str) -> tuple[str, tuple[CodeElement, ...]]:
        """Current text of one file and its elements, by start line."""
        path = self.path(relpath)
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
        return text, cached[1]

    def files_with_word(self, word: WholeWord) -> list[str]:
        """The files, in files() order, whose current text holds word.
        The text is read, not hashed or parsed. A file that cannot be
        read is kept, so that whoever reads it next reports the failure."""
        found = []
        for rel in self.files():
            try:
                text = self.text(rel)
            except OSError:
                found.append(rel)
                continue
            if next(word.offsets(text), None) is not None:
                found.append(rel)
        return found

    def elements_named(self, name: str
                       ) -> Iterator[tuple[CodeElement, int | None]]:
        """The elements that CodeElement.is_named(name) finds, in files()
        order, each with the offset in its text where its name first
        occurs as a whole word. An element's name is a whole word of its
        text, so only the files that hold the name's last `::` part as a
        whole word are parsed."""
        word = WholeWord(name.rsplit("::", 1)[-1])
        for rel in self.files_with_word(word):
            for element in self.elements(rel):
                if element.is_named(name):
                    yield element, next(word.offsets(element.text), None)

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
