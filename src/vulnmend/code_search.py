"""Read-only code viewing: element search and line-window reads.

Windows render with 1-based line numbers, and any line the caller asks to
mark gets an annotation of the form

    151     if (njs_is_valid(&array->start[i])) { // <<<<< njs/src/njs_array.c:151

appended, so a later tool can recover (path, line) pairs from quoted text
without guessing.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ElementNotFound
from .repo_model import CodeElement, RepoIndex, read_text, split_lines
from .repo_model import source_files  # noqa: F401  (probed by bench/spans.py)

MARKER_RE = re.compile(r"// <<<<< (\S+):(\d+)\s*$")

DEFAULT_SEARCH_LIMIT = 10


def format_marker(file: str, line: int) -> str:
    return f"// <<<<< {file}:{line}"


def parse_annotations(text: str) -> list[tuple[str, int]]:
    """(path, line) for every annotated line, in order of appearance."""
    out = []
    for raw in text.splitlines():
        m = MARKER_RE.search(raw)
        if m:
            out.append((m.group(1), int(m.group(2))))
    return out


@dataclass(frozen=True)
class CodeWindow:
    """A numbered slice of one file, possibly with marked lines."""

    file: str
    start_line: int
    end_line: int
    lines: Sequence[str]              # raw text, no trailing newlines
    marked: frozenset[int] = field(default_factory=frozenset)

    def render(self) -> str:
        parts = []
        for offset, text in enumerate(self.lines):
            n = self.start_line + offset
            if n in self.marked:
                parts.append(f"{n} {text} {format_marker(self.file, n)}")
            else:
                parts.append(f"{n} {text}")
        return "\n".join(parts)


@dataclass(frozen=True)
class SearchResult:
    matches: tuple
    truncated: bool

    def render(self) -> str:
        parts = []
        for element, window in self.matches:
            q = element.qualified_name
            parts.append(f"{q} ({element.kind.value}) "
                         f"at {element.file}:{element.start_line}-"
                         f"{element.end_line}")
            parts.append(window.render())
        if self.truncated:
            parts.append(f"... result list truncated to "
                         f"{len(self.matches)} matches ...")
        return "\n".join(parts)


def _display_lines(text: str) -> list[str]:
    """The lines split_lines numbers, without their line endings."""
    return [line.removesuffix("\n").removesuffix("\r")
            for line in split_lines(text)]


def _window_for_element(element: CodeElement,
                        mark_lines: Iterable[int] | None) -> CodeWindow:
    lines = _display_lines(element.text)
    marked = frozenset(
        n for n in (mark_lines or ())
        if element.start_line <= n <= element.end_line)
    return CodeWindow(file=element.file, start_line=element.start_line,
                      end_line=element.end_line, lines=lines, marked=marked)


def _name_matches(element: CodeElement, name: str) -> bool:
    if "::" in name:
        return element.qualified_name == name
    return element.name == name


def _workspace_file(root: Path, file: str) -> Path:
    """root / file, for a file that exists inside root. File names come
    from model output, so a path that climbs above root (even to come
    back), an absolute path elsewhere and a symlink out are refused."""
    path = root / file
    climbs = os.path.normpath(file).split(os.sep)[0] == ".."
    if climbs or not path.resolve().is_relative_to(root.resolve()):
        raise ValueError(f"{file} is outside the workspace")
    if not path.is_file():
        raise FileNotFoundError(file)
    return path


def search_code_element(index: RepoIndex | Path, name: str,
                        file: str | None = None,
                        mark_lines: Iterable[int] | None = None,
                        limit: int = DEFAULT_SEARCH_LIMIT) -> SearchResult:
    """Find named elements, in one file or repo-wide.

    Every match is returned (ambiguity is the caller's problem), subject
    to the result cap; the result says when the cap truncated the list.
    A repo-wide search of an index parses only the files that hold the
    name's last `::` part as a whole word; one of a bare directory
    parses every file.
    """
    bare = not isinstance(index, RepoIndex)
    if bare:
        # the bench's probe self-test (bench/test_bench.py) passes a
        # directory and counts the lines a whole-tree parse scans; every
        # caller in the package passes its index
        index = RepoIndex(index)
    if file is not None:
        _workspace_file(index.root, file)
        candidates = [file]
    elif bare:
        candidates = index.files()
    else:
        # only a file holding the name as a whole word can define it
        candidates = index.files_with_word(name.rsplit("::", 1)[-1])

    matches = []
    truncated = False
    for rel in candidates:
        for element in index.elements(rel):
            if _name_matches(element, name):
                if len(matches) >= limit:
                    truncated = True
                    break
                matches.append((element, _window_for_element(element,
                                                             mark_lines)))
        if truncated:
            break
    if not matches:
        where = file if file else "repository"
        raise ElementNotFound(f"no element named {name!r} in {where}")
    return SearchResult(matches=tuple(matches), truncated=truncated)


def read_code(root: Path | str, file: str, center: int, num: int,
              mark_lines: Iterable[int] | None = None) -> CodeWindow:
    """A window of `num` lines centered on `center`, clamped to the file.

    A center beyond EOF clamps to the trailing window; it is not an error.
    """
    all_lines = _display_lines(read_text(_workspace_file(Path(root), file)))
    total = len(all_lines)
    if total == 0:
        return CodeWindow(file=file, start_line=1, end_line=0, lines=(),
                          marked=frozenset())
    num = max(1, num)
    center = min(max(1, center), total)
    start = center - (num - 1) // 2
    end = start + num - 1
    if start < 1:
        start, end = 1, min(num, total)
    if end > total:
        end = total
        start = max(1, end - num + 1)
    marked = frozenset(n for n in (mark_lines or ()) if start <= n <= end)
    return CodeWindow(file=file, start_line=start, end_line=end,
                      lines=tuple(all_lines[start - 1:end]), marked=marked)
