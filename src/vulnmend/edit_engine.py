"""SEARCH/REPLACE edits: parsing, application, history, diffs.

The block grammar is the conflict-marker style that code LLMs emit
reliably:

    ### relative/path.c
    <<<<<<< SEARCH
    exact lines to find
    =======
    replacement lines
    >>>>>>> REPLACE

Marker lines tolerate any run of 7 or more marker characters. Applying
an edit set remembers the original content of the files it rewrites;
rolling it back writes that content back, and diffs compare the
touched files with it.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (EmptyHistory, MalformedBlock, NoChanges,
                     SearchTextAmbiguous, SearchTextNotFound)
from .naming import dedupe_name
from .repo_model import read_text, split_lines, write_text

_HEADER_RE = re.compile(r"^###\s+(\S.*?)\s*$")
_OPEN_RE = re.compile(r"^<{7,}\s*SEARCH\s*$")
_DIVIDER_RE = re.compile(r"^={7,}\s*$")
_CLOSE_RE = re.compile(r"^>{7,}\s*REPLACE\s*$")
_FENCE_RE = re.compile(r"^```")


@dataclass(frozen=True)
class SearchReplaceEdit:
    """One block: replace `search` with `replace` in `file`."""

    file: str
    search: str
    replace: str


@dataclass(frozen=True)
class HistoryView:
    """What the history looks like right now, for agent observations."""

    count: int
    names: tuple
    latest: str | None

    def render(self) -> str:
        if self.count == 0:
            return "Edit history: no applied edit sets."
        listing = ", ".join(self.names)
        return (f"Edit history: {self.count} applied edit set(s): "
                f"[{listing}]; most recent: {self.latest}.")


@dataclass(frozen=True)
class ApplyResult:
    fixed_name: str
    files: tuple
    history: HistoryView


def _checked_path(raw: str, offset: int) -> str:
    path = raw.strip().replace("\\", "/")
    if path.startswith("/") or re.match(r"^[A-Za-z]:", path):
        raise MalformedBlock(f"absolute path {path!r} not allowed", offset)
    parts = [p for p in path.split("/") if p not in ("", ".")]
    if ".." in parts:
        raise MalformedBlock(f"path {path!r} escapes the workspace", offset)
    if not parts:
        raise MalformedBlock("empty file path", offset)
    return "/".join(parts)


def parse_edit_blocks(text: str) -> list[SearchReplaceEdit]:
    """Extract every edit block from free-form text.

    Prose and code fences around the blocks are ignored. A structural
    violation inside a block raises MalformedBlock carrying the offset of
    the block's header line.
    """
    lines = text.split("\n")
    offsets = [0]
    for ln in lines:
        offsets.append(offsets[-1] + len(ln) + 1)

    edits = []
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        if _OPEN_RE.match(line):
            raise MalformedBlock("SEARCH block without a '### <path>' header",
                                 offsets[i])
        header = _HEADER_RE.match(line)
        if not header:
            i += 1
            continue
        block_offset = offsets[i]
        path = _checked_path(header.group(1), block_offset)
        i += 1
        while i < n and (not lines[i].strip() or _FENCE_RE.match(lines[i])):
            i += 1
        if i >= n or not _OPEN_RE.match(lines[i]):
            found = lines[i] if i < n else "<end of text>"
            raise MalformedBlock(
                f"expected SEARCH opener after header, found {found!r}",
                block_offset)
        i += 1
        search_lines: list[str] = []
        while i < n and not _DIVIDER_RE.match(lines[i]):
            if _CLOSE_RE.match(lines[i]) or _OPEN_RE.match(lines[i]) \
                    or _HEADER_RE.match(lines[i]):
                raise MalformedBlock("missing ======= divider", block_offset)
            search_lines.append(lines[i])
            i += 1
        if i >= n:
            raise MalformedBlock("missing ======= divider", block_offset)
        i += 1
        replace_lines: list[str] = []
        while i < n and not _CLOSE_RE.match(lines[i]):
            if _OPEN_RE.match(lines[i]) or _DIVIDER_RE.match(lines[i]):
                raise MalformedBlock("missing REPLACE closer", block_offset)
            replace_lines.append(lines[i])
            i += 1
        if i >= n:
            raise MalformedBlock("missing REPLACE closer", block_offset)
        i += 1
        if not search_lines:
            raise MalformedBlock("empty SEARCH body", block_offset)
        edits.append(SearchReplaceEdit(file=path,
                                       search="\n".join(search_lines),
                                       replace="\n".join(replace_lines)))
    return edits


def locate_search(content: str, search: str) -> tuple[int, int, str]:
    """Find the line range covered by `search` in `content`.

    Returns (start_index, end_index, mode) over content's line list, end
    exclusive; mode is "exact" or "normalized". Exact line-sequence
    matching is tried first, then a whitespace-normalized pass.
    """
    content_lines = content.split("\n")
    search_lines = search.split("\n")
    k = len(search_lines)

    def find_all(cl, sl):
        hits = []
        for idx in range(len(cl) - k + 1):
            if cl[idx:idx + k] == sl:
                hits.append(idx)
        return hits

    hits = find_all(content_lines, search_lines)
    mode = "exact"
    if not hits:
        norm_content = [re.sub(r"[ \t]+", " ", ln).rstrip()
                        for ln in content_lines]
        norm_search = [re.sub(r"[ \t]+", " ", ln).rstrip()
                       for ln in search_lines]
        hits = find_all(norm_content, norm_search)
        mode = "normalized"
    if not hits:
        head = search_lines[0][:80]
        raise SearchTextNotFound(f"search text not found (starts {head!r})")
    if len(hits) > 1:
        raise SearchTextAmbiguous(
            f"search text matches {len(hits)} locations")
    return hits[0], hits[0] + k, mode


def apply_edits_to_text(content: str, edits: Sequence[SearchReplaceEdit]) -> str:
    """Apply several edits to one file's content, in order."""
    for edit in edits:
        start, end, _ = locate_search(content, edit.search)
        lines = content.split("\n")
        lines[start:end] = edit.replace.split("\n")
        content = "\n".join(lines)
    return content


class EditHistory:
    """Stack of applied edit sets, each kept with the original content of
    the files it rewrote.

    apply_edits only rewrites files that already exist, so writing that
    content back undoes a set exactly (read_text/write_text round-trip
    any bytes). Rollbacks touch nothing else: files
    no edit set wrote, build artifacts among them, stay as they are.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._applied: list[tuple[str, dict[str, str]]] = []
        self._name_counts: dict[str, int] = {}

    def history_view(self) -> HistoryView:
        names = tuple(name for name, _ in self._applied)
        return HistoryView(count=len(names), names=names,
                           latest=names[-1] if names else None)

    def originals(self) -> dict[str, str]:
        """Content of every file an applied set rewrote, from before the
        first set that touched it."""
        out: dict[str, str] = {}
        for _, saved in reversed(self._applied):
            out.update(saved)
        return out

    def fix_name(self, unique_name: str) -> str:
        return dedupe_name(self._name_counts, unique_name)

    def apply_edits(self, unique_name: str,
                    edits: Sequence[SearchReplaceEdit] | str) -> ApplyResult:
        if isinstance(edits, str):
            edits = parse_edit_blocks(edits)
        if not edits:
            raise NoChanges("no changes: empty edit set")

        # locate and rewrite in memory first: apply is all-or-nothing
        saved: dict[str, str] = {}
        new_contents: dict[str, str] = {}
        by_file: dict[str, list[SearchReplaceEdit]] = {}
        for edit in edits:
            by_file.setdefault(edit.file, []).append(edit)
        for rel, file_edits in by_file.items():
            path = self.root / rel
            if not path.is_file():
                raise FileNotFoundError(rel)
            content = read_text(path)
            updated = apply_edits_to_text(content, file_edits)
            if updated != content:
                saved[rel] = content
                new_contents[rel] = updated
        if not new_contents:
            raise NoChanges("no changes: edits leave every file unmodified")

        fixed_name = self.fix_name(unique_name)
        for rel, text in new_contents.items():
            write_text(self.root / rel, text)
        self._applied.append((fixed_name, saved))
        return ApplyResult(fixed_name=fixed_name, files=tuple(sorted(saved)),
                           history=self.history_view())

    def _undo_latest(self) -> None:
        _, saved = self._applied.pop()
        for rel, text in saved.items():
            write_text(self.root / rel, text)

    def rollback_latest(self) -> HistoryView:
        if not self._applied:
            raise EmptyHistory("empty rollback history")
        self._undo_latest()
        return self.history_view()

    def rollback_all(self) -> HistoryView:
        if not self._applied:
            raise EmptyHistory("empty rollback history")
        while self._applied:
            self._undo_latest()
        return self.history_view()


# -- unified diffs ---------------------------------------------------------


def _range_header(start: int, length: int) -> str:
    # unified format: zero-length ranges cite the line before the gap
    if length == 1:
        return str(start + 1)
    if length == 0:
        return f"{start},0"
    return f"{start + 1},{length}"


def _emit(out: list, prefix: str, token: str) -> None:
    if token.endswith("\n"):
        out.append(prefix + token[:-1])
    else:
        out.append(prefix + token)
        out.append("\\ No newline at end of file")


def _file_hunks(old: str, new: str) -> list[str]:
    a = split_lines(old)
    b = split_lines(new)
    sm = difflib.SequenceMatcher(a=a, b=b, autojunk=False)
    out: list[str] = []
    for group in sm.get_grouped_opcodes(3):
        i1, i2 = group[0][1], group[-1][2]
        j1, j2 = group[0][3], group[-1][4]
        out.append(f"@@ -{_range_header(i1, i2 - i1)} "
                   f"+{_range_header(j1, j2 - j1)} @@")
        for tag, a1, a2, b1, b2 in group:
            if tag == "equal":
                for k in range(a1, a2):
                    _emit(out, " ", a[k])
                continue
            if tag in ("replace", "delete"):
                for k in range(a1, a2):
                    _emit(out, "-", a[k])
            if tag in ("replace", "insert"):
                for k in range(b1, b2):
                    _emit(out, "+", b[k])
    return out


def to_unified_diff(root: Path | str, originals: Mapping[str, str]) -> str:
    """Git-consumable unified diff of the files in `originals`.

    Each file's current content under root is compared with its original
    content, in lexicographic path order. The empty string means every
    file matches its original.
    """
    root = Path(root)
    chunks: list[str] = []
    for rel in sorted(originals):
        old = originals[rel]
        new = read_text(root / rel)
        if old == new:
            continue
        chunks.extend([f"diff --git a/{rel} b/{rel}", f"--- a/{rel}",
                       f"+++ b/{rel}", *_file_hunks(old, new)])
    if not chunks:
        return ""
    return "\n".join(chunks) + "\n"
