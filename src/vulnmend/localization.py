"""Fault localization: suspicious files, then suspicious elements.

Two complementary file routes. The prompt route asks the model directly
over the issue and the repository tree. The retrieval route comes in two
parts. The issue-independent part, file_rows, embeds each listed file's
fixed-size line chunks into rows; it makes no model call, so it can run
ahead, on a worker of its own, while the agents wait on PoC builds. The
issue-dependent part, after the model names folders to ignore, embeds
the issue text and keeps, per file not ignored, only its best chunk's
cosine similarity to the issue. Files rank by that score. The merge of
the two routes keeps prompt picks first. Element localization then
narrows the merged files to concrete functions over code skeletons.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass

from .errors import JSONParseFailure
from .llm import ChatRequest, LLMBackend
from .repo_model import (CodeElement, RepoIndex, render_repo_tree,
                         skeletonize, split_lines)
from .repo_model import source_files  # noqa: F401  (probed by bench/spans.py)

DEFAULT_TOP_FILES = 3
DEFAULT_CHUNK_LINES = 512
DEFAULT_EMBED_DIM = 256
DEFAULT_ELEMENT_LIMIT = 10

_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d+")


# -- embeddings ---------------------------------------------------------------


def embed_row(text: str) -> array:
    """text's row: DEFAULT_EMBED_DIM signed token counts, as 32-bit ints
    (about 1 KB a row). A slot would overflow only past 2**31 tokens."""
    row = array("i", bytes(4 * DEFAULT_EMBED_DIM))
    for token, count in Counter(_TOKEN_RE.findall(text.lower())).items():
        h = hashlib.sha256(token.encode("utf-8", "surrogateescape")).digest()
        slot = int.from_bytes(h[:4], "big") % DEFAULT_EMBED_DIM
        row[slot] += count if h[4] & 1 else -count
    return row


class HashingEmbedder:
    """Deterministic bag-of-tokens embedding via feature hashing.

    No model download, no randomness: token index and sign come from a
    cryptographic hash of the token, so equal texts embed equally on any
    machine. Good enough to rank code chunks by lexical overlap with an
    issue report.
    """

    def embed(self, texts: list[str]) -> list[list[int]]:
        """One row of DEFAULT_EMBED_DIM signed token counts per text."""
        return [embed_row(text).tolist() for text in texts]


def cosine(a: Sequence[int], b: Sequence[int]) -> float:
    """Cosine similarity of two count rows; 0.0 if either is all zeros.

    The dot product and both squared norms are exact integers, so the
    score does not depend on the order the slots are summed in, and it
    is the same on every machine.
    """
    na = sum(x * x for x in a)
    nb = sum(y * y for y in b)
    if not na or not nb:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / math.sqrt(na * nb)


def chunk_file(text: str, chunk_lines: int = DEFAULT_CHUNK_LINES) -> list[str]:
    """Split into consecutive chunks of at most chunk_lines lines.

    Only "\n" ends a line (see split_lines). Lines keep their endings,
    so the concatenation of the chunks is the original text, and
    len(chunks) == ceil(line_count / chunk_lines).
    """
    if chunk_lines <= 0:
        raise ValueError("chunk_lines must be positive")
    lines = split_lines(text)
    return ["".join(lines[i:i + chunk_lines])
            for i in range(0, len(lines), chunk_lines)]


# -- model-output helpers -------------------------------------------------------


def extract_json_array(text: str) -> list:
    """First JSON array found in free-form model text."""
    decoder = json.JSONDecoder()
    for pos in range(len(text)):
        if text[pos] != "[":
            continue
        try:
            value, _ = decoder.raw_decode(text, pos)
        except ValueError:
            continue
        if isinstance(value, list):
            return value
    raise JSONParseFailure("no JSON array in model output")


def _chat_text(llm: LLMBackend, tag: str, system: str, user: str) -> str:
    response = llm.chat(ChatRequest(
        tag=tag,
        messages=({"role": "system", "content": system},
                  {"role": "user", "content": user}),
        tools=(), temperature=0.0))
    return response.text or ""


# -- file localization ----------------------------------------------------------


_FILES_SYSTEM = (
    "You locate the files most likely to need modification to fix a "
    "reported memory-safety vulnerability. Reply with a JSON array of "
    "repo-relative file paths, most suspicious first, and nothing else.")

_IGNORE_SYSTEM = (
    "You prune a repository for vulnerability analysis. Given the issue "
    "and the repository tree, reply with a JSON array of repo-relative "
    "folder paths that are clearly irrelevant to the defect (tests, "
    "docs, third-party code, build scripts) and nothing else. Reply with "
    "[] if nothing should be ignored.")


def localize_files_prompt(llm: LLMBackend, index: RepoIndex, issue_text: str,
                          n: int = DEFAULT_TOP_FILES) -> list[str]:
    """Ask the model directly which files are suspicious."""
    tree = render_repo_tree(index)
    raw = _chat_text(
        llm, "localize_files", _FILES_SYSTEM,
        f"# Issue\n\n{issue_text.strip()}\n\n# Repository tree\n\n"
        f"```\n{tree.rstrip()}\n```\n\nName up to {n} files.")
    try:
        names = extract_json_array(raw)
    except JSONParseFailure:
        return []
    # only names the tree listed: a path the model made up (or one that
    # climbs out of the workspace) is never read into a later prompt
    listed = set(index.files())
    out = []
    for name in names:
        if not isinstance(name, str):
            continue
        rel = name.strip().removeprefix("./")
        if rel in listed and rel not in out:
            out.append(rel)
    return out[:n]


def ignore_folders(llm: LLMBackend, index: RepoIndex,
                   issue_text: str) -> list[str]:
    raw = _chat_text(
        llm, "ignore_folders", _IGNORE_SYSTEM,
        f"# Issue\n\n{issue_text.strip()}\n\n# Repository tree\n\n"
        f"```\n{render_repo_tree(index).rstrip()}\n```")
    try:
        names = extract_json_array(raw)
    except JSONParseFailure:
        return []
    out = []
    for name in names:
        if isinstance(name, str) and name.strip():
            out.append(name.strip().strip("/"))
    return out


def _under(rel: str, folders: list[str]) -> bool:
    return any(rel == f or rel.startswith(f + "/") for f in folders)


def file_rows(index: RepoIndex, files: Iterable[str],
              chunk_lines: int = DEFAULT_CHUNK_LINES,
              stopped: threading.Event | None = None,
              ) -> Iterator[tuple[str, tuple[array, ...] | Exception]]:
    """Each of files, in order, with the rows of its chunks, or with the
    OSError or ValueError that reading it through index raised. Once
    stopped is set, it raises CancelledError before the next file.

    It depends on no issue and calls no model, so it may run on another
    thread than the stages; it reads index's files as listed, and embeds
    through embed_row alone.
    """
    for rel in files:
        if stopped is not None and stopped.is_set():
            raise CancelledError
        try:
            text = index.text(rel)
        except (OSError, ValueError) as exc:
            yield rel, exc
            continue
        yield rel, tuple(embed_row(chunk)
                         for chunk in chunk_file(text, chunk_lines))


def localize_files_retrieval(llm: LLMBackend, index: RepoIndex,
                             issue_text: str, n: int = DEFAULT_TOP_FILES,
                             chunk_lines: int = DEFAULT_CHUNK_LINES,
                             rows: Future | None = None) -> list[str]:
    """Rank files by their best chunk's similarity to the issue text.

    The model only chooses folders to skip; the ranking itself is pure
    embedding arithmetic. Ties break lexicographically so the ranking is
    total and reproducible. rows, if given, is the future of a dict of
    file_rows over all of index's files, made ahead: it is waited for,
    and an ignored file's rows, or its error, are passed over. Without
    it, file_rows runs here over the files not ignored, with chunk_lines,
    and each file's rows are dropped once scored, so memory does not grow
    with the tree. A file not ignored that could not be read fails the
    ranking with its error.
    """
    skipped = ignore_folders(llm, index, issue_text)
    issue_vec = HashingEmbedder().embed([issue_text])[0]
    if rows is None:
        made = file_rows(index, [rel for rel in index.files()
                                 if not _under(rel, skipped)], chunk_lines)
    else:
        made = rows.result().items()
    best: dict[str, float] = {}
    for rel, chunk_rows in made:
        if _under(rel, skipped):
            continue
        if isinstance(chunk_rows, Exception):
            raise chunk_rows
        if chunk_rows:
            best[rel] = max(cosine(row, issue_vec) for row in chunk_rows)
    ranked = sorted(best, key=lambda rel: (-best[rel], rel))
    return ranked[:n]


def merge_rankings(prompt_files: list[str], retrieval_files: list[str],
                   n: int = DEFAULT_TOP_FILES) -> list[str]:
    """Prompt picks first, then retrieval picks not already present."""
    out = list(dict.fromkeys(prompt_files))
    for rel in retrieval_files:
        if rel not in out:
            out.append(rel)
    return out[:n]


# -- element localization ---------------------------------------------------------


@dataclass(frozen=True)
class ElementSelection:
    file: str
    element: CodeElement


@dataclass(frozen=True)
class ElementLocalization:
    selections: tuple
    parse_ok: bool = True


_ELEMENTS_SYSTEM = (
    "You locate the code elements (functions, methods, types, variables, "
    "macros) most likely to need modification to fix a reported "
    "memory-safety vulnerability. You are given skeletonized files where "
    "function bodies are elided. Reply with a JSON array of objects "
    '[{"file": "<repo-relative path>", "id": "<element name>"}], most '
    "suspicious first, and nothing else. Use Scope::name for members.")


def localize_elements(llm: LLMBackend, index: RepoIndex, files: list[str],
                      issue_text: str, limit: int = DEFAULT_ELEMENT_LIMIT
                      ) -> ElementLocalization:
    """Narrow ranked files to concrete elements over their skeletons.

    Unparseable model output gets one re-ask; if that also fails, the
    result is empty with parse_ok=False and the repair stage falls back
    to whole-file context.
    """
    sections = []
    for rel in files:
        text, elements = index.read(rel)
        sections.append(f"## {rel}\n\n```\n"
                        f"{skeletonize(text, elements).rstrip()}\n```")
    user = (f"# Issue\n\n{issue_text.strip()}\n\n# Candidate files\n\n"
            + "\n\n".join(sections)
            + f"\n\nName up to {limit} elements.")

    try:
        items = extract_json_array(_chat_text(llm, "localize_elements",
                                              _ELEMENTS_SYSTEM, user))
    except JSONParseFailure:
        retry = user + ("\n\nYour previous reply was not a JSON array. "
                        "Reply with only the JSON array.")
        try:
            items = extract_json_array(_chat_text(llm, "localize_elements",
                                                  _ELEMENTS_SYSTEM, retry))
        except JSONParseFailure:
            return ElementLocalization(selections=(), parse_ok=False)

    selections = []
    seen = set()
    for item in items:
        if not isinstance(item, dict):
            continue
        rel = str(item.get("file", "")).strip().removeprefix("./")
        ident = str(item.get("id", "")).strip()
        if not rel or not ident or rel not in files:
            continue
        # the first element a search for ident finds in rel
        element = next((e for e in index.elements(rel) if e.is_named(ident)),
                       None)
        if element is None or (rel, element.name, element.start_line) in seen:
            continue
        seen.add((rel, element.name, element.start_line))
        selections.append(ElementSelection(file=rel, element=element))
        if len(selections) >= limit:
            break
    return ElementLocalization(selections=tuple(selections))
