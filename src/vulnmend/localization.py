"""Fault localization: suspicious files, then suspicious elements.

Two complementary file routes. The prompt route asks the model directly
over the issue and the repository tree. The retrieval route, after the
model names folders to ignore, embeds the issue text, then scores the
candidate files one at a time: each file's fixed-size line chunks are
embedded and only its best chunk's cosine similarity to the issue is
kept, so memory does not grow with the tree. Files rank by that score.
The merge of the two routes keeps prompt picks first. Element
localization then narrows the merged files to concrete functions over
code skeletons.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
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


class HashingEmbedder:
    """Deterministic bag-of-tokens embedding via feature hashing.

    No model download, no randomness: token index and sign come from a
    cryptographic hash of the token, so equal texts embed equally on any
    machine. Good enough to rank code chunks by lexical overlap with an
    issue report.
    """

    def embed(self, texts: list[str]) -> list[list[int]]:
        """One row of DEFAULT_EMBED_DIM signed token counts per text."""
        out = []
        for text in texts:
            row = [0] * DEFAULT_EMBED_DIM
            for token, count in Counter(
                    _TOKEN_RE.findall(text.lower())).items():
                h = hashlib.sha256(
                    token.encode("utf-8", "surrogateescape")).digest()
                slot = int.from_bytes(h[:4], "big") % DEFAULT_EMBED_DIM
                row[slot] += count if h[4] & 1 else -count
            out.append(row)
        return out


def cosine(a: list[int], b: list[int]) -> float:
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


def localize_files_retrieval(llm: LLMBackend, index: RepoIndex,
                             issue_text: str, n: int = DEFAULT_TOP_FILES,
                             embedder: HashingEmbedder | None = None,
                             chunk_lines: int = DEFAULT_CHUNK_LINES,
                             ) -> list[str]:
    """Rank files by their best chunk's similarity to the issue text.

    The model only chooses folders to skip; the ranking itself is pure
    embedding arithmetic. Ties break lexicographically so the ranking is
    total and reproducible.
    """
    embedder = embedder or HashingEmbedder()
    skipped = ignore_folders(llm, index, issue_text)
    issue_vec = embedder.embed([issue_text])[0]
    # one file at a time: only its text, chunks and rows are held at once
    best: dict[str, float] = {}
    for rel in index.files():
        if _under(rel, skipped):
            continue
        chunks = chunk_file(index.text(rel), chunk_lines)
        if chunks:
            best[rel] = max(cosine(vec, issue_vec)
                            for vec in embedder.embed(chunks))
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
