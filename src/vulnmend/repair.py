"""Patch generation, validation and selection.

Generation samples several SEARCH/REPLACE candidates over a focused
context. Validation applies each candidate alone, replays the PoC, and
rolls back. Selection votes: either over the PoC-passing pool
(poc_voting) or over every applying candidate (simple_voting), with
candidates grouped by a normalization-insensitive fingerprint so
cosmetically different but equivalent patches pool their votes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from .edit_engine import EditHistory, parse_edit_blocks, to_unified_diff
from .errors import (MalformedBlock, NoChanges, SearchTextAmbiguous,
                     SearchTextNotFound)
from .execution import PocRunner
from .llm import ChatRequest, LLMBackend
from .repo_model import read_text, split_lines

DEFAULT_CONTEXT_MARGIN = 10
DEFAULT_CANDIDATES = 5


# -- context ------------------------------------------------------------------


@dataclass(frozen=True)
class ContextWindow:
    file: str
    start_line: int
    end_line: int
    text: str


@dataclass(frozen=True)
class PatchContext:
    windows: tuple

    def render(self) -> str:
        parts = []
        for w in self.windows:
            parts.append(f"## {w.file} (lines {w.start_line}-{w.end_line})\n"
                         f"```\n{w.text.rstrip()}\n```")
        return "\n\n".join(parts)


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(ranges):
        if merged and start <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def build_patch_context(root: Path | str, selections,
                        whole_files: list[str] | None = None,
                        margin: int = DEFAULT_CONTEXT_MARGIN) -> PatchContext:
    """Windows of code to show the patch generator.

    Each selected element contributes its span widened by `margin` lines
    both ways; overlapping or adjacent windows in one file merge.
    `whole_files` adds complete files, for when element localization came
    up empty.
    """
    root = Path(root)
    per_file: dict[str, list[tuple[int, int]]] = {}
    for sel in selections:
        span = (max(1, sel.element.start_line - margin),
                sel.element.end_line + margin)
        per_file.setdefault(sel.file, []).append(span)

    windows = []
    for rel in sorted(per_file):
        lines = split_lines(read_text(root / rel))
        for start, end in _merge_ranges(per_file[rel]):
            end = min(end, len(lines))
            windows.append(ContextWindow(
                file=rel, start_line=start, end_line=end,
                text="".join(lines[start - 1:end])))
    for rel in whole_files or []:
        if rel in per_file:
            continue
        text = read_text(root / rel)
        windows.append(ContextWindow(
            file=rel, start_line=1, end_line=len(split_lines(text)),
            text=text))
    return PatchContext(windows=tuple(windows))


# -- generation -----------------------------------------------------------------


@dataclass(frozen=True)
class CandidatePatch:
    index: int
    temperature: float
    raw_text: str
    edits: tuple
    parse_error: str | None = None


_GENERATE_SYSTEM = (
    "You repair memory-safety vulnerabilities in C/C++ code. Given the "
    "issue analysis and the relevant code, reply with one or more "
    "SEARCH/REPLACE edit blocks and nothing else. Each block has the "
    "form:\n\n"
    "### <repo-relative file path>\n"
    "<<<<<<< SEARCH\n"
    "<exact existing lines>\n"
    "=======\n"
    "<replacement lines>\n"
    ">>>>>>> REPLACE\n\n"
    "The SEARCH text must match the file exactly. Keep the change "
    "minimal: fix the defect without altering unrelated behavior.")


def temperature_schedule(t: int) -> tuple[float, ...]:
    """One greedy sample, then diversity."""
    if t <= 0:
        return ()
    return (0.0,) + (1.0,) * (t - 1)


def generate_patches(llm: LLMBackend, issue_text: str,
                     context: PatchContext,
                     t: int = DEFAULT_CANDIDATES,
                     out: list | None = None) -> list[CandidatePatch]:
    """Sample t candidates: one request per run of equal temperatures in
    the schedule, asking for as many choices as the run is long.
    Candidates are numbered in schedule order, choices in the order they
    came back. Each is appended to out as its request is answered, so a
    caller that catches a later request's error still holds it."""
    user = (f"# Issue analysis\n\n{issue_text.strip()}\n\n"
            f"# Relevant code\n\n{context.render()}\n\n"
            "Write the fix as SEARCH/REPLACE blocks.")
    candidates = [] if out is None else out
    for temp, run in groupby(temperature_schedule(t)):
        n = len(list(run))
        response = llm.chat(ChatRequest(
            tag="generate",
            messages=({"role": "system", "content": _GENERATE_SYSTEM},
                      {"role": "user", "content": user}),
            tools=(), temperature=temp, n=n))
        for text in response.texts[:n]:
            raw = text or ""
            try:
                edits = tuple(parse_edit_blocks(raw))
                error = None if edits else "no edit blocks found"
            except MalformedBlock as exc:
                edits, error = (), f"{exc} (offset {exc.offset})"
            candidates.append(CandidatePatch(
                index=len(candidates), temperature=temp, raw_text=raw,
                edits=edits, parse_error=error))
    return candidates


# -- normalization / fingerprints --------------------------------------------------


_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_LINE_COMMENT_RE = re.compile(r"//[^\n]*")


def normalize_source(text: str) -> str:
    """Comment-stripped, whitespace-collapsed view of a source file.

    Two patches that differ only in comments, blank lines or spacing
    normalize identically and therefore share a fingerprint.
    """
    text = _BLOCK_COMMENT_RE.sub(" ", text)
    text = _LINE_COMMENT_RE.sub(" ", text)
    lines = []
    for line in text.splitlines():
        collapsed = " ".join(line.split())
        if collapsed:
            lines.append(collapsed)
    return "\n".join(lines) + "\n"


def patch_fingerprint(root: Path | str, files) -> str:
    """Digest of the normalized content of the files a patch modified."""
    root = Path(root)
    h = hashlib.sha256()
    for rel in sorted(set(files)):
        h.update(rel.encode())
        h.update(b"\0")
        h.update(normalize_source(read_text(root / rel)).encode(
            "utf-8", "surrogateescape"))
        h.update(b"\0")
    return h.hexdigest()


# -- validation -----------------------------------------------------------------


@dataclass(frozen=True)
class CandidateOutcome:
    index: int
    applied: bool
    compiled: bool = False
    sanitizer_triggered: bool = False
    poc_pass: bool = False
    fingerprint: str | None = None
    diff: str = ""
    failure: str | None = None


def validate_candidate(candidate: CandidatePatch, history: EditHistory,
                       runner: PocRunner, work_root: Path | str,
                       ) -> CandidateOutcome:
    """Apply one candidate alone, replay the PoC, capture diff and
    fingerprint, then roll the workspace back."""
    if candidate.parse_error or not candidate.edits:
        return CandidateOutcome(
            index=candidate.index, applied=False,
            failure=candidate.parse_error or "no edits")
    try:
        applied = history.apply_edits(f"candidate-{candidate.index}",
                                      candidate.edits)
    except (SearchTextNotFound, SearchTextAmbiguous, NoChanges,
            FileNotFoundError, ValueError) as exc:
        return CandidateOutcome(index=candidate.index, applied=False,
                                failure=f"{type(exc).__name__}: {exc}")
    try:
        result = runner.run_poc(f"validate-{candidate.index}")
        fingerprint = patch_fingerprint(work_root, applied.files)
        diff = to_unified_diff(work_root, history.originals())
        return CandidateOutcome(
            index=candidate.index, applied=True, compiled=result.compiled,
            sanitizer_triggered=result.sanitizer_triggered,
            poc_pass=result.passed,
            fingerprint=fingerprint, diff=diff)
    finally:
        history.rollback_latest()


# -- selection ------------------------------------------------------------------


@dataclass(frozen=True)
class Selection:
    winner: int | None
    strategy: str
    pool: tuple        # candidate indices that were eligible to vote
    group_sizes: dict  # fingerprint -> votes
    reason: str


def select_patch(outcomes, strategy: str = "poc_voting") -> Selection:
    """Pick the winning candidate index.

    poc_voting gates on PoC-passing candidates, then majority-votes by
    fingerprint; simple_voting votes over every applied candidate. Ties
    go to the group holding the lowest candidate index; within the
    winning group the lowest index wins. No eligible candidates means no
    patch.
    """
    if strategy == "poc_voting":
        pool = [o for o in outcomes if o.applied and o.poc_pass
                and o.fingerprint]
    elif strategy == "simple_voting":
        pool = [o for o in outcomes if o.applied and o.fingerprint]
    else:
        raise ValueError(f"unknown selection strategy {strategy!r}")

    if not pool:
        return Selection(winner=None, strategy=strategy, pool=(),
                         group_sizes={},
                         reason="no eligible candidates")

    groups: dict[str, list[int]] = {}
    for o in pool:
        groups.setdefault(o.fingerprint, []).append(o.index)
    best_fp = min(groups,
                  key=lambda fp: (-len(groups[fp]), min(groups[fp])))
    winner = min(groups[best_fp])
    return Selection(
        winner=winner, strategy=strategy,
        pool=tuple(sorted(o.index for o in pool)),
        group_sizes={fp: len(ixs) for fp, ixs in groups.items()},
        reason=(f"{len(groups[best_fp])} of {len(pool)} eligible "
                f"candidates share the winning fingerprint"))
