"""Patch generation, validation and selection.

Generation samples several SEARCH/REPLACE candidates over a focused
context. Validation applies each candidate alone, in memory, to the
pristine workspace's text, and judges its diff once per distinct program,
the way evaluation judges a prediction: in a fresh copy of the workspace,
removed afterwards. A batch's distinct programs are judged concurrently,
in a bounded pool, with the same outcomes as one after another. Selection
votes: either over the PoC-passing pool (poc_voting) or over every
applying candidate (simple_voting), with candidates grouped by a
normalization-insensitive fingerprint so cosmetically different but
equivalent patches pool their votes; the same fingerprint tells
validation which candidates are one program.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import Mapping, Sequence

from .cparse import LEXEME
from .edit_engine import edited_texts, parse_edit_blocks, to_unified_diff
from .errors import (MalformedBlock, NoChanges, SearchTextAmbiguous,
                     SearchTextNotFound)
from .execution import PristineCopy, in_pool
from .llm import ChatRequest, LLMBackend
from .repo_model import DEFAULT_EXTENSIONS, RepoIndex, split_lines

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


def build_patch_context(index: RepoIndex, selections,
                        whole_files: list[str] | None = None,
                        margin: int = DEFAULT_CONTEXT_MARGIN) -> PatchContext:
    """Windows of code to show the patch generator.

    Each selected element contributes its span widened by `margin` lines
    both ways; overlapping or adjacent windows in one file merge.
    `whole_files` adds complete files, for when element localization came
    up empty.
    """
    per_file: dict[str, list[tuple[int, int]]] = {}
    for sel in selections:
        span = (max(1, sel.element.start_line - margin),
                sel.element.end_line + margin)
        per_file.setdefault(sel.file, []).append(span)

    windows = []
    for rel in sorted(per_file):
        lines = split_lines(index.text(rel))
        for start, end in _merge_ranges(per_file[rel]):
            end = min(end, len(lines))
            windows.append(ContextWindow(
                file=rel, start_line=start, end_line=end,
                text="".join(lines[start - 1:end])))
    for rel in whole_files or []:
        if rel in per_file:
            continue
        text = index.text(rel)
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


# a backslash, the blanks gcc allows after it, and the newline: deleted
# before tokens are formed (translation phase 2)
_SPLICE = re.compile(r"\\[ \t\r\f\v]*\n")
# a run of C whitespace; only "\n" ends a line
_C_SPACE = re.compile(r"[ \t\n\r\f\v]+")
# a C++ raw string literal opener; LEXEME does not know where one ends
_RAW_STRING = re.compile(r'(?<!\w)(?:u8|[uUL])?R"')


def _collapse_space(code: str) -> str:
    """One newline for a whitespace run that holds one, else one space."""
    return _C_SPACE.sub(
        lambda m: "\n" if "\n" in m.group() else " ", code)


def normalize_source(text: str) -> str:
    """Comment-stripped, whitespace-collapsed view of a C or C++ source.

    Two sources that differ only in comments, blank lines or spacing
    between tokens normalize identically and therefore share a
    fingerprint; any other difference survives. Backslash-newlines are
    spliced first, every string and character literal is kept byte for
    byte, and a comment counts as one space, as the compiler sees them.
    A source holding a raw string literal is kept as it is.
    """
    spliced = _SPLICE.sub("", text)
    if _RAW_STRING.search(spliced):
        return text
    text = spliced
    parts: list[str] = []
    code: list[str] = []
    pos = 0
    for m in LEXEME.finditer(text):
        code.append(text[pos:m.start()])
        if m.lastindex is None:
            code.append(" ")
        else:
            parts.append(_collapse_space("".join(code)))
            parts.append(m.group())
            code = []
        pos = m.end()
    code.append(text[pos:])
    parts.append(_collapse_space("".join(code)).rstrip(" \n"))
    return "".join(parts).lstrip(" \n") + "\n"


def patch_fingerprint(texts: Mapping[str, str]) -> str:
    """Digest of the files a patch modified, each by path and patched
    text: the normal form of a C or C++ source, the text of any other
    file as it is, since its comments and blanks follow other rules (a
    Makefile recipe needs its tab, and "//" starts no comment in a
    script)."""
    h = hashlib.sha256()
    for rel in sorted(texts):
        text = texts[rel]
        if Path(rel).suffix in DEFAULT_EXTENSIONS:
            text = normalize_source(text)
        h.update(rel.encode())
        h.update(b"\0")
        h.update(text.encode("utf-8", "surrogateescape"))
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
    poc_run_of: int | None = None  # whose PoC run this verdict reuses


@dataclass
class CandidateBatch:
    """Candidates validated together. The first validate_candidate call
    given the batch validates all of them, judging their distinct
    programs concurrently, and keeps in results each one's outcome, or
    the error that validating it raised, for that candidate's own call.
    It is the one memo of PoC runs: a fingerprint is judged once a batch.
    """

    candidates: Sequence[CandidatePatch]
    results: dict = field(default_factory=dict)


# what makes a candidate not apply, as opposed to an error validating it
_DOES_NOT_APPLY = (SearchTextNotFound, SearchTextAmbiguous, NoChanges,
                   FileNotFoundError, ValueError)


def validate_candidate(candidate: CandidatePatch, pristine: PristineCopy,
                       batch: CandidateBatch | None = None
                       ) -> CandidateOutcome:
    """Apply one candidate alone, in memory, to the pristine workspace's
    text, take its diff and fingerprint, and judge the diff in a fresh
    pristine copy.

    batch holds the candidates to validate along with this one. The
    first call given the batch validates them all: each distinct program
    is judged once, under the lowest index that has it, and the others
    with that fingerprint take its verdict, or its error, and run
    nothing. The programs are judged concurrently, in a bounded pool
    (execution.in_pool), each in a copy of its own, so outcomes do not
    depend on the pool's size.
    """
    batch = CandidateBatch((candidate,)) if batch is None else batch
    if candidate.index not in batch.results:
        todo = {c.index: c for c in (*batch.candidates, candidate)
                if c.index not in batch.results}
        batch.results.update(_validate_all(todo, pristine))
    result = batch.results[candidate.index]
    if isinstance(result, Exception):
        raise result
    return result


def _validate_all(candidates: Mapping[int, CandidatePatch],
                  pristine: PristineCopy) -> dict:
    """Index -> CandidateOutcome, or the error validating it raised."""
    results: dict = {}
    programs = {}  # index -> (diff, fingerprint)
    for index, candidate in sorted(candidates.items()):
        if candidate.parse_error or not candidate.edits:
            results[index] = CandidateOutcome(
                index=index, applied=False,
                failure=candidate.parse_error or "no edits")
            continue
        try:
            before, after = edited_texts(pristine.source, candidate.edits)
        except _DOES_NOT_APPLY as exc:
            results[index] = CandidateOutcome(
                index=index, applied=False,
                failure=f"{type(exc).__name__}: {exc}")
            continue
        except Exception as exc:
            # raised again by this candidate's own call, as its error
            results[index] = exc
            continue
        programs[index] = (to_unified_diff(before, after),
                           patch_fingerprint(after))

    # each program once, under the lowest index that has it
    run_of: dict[str, int] = {}
    for index, (_, fingerprint) in programs.items():
        run_of.setdefault(fingerprint, index)
    judged = in_pool(list(run_of.values()), lambda index: pristine.judge(
        programs[index][0], f"validate-{index}"))
    verdicts = dict(zip(run_of, judged))  # fingerprint -> verdict

    for index, (diff, fingerprint) in programs.items():
        verdict = verdicts[fingerprint]
        if isinstance(verdict, Exception):
            results[index] = verdict
            continue
        result = verdict.result
        results[index] = CandidateOutcome(
            index=index, applied=True,
            compiled=result is not None and result.compiled,
            sanitizer_triggered=(result is not None
                                 and result.sanitizer_triggered),
            poc_pass=verdict.passed, fingerprint=fingerprint, diff=diff,
            failure=verdict.detail or None,
            poc_run_of=(None if run_of[fingerprint] == index
                        else run_of[fingerprint]))
    return results


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
