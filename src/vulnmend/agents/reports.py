"""Agent report formats: structured, renderable, parseable.

Agents speak markdown; downstream stages need fields. These types pin an
exact item grammar so that render -> parse is lossless for well-formed
reports. Both agents end in one AgentReport; what happens when their
text does not parse is decided in one place, react.read_report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ReportParseFailure

ISSUE_HEADING = "## Issue Report"
CONTEXT_HEADING = "## Context Analysis Report"
PROPERTY_HEADING = "## Property Analysis Report"

_ITEM_RE = re.compile(r"^### (Context|Property) (\d+)\s*$", re.MULTILINE)
_INSIGHTS_RE = re.compile(r"^### Insights\s*$", re.MULTILINE)
_FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


@dataclass(frozen=True)
class ContextItem:
    """One piece of collected context: the code, where it came from, how
    it ties to the PoC trace, and why it matters."""

    code: str
    file: str
    element: str | None = None
    line_start: int | None = None
    line_end: int | None = None
    trace_link: str | None = None
    rationale: str = ""

    def render(self, index: int) -> str:
        source = f"file={self.file}"
        if self.element:
            source += f" element={self.element}"
        if self.line_start is not None and self.line_end is not None:
            source += f" lines={self.line_start}-{self.line_end}"
        parts = [f"### Context {index}", "Code:", "```", self.code.rstrip("\n"),
                 "```", f"Source: {source}"]
        if self.trace_link:
            parts.append(f"Trace link: {self.trace_link}")
        parts.append(f"Rationale: {self.rationale.strip()}")
        return "\n".join(parts)


@dataclass(frozen=True)
class SafetyProperty:
    """One property the agent asserted against the live PoC."""

    assertion: str
    file: str
    line: int | None
    purpose: str
    result: str          # PASS | FAIL | NOT_EVALUATED
    interpretation: str

    def render(self, index: int) -> str:
        location = self.file if self.line is None else f"{self.file}:{self.line}"
        return "\n".join([
            f"### Property {index}",
            "Assertion:",
            "```",
            self.assertion.rstrip("\n"),
            "```",
            f"Location: {location}",
            f"Purpose: {self.purpose.strip()}",
            f"Result: {self.result}",
            f"Interpretation: {self.interpretation.strip()}",
        ])


@dataclass(frozen=True)
class AgentReport:
    """What an agent ended with: its items (ContextItem or
    SafetyProperty) and insights, or, when its text did not parse even
    after the reformat turn, that raw text."""

    items: tuple
    insights: str = ""
    parse_ok: bool = True
    raw_text: str | None = None

    def render(self) -> str:
        if not self.parse_ok and self.raw_text is not None:
            return self.raw_text
        parts = [item.render(i) for i, item in enumerate(self.items, 1)]
        parts.append("### Insights\n" + self.insights.strip())
        return "\n\n".join(parts)


def _labeled(block: str, label: str) -> str | None:
    m = re.search(rf"^{label}:[ \t]*(.*)$", block, re.MULTILINE)
    return m.group(1).strip() if m else None


def _item_blocks(text: str, want: str) -> tuple[list[str], str]:
    """Split report text into per-item blocks plus the insights tail."""
    marks = list(_ITEM_RE.finditer(text))
    if not marks:
        raise ReportParseFailure(f"no '### {want} N' items found")
    for m in marks:
        if m.group(1) != want:
            raise ReportParseFailure(
                f"unexpected item kind {m.group(1)!r}, wanted {want!r}")
    insights = ""
    tail_m = _INSIGHTS_RE.search(text)
    end = len(text)
    if tail_m and tail_m.start() > marks[-1].start():
        insights = text[tail_m.end():].strip()
        end = tail_m.start()
    blocks = []
    for i, m in enumerate(marks):
        stop = marks[i + 1].start() if i + 1 < len(marks) else end
        blocks.append(text[m.end():stop])
    return blocks, insights


def parse_context_report(text: str) -> AgentReport:
    blocks, insights = _item_blocks(text, "Context")
    items = []
    for block in blocks:
        fence = _FENCE_RE.search(block)
        if not fence:
            raise ReportParseFailure("context item without a code block")
        source = _labeled(block, "Source")
        if not source:
            raise ReportParseFailure("context item without a Source line")
        fm = re.search(r"file=(\S+)", source)
        if not fm:
            raise ReportParseFailure(f"Source line lacks file=: {source!r}")
        em = re.search(r"element=(\S+)", source)
        lm = re.search(r"lines=(\d+)-(\d+)", source)
        rationale = _labeled(block, "Rationale")
        if rationale is None:
            raise ReportParseFailure("context item without a Rationale line")
        items.append(ContextItem(
            code=fence.group(1).rstrip("\n"),
            file=fm.group(1),
            element=em.group(1) if em else None,
            line_start=int(lm.group(1)) if lm else None,
            line_end=int(lm.group(2)) if lm else None,
            trace_link=_labeled(block, "Trace link"),
            rationale=rationale,
        ))
    return AgentReport(items=tuple(items), insights=insights)


def parse_property_report(text: str) -> AgentReport:
    blocks, insights = _item_blocks(text, "Property")
    props = []
    for block in blocks:
        fence = _FENCE_RE.search(block)
        if not fence:
            raise ReportParseFailure("property item without an assertion "
                                     "block")
        location = _labeled(block, "Location")
        if not location:
            raise ReportParseFailure("property item without a Location line")
        lm = re.match(r"(\S+?)(?::(\d+))?$", location)
        if not lm:
            raise ReportParseFailure(f"bad Location value {location!r}")
        result = (_labeled(block, "Result") or "").upper().replace(" ", "_")
        if result not in ("PASS", "FAIL", "NOT_EVALUATED"):
            raise ReportParseFailure(f"bad Result value {result!r}")
        props.append(SafetyProperty(
            assertion=fence.group(1).rstrip("\n"),
            file=lm.group(1),
            line=int(lm.group(2)) if lm.group(2) else None,
            purpose=_labeled(block, "Purpose") or "",
            result=result,
            interpretation=_labeled(block, "Interpretation") or "",
        ))
    return AgentReport(items=tuple(props), insights=insights)


@dataclass(frozen=True)
class EnhancedIssueReport:
    """The issue text plus whichever agent reports this run produced."""

    issue_text: str
    context_report: AgentReport | None = None
    property_report: AgentReport | None = None

    def render(self) -> str:
        parts = [ISSUE_HEADING, "", self.issue_text.strip()]
        if self.context_report is not None:
            parts += ["", CONTEXT_HEADING, "", self.context_report.render()]
        if self.property_report is not None:
            parts += ["", PROPERTY_HEADING, "", self.property_report.render()]
        return "\n".join(parts) + "\n"

