"""The reasoning/tool loop both agents run on, and how they end.

One step = one model turn: either a tool call (executed, observation fed
back) or final text (the report, ending the loop). Tool errors become
observations rather than crashes; the model is expected to read them and
adjust. When the step budget runs out the loop demands a final report in
one last turn. read_report turns that text into the agent's report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path
from typing import Callable

from ..errors import (MaxStepsExceededWithoutReport, ReportParseFailure,
                      VulnmendError, placeless_message)
from ..llm import ChatRequest, LLMBackend
from .reports import AgentReport

FINALIZE_PROMPT = ("You have reached the step limit. Produce your final "
                   "report now in the required output format. Do not call "
                   "any more tools.")


def load_prompt(name: str) -> str:
    return (files("vulnmend.agents") / "prompts" / f"{name}.md").read_text(
        encoding="utf-8")


def initial_message(issue_text: str, tree: str) -> str:
    return (f"# Issue report\n\n{issue_text.strip()}\n\n"
            f"# Repository layout\n\n```\n{tree.rstrip()}\n```")


@dataclass
class Tool:
    name: str
    description: str
    parameters: dict
    fn: Callable[[dict], "ToolOutcome"]

    def schema(self) -> dict:
        return {"name": self.name, "description": self.description,
                "parameters": self.parameters}


@dataclass
class ToolOutcome:
    observation: str
    meta: dict = field(default_factory=dict)


@dataclass
class AgentSpec:
    name: str
    system_prompt: str
    max_steps: int
    tools: dict[str, Tool]
    workspace: Path | None = None  # named "." in error observations


@dataclass
class Step:
    thought: str | None
    tool: str | None
    args: dict | None
    observation: str | None
    meta: dict = field(default_factory=dict)


@dataclass
class Transcript:
    agent: str
    steps: list[Step] = field(default_factory=list)
    final_text: str | None = None
    hit_step_limit: bool = False

    @property
    def tool_counts(self) -> Counter:
        return Counter(s.tool for s in self.steps if s.tool)


def _execute(tool: Tool, args: dict, workspace: Path | None) -> ToolOutcome:
    try:
        return tool.fn(args or {})
    except (VulnmendError, OSError, KeyError, TypeError, ValueError) as exc:
        # an OSError quotes the files it names; the model sees them
        # relative to the workspace, as its tools take them
        roots = {} if workspace is None else {
            workspace: "", workspace.resolve(): ""}
        return ToolOutcome(
            observation=f"Error: {placeless_message(exc, roots)}",
            meta={"error": type(exc).__name__})


def run_react(spec: AgentSpec, llm: LLMBackend,
              first_message: str) -> Transcript:
    """Drive the agent until it produces final text.

    Raises MaxStepsExceededWithoutReport if even the forced finalize turn
    keeps calling tools.
    """
    transcript = Transcript(agent=spec.name)
    tool_schemas = tuple(t.schema() for t in spec.tools.values())
    messages: list[dict] = [
        {"role": "system", "content": spec.system_prompt},
        {"role": "user", "content": first_message},
    ]

    for _ in range(spec.max_steps):
        response = llm.chat(ChatRequest(
            tag=spec.name, messages=tuple(messages), tools=tool_schemas,
            temperature=0.0))
        if response.tool_call is None:
            transcript.final_text = response.text or ""
            return transcript

        call = response.tool_call
        if call.name not in spec.tools:
            allowed = ", ".join(sorted(spec.tools))
            outcome = ToolOutcome(
                observation=(f"Error: tool {call.name!r} is not available "
                             f"to this agent. Available tools: {allowed}."),
                meta={"refused": True})
        else:
            outcome = _execute(spec.tools[call.name], call.args,
                               spec.workspace)

        transcript.steps.append(Step(
            thought=response.thought, tool=call.name, args=call.args,
            observation=outcome.observation, meta=outcome.meta))
        messages.append({
            "role": "assistant",
            "content": response.thought or "",
            "tool_call": {"name": call.name, "args": call.args},
        })
        messages.append({
            "role": "tool",
            "name": call.name,
            "content": outcome.observation,
        })

    transcript.hit_step_limit = True
    messages.append({"role": "user", "content": FINALIZE_PROMPT})
    response = llm.chat(ChatRequest(
        tag=spec.name, messages=tuple(messages), tools=tool_schemas,
        temperature=0.0))
    if response.tool_call is not None:
        raise MaxStepsExceededWithoutReport(
            f"agent {spec.name!r} exhausted {spec.max_steps} steps and "
            f"still tried to call {response.tool_call.name!r}")
    transcript.final_text = response.text or ""
    return transcript


def read_report(llm: LLMBackend, tag: str, raw: str,
                parse: Callable[[str], AgentReport]) -> AgentReport:
    """The report an agent's final text holds.

    Text that does not parse gets one reformatting turn; if that fails
    too, the raw text is kept with parse_ok=False so the pipeline can
    still splice it into the enhanced report.
    """
    try:
        return parse(raw)
    except ReportParseFailure as failure:
        prompt = (
            "Your previous report did not parse "
            f"({failure}). Here it is:\n\n{raw}\n\n"
            "Rewrite it in the exact required output format from your "
            "instructions, preserving the content. Reply with the report "
            "only.")
    response = llm.chat(ChatRequest(
        tag=f"{tag}_reformat",
        messages=(
            {"role": "system",
             "content": "You reformat reports into a required structure."},
            {"role": "user", "content": prompt},
        ),
        tools=(), temperature=0.0))
    try:
        return parse(response.text or "")
    except ReportParseFailure:
        return AgentReport(items=(), parse_ok=False, raw_text=raw)
