"""Context pre-collection agent: read-only exploration, structured report."""

from __future__ import annotations

from importlib.resources import files

from ..errors import ReportParseFailure
from ..llm import ChatRequest, LLMBackend
from ..repo_model import RepoIndex, render_repo_tree
from ..symbol_analysis import IndexBackend
from .react import AgentSpec, Transcript, run_react
from .reports import ContextAnalysisReport, parse_context_report
from .toolkits import cpc_toolkit

DEFAULT_CPC_MAX_STEPS = 25


def load_prompt(name: str) -> str:
    return (files("vulnmend.agents") / "prompts" / f"{name}.md").read_text(
        encoding="utf-8")


def initial_message(issue_text: str, tree: str) -> str:
    return (f"# Issue report\n\n{issue_text.strip()}\n\n"
            f"# Repository layout\n\n```\n{tree.rstrip()}\n```")


def reparse_with_retry(llm: LLMBackend, tag: str, raw: str, parse_fn,
                       failure: ReportParseFailure):
    """One reformatting turn. Returns the parsed report, or None if the
    second attempt fails too."""
    prompt = (
        "Your previous report did not parse "
        f"({failure}). Here it is:\n\n{raw}\n\n"
        "Rewrite it in the exact required output format from your "
        "instructions, preserving the content. Reply with the report only.")
    response = llm.chat(ChatRequest(
        tag=f"{tag}_reformat",
        messages=(
            {"role": "system",
             "content": "You reformat reports into a required structure."},
            {"role": "user", "content": prompt},
        ),
        tools=(), temperature=0.0))
    try:
        return parse_fn(response.text or "")
    except ReportParseFailure:
        return None


def run_cpc_agent(llm: LLMBackend, index: RepoIndex, backend: IndexBackend,
                  issue_text: str,
                  max_steps: int = DEFAULT_CPC_MAX_STEPS,
                  ) -> tuple[ContextAnalysisReport, Transcript]:
    """Collect repair-relevant context for the issue.

    A malformed final report gets one reformatting turn; if that fails
    too, the raw text is kept with parse_ok=False so the pipeline can
    still splice it into the enhanced report.
    """
    spec = AgentSpec(
        name="cpc",
        system_prompt=load_prompt("cpc"),
        max_steps=max_steps,
        tools=cpc_toolkit(index, backend),
    )
    transcript = run_react(
        spec, llm, initial_message(issue_text, render_repo_tree(index)))
    raw = transcript.final_text or ""
    try:
        report = parse_context_report(raw)
    except ReportParseFailure as exc:
        report = reparse_with_retry(llm, "cpc", raw, parse_context_report,
                                    exc)
        if report is None:
            report = ContextAnalysisReport(items=(), insights="",
                                           parse_ok=False, raw_text=raw)
    return report, transcript
