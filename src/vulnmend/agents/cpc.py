"""Context pre-collection agent: read-only exploration, structured report."""

from __future__ import annotations

from ..llm import LLMBackend
from ..repo_model import RepoIndex, render_repo_tree
from ..symbol_analysis import IndexBackend
from .react import (AgentSpec, Transcript, initial_message, load_prompt,
                    read_report, run_react)
from .reports import AgentReport, parse_context_report
from .toolkits import cpc_toolkit

DEFAULT_CPC_MAX_STEPS = 25


def run_cpc_agent(llm: LLMBackend, index: RepoIndex, backend: IndexBackend,
                  issue_text: str,
                  max_steps: int = DEFAULT_CPC_MAX_STEPS,
                  ) -> tuple[AgentReport, Transcript]:
    """Collect repair-relevant context for the issue."""
    spec = AgentSpec(
        name="cpc",
        system_prompt=load_prompt("cpc"),
        max_steps=max_steps,
        tools=cpc_toolkit(index, backend),
        workspace=index.root,
    )
    transcript = run_react(
        spec, llm, initial_message(issue_text, render_repo_tree(index)))
    return (read_report(llm, "cpc", transcript.final_text or "",
                        parse_context_report), transcript)
