"""Safety-property analysis agent: hypothesize, instrument, run, report."""

from __future__ import annotations

from ..edit_engine import EditHistory
from ..errors import EmptyHistory, ReportParseFailure
from ..execution import PocRunner, PythonScriptSandbox
from ..llm import LLMBackend
from ..repo_model import RepoIndex, render_repo_tree
from ..symbol_analysis import IndexBackend
from .cpc import initial_message, load_prompt, reparse_with_retry
from .react import AgentSpec, Transcript, run_react
from .reports import PropertyAnalysisReport, parse_property_report
from .toolkits import spa_toolkit

DEFAULT_SPA_MAX_STEPS = 40

ASSERT_PRELUDE_NAME = "safety_property_assert.h"

ASSERT_PRELUDE = '''\
#ifndef SAFETY_PROPERTY_ASSERT_H
#define SAFETY_PROPERTY_ASSERT_H

#include <stdio.h>

/* One stderr line per evaluation; never aborts the program. */
#define SAFETY_PROPERTY_ASSERT(cond, id) \\
    do { \\
        if (cond) { \\
            fprintf(stderr, "[SPA] %s PASS\\n", (id)); \\
        } else { \\
            fprintf(stderr, "[SPA] %s FAIL expr=\\"%s\\"\\n", (id), #cond); \\
        } \\
    } while (0)

#endif /* SAFETY_PROPERTY_ASSERT_H */
'''


def install_assert_prelude(sandbox) -> None:
    """Place the assertion header at the workspace root.

    Rollbacks only restore the files an edit set rewrote, so the header
    outlives every rollback and instrumented builds stay possible
    throughout the session.
    """
    sandbox.write_file(ASSERT_PRELUDE_NAME, ASSERT_PRELUDE)


def run_spa_agent(llm: LLMBackend, index: RepoIndex, backend: IndexBackend,
                  history: EditHistory, runner: PocRunner,
                  script_sandbox: PythonScriptSandbox, issue_text: str,
                  max_steps: int = DEFAULT_SPA_MAX_STEPS,
                  ) -> tuple[PropertyAnalysisReport, Transcript]:
    """Analyze which safety property the PoC violates.

    Whatever the agent leaves applied is rolled back afterwards, so the
    workspace the repair stage sees is the baseline one.
    """
    spec = AgentSpec(
        name="spa",
        system_prompt=load_prompt("spa"),
        max_steps=max_steps,
        tools=spa_toolkit(index, backend, history, runner, script_sandbox),
    )
    try:
        transcript = run_react(
            spec, llm,
            initial_message(issue_text, render_repo_tree(index)))
    finally:
        try:
            history.rollback_all()
        except EmptyHistory:
            pass

    raw = transcript.final_text or ""
    try:
        report = parse_property_report(raw)
    except ReportParseFailure as exc:
        report = reparse_with_retry(llm, "spa", raw, parse_property_report,
                                    exc)
        if report is None:
            report = PropertyAnalysisReport(properties=(), insights="",
                                            parse_ok=False, raw_text=raw)
    return report, transcript
