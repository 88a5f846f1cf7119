"""Safety-property analysis agent: hypothesize, instrument, run, report.
The one stage that writes a tree, in a copy of the input made for it."""

from __future__ import annotations

from pathlib import Path

from ..edit_engine import EditHistory
from ..execution import PocRunner, PythonScriptSandbox
from ..llm import LLMBackend
from ..repo_model import RepoIndex, render_repo_tree, write_text
from ..symbol_analysis import IndexBackend
from .react import (AgentSpec, Transcript, initial_message, load_prompt,
                    read_report, run_react)
from .reports import AgentReport, parse_property_report
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


def install_assert_prelude(root: Path) -> None:
    """Place the assertion header at the workspace root.

    Rollbacks only restore the files an edit set rewrote, so the header
    outlives every rollback and instrumented builds stay possible
    throughout the session.
    """
    write_text(root / ASSERT_PRELUDE_NAME, ASSERT_PRELUDE)


def run_spa_agent(llm: LLMBackend, index: RepoIndex, backend: IndexBackend,
                  history: EditHistory, runner: PocRunner,
                  script_sandbox: PythonScriptSandbox, issue_text: str,
                  max_steps: int = DEFAULT_SPA_MAX_STEPS,
                  ) -> tuple[AgentReport, Transcript]:
    """Analyze which safety property the PoC violates.

    index, history and runner share one tree that no one reads after
    the agent, so whatever it leaves applied stays. The assertion header
    is installed at index.root once the repository tree is taken, so
    that no prompt lists it.
    """
    spec = AgentSpec(
        name="spa",
        system_prompt=load_prompt("spa"),
        max_steps=max_steps,
        tools=spa_toolkit(index, backend, history, runner, script_sandbox),
        workspace=index.root,
    )
    first_message = initial_message(issue_text, render_repo_tree(index))
    install_assert_prelude(index.root)
    transcript = run_react(spec, llm, first_message)
    return (read_report(llm, "spa", transcript.final_text or "",
                        parse_property_report), transcript)
