import re
from pathlib import Path

import pytest
from conftest import ScriptedLLM, snapshot
from replay_scripts import CPC_REPORT, PROBE_EDITS, SPA_REPORT

from vulnmend.agents.cpc import run_cpc_agent
from vulnmend.agents.react import (FINALIZE_PROMPT, AgentSpec, Tool,
                                   ToolOutcome, initial_message, load_prompt,
                                   run_react)
from vulnmend.agents.reports import (CONTEXT_HEADING, ISSUE_HEADING,
                                     PROPERTY_HEADING, AgentReport,
                                     ContextItem, EnhancedIssueReport,
                                     SafetyProperty, parse_context_report,
                                     parse_property_report)
from vulnmend.agents.spa import (ASSERT_PRELUDE, ASSERT_PRELUDE_NAME,
                                 install_assert_prelude, run_spa_agent)
from vulnmend.agents.toolkits import (build_apply_edits_tool, build_read_tool,
                                      build_resolve_tool,
                                      build_rollback_latest_tool,
                                      build_run_poc_tool,
                                      build_run_python_tool,
                                      build_search_tool, cpc_toolkit,
                                      spa_toolkit)
from vulnmend.edit_engine import EditHistory
from vulnmend.errors import (LLMBackendError, MaxStepsExceededWithoutReport,
                             ReportParseFailure)
from vulnmend.execution import (ExecResult, LocalSandbox, PocRunner,
                                PythonScriptSandbox)
from vulnmend.llm import ChatResponse, ToolCall
from vulnmend.repo_model import RepoIndex
from vulnmend.symbol_analysis import IndexBackend

ASAN_LOG = ("==77==ERROR: AddressSanitizer: stack-buffer-overflow\n"
            "SUMMARY: AddressSanitizer: stack-buffer-overflow\n")


def _text(t):
    return ChatResponse(text=t)


def _tool(name, args, thought=None):
    return ChatResponse(tool_call=ToolCall(name=name, args=args),
                        thought=thought)


# -- report round-trips ----------------------------------------------------------


def test_context_report_round_trip():
    report = AgentReport(
        items=(
            ContextItem(code="int x = 1;", file="src/a.c", element="x",
                        line_start=3, line_end=3,
                        trace_link="frame #2 foo src/a.c:3",
                        rationale="the counter the trace blames"),
            ContextItem(code="void foo(void);", file="src/a.h",
                        rationale="declaration only"),
        ),
        insights="x is written unguarded.")
    parsed = parse_context_report(report.render())
    assert parsed.items == report.items
    assert parsed.insights == report.insights
    assert parsed.parse_ok is True


def test_property_report_round_trip():
    report = AgentReport(
        items=(
            SafetyProperty(assertion='SAFETY_PROPERTY_ASSERT(i < n, "p1");',
                           file="src/a.c", line=12,
                           purpose="index stays in bounds",
                           result="FAIL",
                           interpretation="fails on the PoC input"),
            SafetyProperty(assertion="ptr != NULL", file="src/b.c",
                           line=None, purpose="never deref null",
                           result="NOT_EVALUATED",
                           interpretation="did not compile in time"),
        ),
        insights="p1 is the violated property.")
    parsed = parse_property_report(report.render())
    assert parsed.items == report.items
    assert parsed.insights == report.insights


def test_bundled_reports_parse():
    context = parse_context_report(CPC_REPORT)
    assert len(context.items) == 3
    assert context.items[0].element == "copy_name"
    assert context.items[2].element is None
    assert context.insights

    props = parse_property_report(SPA_REPORT)
    assert len(props.items) == 1
    assert props.items[0].result == "FAIL"
    assert props.items[0].file == "src/buf.c"
    assert props.items[0].line == 18


def test_parse_context_rejections():
    bad = [
        "free text with no items",
        SPA_REPORT,                                 # wrong item kind
        "### Context 1\nSource: file=a.c\nRationale: r",   # no code fence
        "### Context 1\nCode:\n```\nx\n```\nRationale: r",  # no Source
        "### Context 1\nCode:\n```\nx\n```\nSource: element=f\nRationale: r",
        "### Context 1\nCode:\n```\nx\n```\nSource: file=a.c",  # no Rationale
    ]
    for text in bad:
        with pytest.raises(ReportParseFailure):
            parse_context_report(text)


def test_parse_property_rejections():
    base = ("### Property 1\nAssertion:\n```\nx\n```\n"
            "Location: a.c:1\nPurpose: p\nResult: {}\nInterpretation: i")
    with pytest.raises(ReportParseFailure):
        parse_property_report(base.format("MAYBE"))
    with pytest.raises(ReportParseFailure):
        parse_property_report("### Property 1\nAssertion:\n```\nx\n```\n"
                              "Purpose: p\nResult: PASS")
    with pytest.raises(ReportParseFailure):
        parse_property_report("### Property 1\nLocation: a.c\nResult: PASS")


def test_result_value_normalization():
    base = ("### Property 1\nAssertion:\n```\nx\n```\n"
            "Location: a.c\nPurpose: p\nResult: {}\nInterpretation: i")
    assert parse_property_report(
        base.format("not evaluated")).items[0].result == "NOT_EVALUATED"
    assert parse_property_report(
        base.format("pass")).items[0].result == "PASS"


def test_unparsed_report_renders_raw_text():
    report = AgentReport(items=(), insights="", parse_ok=False,
                         raw_text="whatever the model said")
    assert report.render() == "whatever the model said"


def split_enhanced_report(text: str) -> dict:
    """Which sections a rendered enhanced report contains, with their
    texts. Inverse of EnhancedIssueReport.render() over section presence."""
    headings = [ISSUE_HEADING, CONTEXT_HEADING, PROPERTY_HEADING]
    positions = []
    for h in headings:
        m = re.search(rf"^{re.escape(h)}\s*$", text, re.MULTILINE)
        positions.append((h, m.start() if m else None, m.end() if m else None))
    found = [(h, s, e) for h, s, e in positions if s is not None]
    found.sort(key=lambda t: t[1])
    out = {}
    for i, (h, s, e) in enumerate(found):
        stop = found[i + 1][1] if i + 1 < len(found) else len(text)
        out[h] = text[e:stop].strip()
    return out


def test_enhanced_report_sections():
    context = parse_context_report(CPC_REPORT)
    props = parse_property_report(SPA_REPORT)
    both = EnhancedIssueReport(issue_text="crash report here",
                               context_report=context,
                               property_report=props).render()
    sections = split_enhanced_report(both)
    assert set(sections) == {ISSUE_HEADING, CONTEXT_HEADING, PROPERTY_HEADING}
    assert sections[ISSUE_HEADING] == "crash report here"
    assert "### Context 1" in sections[CONTEXT_HEADING]
    assert "### Property 1" in sections[PROPERTY_HEADING]

    issue_only = EnhancedIssueReport(issue_text="crash report here").render()
    assert set(split_enhanced_report(issue_only)) == {ISSUE_HEADING}

    context_only = EnhancedIssueReport(issue_text="x",
                                       context_report=context).render()
    assert set(split_enhanced_report(context_only)) == {ISSUE_HEADING,
                                                        CONTEXT_HEADING}


# -- the react loop ---------------------------------------------------------------


def _probe_tool(observation="probe result", fail_with=None):
    calls = []

    def fn(args):
        calls.append(args)
        if fail_with is not None:
            raise fail_with
        return ToolOutcome(observation=observation, meta={"calls": len(calls)})

    tool = Tool(name="probe", description="test probe",
                parameters={"type": "object", "properties": {},
                            "required": []}, fn=fn)
    return tool, calls


def _spec(tools, max_steps=5, name="tester"):
    return AgentSpec(name=name, system_prompt="system text",
                     max_steps=max_steps,
                     tools={t.name: t for t in tools})


def test_react_immediate_final_text():
    llm = ScriptedLLM([_text("all done")])
    transcript = run_react(_spec([]), llm, "go")
    assert transcript.final_text == "all done"
    assert transcript.steps == []
    assert transcript.hit_step_limit is False


def test_react_tool_then_final_feeds_observation_back():
    tool, calls = _probe_tool("saw 3 matches")
    llm = ScriptedLLM([_tool("probe", {"x": 1}, thought="checking"),
                       _text("report")])
    transcript = run_react(_spec([tool]), llm, "go")
    assert transcript.final_text == "report"
    assert len(transcript.steps) == 1
    step = transcript.steps[0]
    assert (step.tool, step.args, step.thought) == ("probe", {"x": 1},
                                                    "checking")
    assert step.observation == "saw 3 matches"
    assert calls == [{"x": 1}]
    second = llm.requests[1].messages
    assert second[-2]["role"] == "assistant"
    assert second[-2]["tool_call"] == {"name": "probe", "args": {"x": 1}}
    assert second[-1] == {"role": "tool", "name": "probe",
                          "content": "saw 3 matches"}
    assert llm.tags == ["tester", "tester"]


def test_react_unknown_tool_is_refused_not_fatal():
    tool, _ = _probe_tool()
    llm = ScriptedLLM([_tool("delete_everything", {}), _text("done")])
    transcript = run_react(_spec([tool]), llm, "go")
    step = transcript.steps[0]
    assert step.meta == {"refused": True}
    assert "not available" in step.observation
    assert "probe" in step.observation
    assert transcript.final_text == "done"


def test_react_tool_exception_becomes_observation():
    tool, _ = _probe_tool(fail_with=ValueError("missing required argument"))
    llm = ScriptedLLM([_tool("probe", {}), _text("done")])
    transcript = run_react(_spec([tool]), llm, "go")
    step = transcript.steps[0]
    assert step.observation == "Error: missing required argument"
    assert step.meta == {"error": "ValueError"}


def test_react_backend_error_propagates_after_one_request():
    # retrying is the backend's job; the loop never asks twice
    def fail(request):
        raise LLMBackendError("HTTP 503 (after 3 attempts)")

    llm = ScriptedLLM([fail, _text("never")])
    with pytest.raises(LLMBackendError):
        run_react(_spec([]), llm, "go")
    assert len(llm.requests) == 1


def test_react_step_limit_forces_final_report():
    tool, _ = _probe_tool()
    llm = ScriptedLLM([_tool("probe", {}), _text("forced report")])
    transcript = run_react(_spec([tool], max_steps=1), llm, "go")
    assert transcript.hit_step_limit is True
    assert transcript.final_text == "forced report"
    finalize = llm.requests[1].messages[-1]
    assert finalize == {"role": "user", "content": FINALIZE_PROMPT}


def test_react_step_limit_tool_insistence_raises():
    tool, _ = _probe_tool()
    llm = ScriptedLLM([_tool("probe", {}), _tool("probe", {})])
    with pytest.raises(MaxStepsExceededWithoutReport):
        run_react(_spec([tool], max_steps=1), llm, "go")


# -- toolkits ---------------------------------------------------------------------


def test_toolkit_composition(scratch_crepo):
    backend = IndexBackend(RepoIndex(scratch_crepo))
    assert set(cpc_toolkit(backend.index, backend)) == {
        "search_code_element", "read_code", "resolve_code_symbol"}
    history = EditHistory(backend.index)
    runner = PocRunner(LocalSandbox(scratch_crepo), "true")
    spa_tools = spa_toolkit(backend.index, backend, history, runner,
                            PythonScriptSandbox())
    assert set(spa_tools) == {
        "search_code_element", "read_code", "resolve_code_symbol",
        "run_poc", "apply_edits", "rollback_the_latest_one_edit_set",
        "rollback_all_applied_edits", "run_python_code"}


def test_toolkit_schemas_are_wellformed(scratch_crepo):
    backend = IndexBackend(RepoIndex(scratch_crepo))
    history = EditHistory(backend.index)
    runner = PocRunner(LocalSandbox(scratch_crepo), "true")
    for tool in spa_toolkit(backend.index, backend, history, runner,
                            PythonScriptSandbox()).values():
        schema = tool.schema()
        assert schema["name"] == tool.name
        assert schema["description"]
        params = schema["parameters"]
        assert params["type"] == "object"
        assert set(params["required"]) <= set(params["properties"])


def test_search_tool_marks_lines(crepo_index):
    tool = build_search_tool(crepo_index)
    out = tool.fn({"name": "copy_name", "mark_lines": [19]})
    assert "// <<<<< src/buf.c:19" in out.observation
    assert out.meta["matches"] >= 1


def test_read_tool_meta_span(crepo_index):
    tool = build_read_tool(crepo_index)
    out = tool.fn({"file": "src/buf.c", "center": 1, "num": 5})
    assert out.meta["start"] == 1
    assert "1 " in out.observation


def test_resolve_tool_renders_definitions(crepo_index):
    tool = build_resolve_tool(IndexBackend(crepo_index))
    queries = """### src/main.c
<<<<<<< SEARCH
    copy_name(name, sizeof(name), argv[1]);
=======
    FIND_DEFINITION(copy_name)(name, sizeof(name), argv[1]);
>>>>>>> REPLACE
"""
    out = tool.fn({"queries": queries})
    assert "definition: src/buf.c:8" in out.observation
    assert out.meta == {"queries": 1}


def test_tools_reject_missing_required_args(crepo_index):
    with pytest.raises(ValueError):
        build_read_tool(crepo_index).fn({"center": 3})
    with pytest.raises(ValueError):
        build_search_tool(crepo_index).fn({})


def test_apply_and_rollback_tools(scratch_crepo):
    history = EditHistory(RepoIndex(scratch_crepo))
    base = snapshot(scratch_crepo).digest
    apply_tool = build_apply_edits_tool(history)
    out = apply_tool.fn({"unique_name": "probe", "edits": PROBE_EDITS})
    assert out.observation.startswith("Applied edit set 'probe' to: "
                                      "src/buf.c.")
    assert out.meta == {"name": "probe", "files": ["src/buf.c"]}
    assert snapshot(scratch_crepo).digest != base

    rollback = build_rollback_latest_tool(history)
    out = rollback.fn({})
    assert "Rolled back the most recent edit set." in out.observation
    assert out.meta == {"remaining": 0}
    assert snapshot(scratch_crepo).digest == base


def test_run_python_tool_flags_violation():
    tool = build_run_python_tool(PythonScriptSandbox())
    out = tool.fn({"code": "open('/etc/passwd')"})
    assert out.meta["violation"] is True
    assert out.meta["code"] == "open('/etc/passwd')"
    assert "Sandbox violation" in out.observation
    clean = tool.fn({"code": "print(2 + 2)"})
    assert clean.meta["violation"] is False
    assert clean.observation.strip() == "4"


class _CannedSandbox:
    workspace = Path("/nonexistent")

    def __init__(self, result):
        self.result = result

    def exec(self, command, timeout=None):
        return self.result


def test_run_poc_tool_meta():
    runner = PocRunner(_CannedSandbox(ExecResult(1, "", ASAN_LOG)), "cmd")
    out = build_run_poc_tool(runner).fn({"unique_name": "probe"})
    assert out.meta == {"name": "probe", "compiled": True,
                        "sanitizer_triggered": True, "exit_code": 1}
    assert "sanitizer TRIGGERED" in out.observation


# -- agent entry points -------------------------------------------------------------


def test_initial_message_shape():
    msg = initial_message("  the issue  ", "root/\n  f.c\n")
    assert msg == ("# Issue report\n\nthe issue\n\n"
                   "# Repository layout\n\n```\nroot/\n  f.c\n```")


def test_prompts_cover_tools_and_grammar():
    cpc_prompt = load_prompt("cpc")
    for name in ("search_code_element", "read_code", "resolve_code_symbol"):
        assert name in cpc_prompt
    assert "### Context" in cpc_prompt
    assert "### Insights" in cpc_prompt

    spa_prompt = load_prompt("spa")
    for name in ("run_poc", "apply_edits", "rollback_all_applied_edits",
                 "run_python_code", "SAFETY_PROPERTY_ASSERT"):
        assert name in spa_prompt
    assert "### Property" in spa_prompt


def test_run_cpc_agent_tool_walk(crepo_index, issue_text):
    llm = ScriptedLLM([
        _tool("search_code_element", {"name": "copy_name"}),
        _tool("read_code", {"file": "src/main.c", "center": 14, "num": 7}),
        _text(CPC_REPORT),
    ])
    report, transcript = run_cpc_agent(llm, crepo_index,
                                       IndexBackend(crepo_index),
                                       issue_text)
    assert report.parse_ok is True
    assert len(report.items) == 3
    assert transcript.tool_counts == {"search_code_element": 1,
                                      "read_code": 1}
    assert llm.tags == ["cpc", "cpc", "cpc"]
    first = llm.requests[0].messages
    assert first[0]["content"] == load_prompt("cpc")
    assert issue_text.strip() in first[1]["content"]
    assert "src/buf.c" in first[1]["content"]


def test_tools_refuse_paths_outside_the_workspace(crepo_index, issue_text):
    # tool arguments come from a model that read attacker-written issue
    # text; a path out of the workspace gets an error, not a file
    llm = ScriptedLLM([
        _tool("read_code", {"file": "../crepo_issue.md", "center": 1,
                            "num": 3}),
        _tool("search_code_element", {"name": "main",
                                      "file": "../crepo/src/main.c"}),
        _tool("read_code", {"file": "secb.sh", "center": 1, "num": 3}),
        _text(CPC_REPORT),
    ])
    _, transcript = run_cpc_agent(llm, crepo_index,
                                  IndexBackend(crepo_index), issue_text)
    read, search, script = transcript.steps
    assert read.observation == \
        "Error: ../crepo_issue.md is outside the workspace"
    assert search.observation == \
        "Error: ../crepo/src/main.c is outside the workspace"
    assert script.meta == {"start": 1, "end": 3}


def _run_agent(agent, llm, root, issue_text):
    """Run either agent on a scratch tree, as the pipeline calls it."""
    index = RepoIndex(root)
    if agent == "cpc":
        return run_cpc_agent(llm, index, IndexBackend(index), issue_text)
    runner = PocRunner(_CannedSandbox(ExecResult(0, "", "")), "cmd")
    return run_spa_agent(llm, index, None, EditHistory(index), runner,
                         PythonScriptSandbox(), issue_text)


_REPORTS = {"cpc": CPC_REPORT, "spa": SPA_REPORT}


@pytest.mark.parametrize("agent", ["cpc", "spa"])
def test_agent_reformat_recovers(agent, scratch_crepo, issue_text):
    llm = ScriptedLLM([_text("prose summary, not the required format"),
                       _text(_REPORTS[agent])])
    report, _ = _run_agent(agent, llm, scratch_crepo, issue_text)
    assert report.parse_ok is True
    assert report.render() == _REPORTS[agent].strip()
    assert llm.tags == [agent, f"{agent}_reformat"]
    reformat_msg = llm.requests[1].messages[-1]["content"]
    assert "did not parse" in reformat_msg
    assert "prose summary, not the required format" in reformat_msg


@pytest.mark.parametrize("then, parse_ok", [(SPA_REPORT, True),
                                            ("junk", False)])
def test_a_location_that_is_not_path_line_is_reformatted(
        then, parse_ok, scratch_crepo, issue_text):
    # this Location once raised an AttributeError, which no stage caught,
    # so the whole batch ended
    odd = SPA_REPORT.replace("Location: src/buf.c:18",
                             "Location: src/buf.c line 18")
    with pytest.raises(ReportParseFailure, match="src/buf.c line 18"):
        parse_property_report(odd)
    llm = ScriptedLLM([_text(odd), _text(then)])
    report, _ = _run_agent("spa", llm, scratch_crepo, issue_text)
    assert llm.tags == ["spa", "spa_reformat"]
    assert report.parse_ok is parse_ok
    assert report.render() == (SPA_REPORT.strip() if parse_ok else odd)


@pytest.mark.parametrize("agent", ["cpc", "spa"])
def test_agent_keeps_raw_text_when_reformat_fails(agent, scratch_crepo,
                                                  issue_text):
    llm = ScriptedLLM([_text("junk one"), _text("junk two")])
    report, _ = _run_agent(agent, llm, scratch_crepo, issue_text)
    assert llm.tags == [agent, f"{agent}_reformat"]
    assert report.parse_ok is False
    assert report.raw_text == "junk one"
    assert report.items == ()
    assert report.render() == "junk one"


def test_run_spa_agent_tolerates_empty_history(scratch_crepo, issue_text):
    history = EditHistory(RepoIndex(scratch_crepo))
    runner = PocRunner(_CannedSandbox(ExecResult(0, "", "")), "cmd")
    llm = ScriptedLLM([_text(SPA_REPORT)])
    report, transcript = run_spa_agent(llm, RepoIndex(scratch_crepo), None,
                                       history, runner, PythonScriptSandbox(),
                                       issue_text)
    assert report.parse_ok is True
    assert transcript.steps == []


def test_tool_os_errors_become_observations_without_the_workspace_path(
        scratch_crepo, issue_text, monkeypatch):
    # a file the tools cannot read costs one observation, not the stage
    # and its report; the model sees the file as its tools name it
    read_bytes = Path.read_bytes

    def unreadable_buf(path):
        if path.name == "buf.c":
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", unreadable_buf)
    runner = PocRunner(_CannedSandbox(ExecResult(0, "", "")), "cmd")
    llm = ScriptedLLM([
        _tool("read_code", {"file": "src/buf.c", "center": 1, "num": 3}),
        _tool("apply_edits", {"unique_name": "bounds-probe",
                              "edits": PROBE_EDITS}),
        _text(SPA_REPORT),
    ])
    index = RepoIndex(scratch_crepo)
    report, transcript = run_spa_agent(
        llm, index, None, EditHistory(index), runner, PythonScriptSandbox(),
        issue_text)
    assert report.parse_ok is True
    for step in transcript.steps:
        assert step.observation == \
            "Error: [Errno 13] Permission denied: 'src/buf.c'"
        assert step.meta == {"error": "PermissionError"}
    assert len(transcript.steps) == 2
    sent = "".join(m["content"] for m in llm.requests[-1].messages)
    assert str(scratch_crepo) not in sent


def test_assert_prelude_contract(tmp_path):
    install_assert_prelude(tmp_path)
    text = (tmp_path / ASSERT_PRELUDE_NAME).read_text()
    assert text == ASSERT_PRELUDE
    assert "#ifndef SAFETY_PROPERTY_ASSERT_H" in text
    assert '[SPA] %s PASS' in text
    assert 'FAIL expr=' in text
    assert "#cond" in text
    assert "abort()" not in text
