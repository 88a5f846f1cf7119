"""Tool bindings exposed to the two agents.

The context agent gets the three read-only exploration tools. The
property-analysis agent additionally gets dynamic validation (PoC runs),
code editing with history, and a python scratchpad. The exploration
tools read only through the workspace's RepoIndex. Argument problems
come back as observations so the model can correct itself.
"""

from __future__ import annotations

from ..code_search import read_code, search_code_element
from ..edit_engine import EditHistory
from ..execution import PocRunner, PythonScriptSandbox
from ..repo_model import RepoIndex
from ..symbol_analysis import IndexBackend, resolve_code_symbol
from .react import Tool, ToolOutcome


def _req(args: dict, key: str) -> object:
    if key not in args or args[key] in (None, ""):
        raise ValueError(f"missing required argument {key!r}")
    return args[key]


def _opt_lines(args: dict, key: str = "mark_lines") -> list[int] | None:
    raw = args.get(key)
    if raw is None:
        return None
    if isinstance(raw, (int, str)):
        raw = [raw]
    return [int(x) for x in raw]


def _str_schema(desc: str) -> dict:
    return {"type": "string", "description": desc}


def _int_schema(desc: str) -> dict:
    return {"type": "integer", "description": desc}


_MARK_SCHEMA = {
    "type": "array", "items": {"type": "integer"},
    "description": "1-based line numbers to annotate with location markers",
}


def build_search_tool(index: RepoIndex) -> Tool:
    def fn(args: dict) -> ToolOutcome:
        result = search_code_element(
            index, str(_req(args, "name")),
            file=args.get("file") or None,
            mark_lines=_opt_lines(args))
        return ToolOutcome(observation=result.render(),
                           meta={"matches": len(result.matches)})

    return Tool(
        name="search_code_element",
        description=("Search the repository for a named code element "
                     "(function, struct, class, enum, union, variable or "
                     "macro) and return each match's source with file and "
                     "line span. Optionally restrict to one file and mark "
                     "specific lines."),
        parameters={
            "type": "object",
            "properties": {
                "name": _str_schema("element name; Scope::name works for "
                                    "members and qualified functions"),
                "file": _str_schema("optional repo-relative file to search "
                                    "in"),
                "mark_lines": _MARK_SCHEMA,
            },
            "required": ["name"],
        },
        fn=fn,
    )


def build_read_tool(index: RepoIndex) -> Tool:
    def fn(args: dict) -> ToolOutcome:
        window = read_code(
            index, str(_req(args, "file")),
            center=int(_req(args, "center")),
            num=int(_req(args, "num")),
            mark_lines=_opt_lines(args))
        return ToolOutcome(observation=window.render(),
                           meta={"start": window.start_line,
                                 "end": window.end_line})

    return Tool(
        name="read_code",
        description=("Read a window of num lines from a file, centered on "
                     "a 1-based line number. The window is clamped to the "
                     "file. Optionally mark specific lines."),
        parameters={
            "type": "object",
            "properties": {
                "file": _str_schema("repo-relative file path"),
                "center": _int_schema("1-based center line"),
                "num": _int_schema("number of lines to show"),
                "mark_lines": _MARK_SCHEMA,
            },
            "required": ["file", "center", "num"],
        },
        fn=fn,
    )


def build_resolve_tool(backend: IndexBackend) -> Tool:
    def fn(args: dict) -> ToolOutcome:
        result = resolve_code_symbol(str(_req(args, "queries")), backend)
        return ToolOutcome(observation=result.render(),
                           meta={"queries": len(result.outcomes)})

    return Tool(
        name="resolve_code_symbol",
        description=("Resolve symbols to their definitions or reference "
                     "sites. Write one or more SEARCH/REPLACE blocks whose "
                     "REPLACE side wraps an identifier in "
                     "FIND_DEFINITION(name) or FIND_REFERENCES(name); the "
                     "SEARCH side must quote existing code exactly so the "
                     "query position is unambiguous. Nothing is edited."),
        parameters={
            "type": "object",
            "properties": {
                "queries": _str_schema(
                    "SEARCH/REPLACE blocks containing FIND_DEFINITION / "
                    "FIND_REFERENCES markers"),
            },
            "required": ["queries"],
        },
        fn=fn,
    )


def build_run_poc_tool(runner: PocRunner) -> Tool:
    def fn(args: dict) -> ToolOutcome:
        result = runner.run_poc(str(_req(args, "unique_name")))
        return ToolOutcome(observation=result.render(), meta={
            "name": result.name,
            "compiled": result.compiled,
            "sanitizer_triggered": result.sanitizer_triggered,
            "exit_code": result.exit_code,
        })

    return Tool(
        name="run_poc",
        description=("Build and run the proof-of-concept reproduction "
                     "command against the current workspace state. Returns "
                     "exit code, sanitizer verdict, safety-property "
                     "assertion tallies and a truncated log. The full log "
                     "stays readable under the given name."),
        parameters={
            "type": "object",
            "properties": {
                "unique_name": _str_schema(
                    "label for this run; reused names get a numeric suffix"),
            },
            "required": ["unique_name"],
        },
        fn=fn,
    )


def build_apply_edits_tool(history: EditHistory) -> Tool:
    def fn(args: dict) -> ToolOutcome:
        result = history.apply_edits(str(_req(args, "unique_name")),
                                     str(_req(args, "edits")))
        files = ", ".join(result.files)
        return ToolOutcome(
            observation=(f"Applied edit set '{result.fixed_name}' to: "
                         f"{files}.\n{result.history.render()}"),
            meta={"name": result.fixed_name, "files": list(result.files)})

    return Tool(
        name="apply_edits",
        description=("Apply a set of SEARCH/REPLACE edits to the workspace "
                     "as one named, atomic, rollbackable unit. Each block "
                     "starts with a '### <file>' header; the SEARCH side "
                     "must match existing file content."),
        parameters={
            "type": "object",
            "properties": {
                "unique_name": _str_schema(
                    "label for this edit set; reused names get a numeric "
                    "suffix"),
                "edits": _str_schema("one or more SEARCH/REPLACE blocks"),
            },
            "required": ["unique_name", "edits"],
        },
        fn=fn,
    )


def build_rollback_latest_tool(history: EditHistory) -> Tool:
    def fn(args: dict) -> ToolOutcome:
        view = history.rollback_latest()
        return ToolOutcome(
            observation=("Rolled back the most recent edit set.\n"
                         + view.render()),
            meta={"remaining": view.count})

    return Tool(
        name="rollback_the_latest_one_edit_set",
        description="Undo the most recently applied edit set.",
        parameters={"type": "object", "properties": {}, "required": []},
        fn=fn,
    )


def build_rollback_all_tool(history: EditHistory) -> Tool:
    def fn(args: dict) -> ToolOutcome:
        view = history.rollback_all()
        return ToolOutcome(
            observation=("Rolled back all applied edit sets; workspace is "
                         "back at its baseline.\n" + view.render()),
            meta={"remaining": view.count})

    return Tool(
        name="rollback_all_applied_edits",
        description=("Undo every applied edit set, restoring the workspace "
                     "to the state before the first one."),
        parameters={"type": "object", "properties": {}, "required": []},
        fn=fn,
    )


def build_run_python_tool(sandbox: PythonScriptSandbox) -> Tool:
    def fn(args: dict) -> ToolOutcome:
        result = sandbox.run_script(str(_req(args, "code")))
        observation = result.output or "(no output)"
        if result.violation:
            observation += (f"\nSandbox violation: {result.violation}. The "
                            "script environment allows computation only.")
        return ToolOutcome(observation=observation,
                           meta={"violation": bool(result.violation),
                                 "code": str(args.get("code", ""))})

    return Tool(
        name="run_python_code",
        description=("Run a short python script in a computation-only "
                     "sandbox: no files, processes or network. print() "
                     "output is returned. get_poc_output(name) yields the "
                     "full log of a previous PoC run for string analysis."),
        parameters={
            "type": "object",
            "properties": {
                "code": _str_schema("python source to execute"),
            },
            "required": ["code"],
        },
        fn=fn,
    )


def cpc_toolkit(index: RepoIndex, backend: IndexBackend) -> dict[str, Tool]:
    """Read-only exploration tools for the context pre-collection agent."""
    tools = [build_search_tool(index), build_read_tool(index),
             build_resolve_tool(backend)]
    return {t.name: t for t in tools}


def spa_toolkit(index: RepoIndex, backend: IndexBackend,
                history: EditHistory, runner: PocRunner,
                script_sandbox: PythonScriptSandbox) -> dict[str, Tool]:
    """The context agent's tools, then dynamic validation, editing with
    history and the python scratchpad."""
    tools = [build_run_poc_tool(runner), build_apply_edits_tool(history),
             build_rollback_latest_tool(history),
             build_rollback_all_tool(history),
             build_run_python_tool(script_sandbox)]
    return {**cpc_toolkit(index, backend), **{t.name: t for t in tools}}
