"""Deterministic run telemetry.

Everything recorded here must be stable across identical runs, so no
timestamps, durations or absolute paths. Script-call classification
answers how the analysis agent actually used its python scratchpad.
"""

from __future__ import annotations

import ast
from collections import Counter

_STR_METHODS = {
    "count", "find", "rfind", "index", "split", "rsplit", "splitlines",
    "join", "replace", "strip", "lstrip", "rstrip", "startswith",
    "endswith", "lower", "upper", "format", "partition", "encode",
    "decode", "group", "groups", "findall", "finditer", "search", "match",
    "sub", "fullmatch",
}

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
              ast.Pow, ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr,
              ast.BitXor)


def _is_literal_print(node: ast.stmt) -> bool:
    if not isinstance(node, ast.Expr):
        return False
    call = node.value
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "print"):
        return False
    return all(isinstance(arg, ast.Constant) for arg in call.args)


def classify_script(code: str, violation: bool = False) -> str:
    """What kind of work a scratchpad script did.

    Precedence: forbidden (sandbox violation recorded) > poc (reads a
    stored PoC log) > think (only literal prints, i.e. the model used the
    tool as a notepad) > string (text processing) > int (arithmetic) >
    other.
    """
    if violation:
        return "forbidden"
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return "other"

    uses_poc = False
    uses_string = False
    uses_int = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id == "get_poc_output"):
                uses_poc = True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _STR_METHODS):
                uses_string = True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if any(n.split(".")[0] == "re" for n in names):
                uses_string = True
        elif isinstance(node, ast.BinOp) and isinstance(node.op,
                                                        _ARITH_OPS):
            uses_int = True
        elif isinstance(node, ast.JoinedStr):
            uses_string = True

    if uses_poc:
        return "poc"
    if tree.body and all(_is_literal_print(s) for s in tree.body):
        return "think"
    if uses_string:
        return "string"
    if uses_int:
        return "int"
    return "other"


def classify_script_calls(transcript) -> Counter:
    """Category counts over every run_python_code call in a transcript."""
    counts: Counter = Counter()
    for step in transcript.steps:
        if step.tool != "run_python_code":
            continue
        code = str((step.meta or {}).get("code", "")
                   or (step.args or {}).get("code", ""))
        counts[classify_script(
            code, violation=bool((step.meta or {}).get("violation")))] += 1
    return counts


def transcript_summary(transcript, report) -> dict:
    """JSON-ready digest of an agent transcript and whether its report
    parsed."""
    return {
        "agent": transcript.agent,
        "steps": len(transcript.steps),
        "tool_counts": dict(sorted(transcript.tool_counts.items())),
        "refused_calls": sum(1 for s in transcript.steps
                             if s.meta.get("refused")),
        "errored_calls": sum(1 for s in transcript.steps
                             if "error" in s.meta),
        "hit_step_limit": transcript.hit_step_limit,
        "report_parse_ok": report.parse_ok,
        "script_calls": dict(sorted(
            classify_script_calls(transcript).items())),
    }
