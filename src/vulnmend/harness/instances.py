"""Issue instances: the JSONL input format of a run.

One line per instance. Required: instance_id, issue_report, repro_command
and a workspace directory, {"path": ...}. Optional: sanitizer_log,
language, verify_command. Relative workspace paths resolve against the
instances file's directory.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import BadInputFile, SchemaViolation

_ID_OK = set("abcdefghijklmnopqrstuvwxyz"
             "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")


@dataclass(frozen=True)
class IssueInstance:
    instance_id: str
    issue_report: str
    repro_command: str
    workspace_path: str
    sanitizer_log: str | None = None
    verify_command: str | None = None


def _field(obj: dict, name: str, line: int) -> str:
    value = obj.get(name)
    if not isinstance(value, str) or not value.strip():
        raise SchemaViolation(f"missing or empty field {name!r}",
                              field=name, line=line)
    return value


def parse_instance(obj: dict, line: int, base_dir: Path) -> IssueInstance:
    if not isinstance(obj, dict):
        raise SchemaViolation("instance must be a JSON object",
                              field="", line=line)
    instance_id = _field(obj, "instance_id", line)
    if not set(instance_id) <= _ID_OK:
        raise SchemaViolation(
            f"instance_id {instance_id!r} has characters outside "
            "[A-Za-z0-9._-]", field="instance_id", line=line)

    workspace = obj.get("workspace")
    if not isinstance(workspace, dict):
        raise SchemaViolation("missing workspace object",
                              field="workspace", line=line)
    path = workspace.get("path")
    if "image" in workspace or not isinstance(path, str):
        raise SchemaViolation(
            "workspace needs a directory 'path' (image workspaces are "
            "not supported)", field="workspace", line=line)
    resolved = Path(path)
    if not resolved.is_absolute():
        resolved = base_dir / resolved
    if not resolved.is_dir():
        raise SchemaViolation(
            f"workspace path {str(resolved)!r} is not a directory",
            field="workspace.path", line=line)

    sanitizer_log = obj.get("sanitizer_log")
    if sanitizer_log is not None and not isinstance(sanitizer_log, str):
        raise SchemaViolation("sanitizer_log must be a string",
                              field="sanitizer_log", line=line)
    # read by no stage, but a row in another language is refused
    if obj.get("language", "c") not in ("c", "cpp"):
        raise SchemaViolation(f"unsupported language {obj['language']!r}",
                              field="language", line=line)
    verify_command = obj.get("verify_command")
    if verify_command is not None and not isinstance(verify_command, str):
        raise SchemaViolation("verify_command must be a string",
                              field="verify_command", line=line)

    return IssueInstance(
        instance_id=instance_id,
        issue_report=_field(obj, "issue_report", line),
        repro_command=_field(obj, "repro_command", line),
        workspace_path=str(resolved),
        sanitizer_log=sanitizer_log,
        verify_command=verify_command,
    )


@contextlib.contextmanager
def input_file(kind: str, path: Path | str):
    """path, open to read as text. What goes wrong while it is read is
    a BadInputFile whose message names it as kind: an OSError, a
    ValueError (say, bad JSON) or a SchemaViolation."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except SchemaViolation as exc:
        exc.args = (f"{kind} {path}: {exc}",)
        raise
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # no path twice
        raise BadInputFile(f"{kind} {path}: {reason}") from None


def load_instances(path: Path | str) -> list[IssueInstance]:
    path = Path(path)
    instances = []
    seen = set()
    with input_file("instances file", path) as fh:
        for line_no, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except ValueError as exc:
                raise SchemaViolation(f"invalid JSON on line {line_no}: "
                                      f"{exc}", field="", line=line_no)
            instance = parse_instance(obj, line_no, path.parent)
            if instance.instance_id in seen:
                raise SchemaViolation(
                    f"duplicate instance_id {instance.instance_id!r}",
                    field="instance_id", line=line_no)
            seen.add(instance.instance_id)
            instances.append(instance)
        if not instances:
            raise SchemaViolation("no instances in file", field="", line=0)
    return instances
