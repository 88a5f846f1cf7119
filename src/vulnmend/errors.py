"""Exception types shared across the package.

Tool-facing operations raise these instead of returning sentinel values;
agent loops catch most of them and surface the message as an observation
so a bad tool call never kills a run.
"""

from __future__ import annotations

import os


class VulnmendError(Exception):
    """Base class for every error this package raises on purpose."""


# --- repository model ---------------------------------------------------


class ParseFailure(VulnmendError):
    """A source file could not be scanned for elements."""


class ElementNotFound(VulnmendError):
    pass


# --- edit engine ----------------------------------------------------------


class MalformedBlock(VulnmendError):
    """A SEARCH/REPLACE block violates the grammar.

    Carries the byte offset of the offending block so the caller can point
    at it in the raw text.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class SearchTextNotFound(VulnmendError):
    pass


class SearchTextAmbiguous(VulnmendError):
    pass


class NoChanges(VulnmendError):
    pass


class EmptyHistory(VulnmendError):
    pass


# --- symbol analysis ------------------------------------------------------


class NoMarkersFound(VulnmendError):
    pass


# --- execution ------------------------------------------------------------


class SandboxUnavailable(VulnmendError):
    pass


class UnknownLogName(VulnmendError):
    pass


class GitUnavailable(VulnmendError, FileNotFoundError):
    """No `git` on PATH: a fault of the machine that would fail every
    instance alike."""


class NoRunDirectory(VulnmendError, FileNotFoundError):
    """The run directory is missing (evaluate, report) or unwritable (run)."""


# --- agents ---------------------------------------------------------------


class LLMBackendError(VulnmendError):
    """Backend failed to produce a response, after any retries."""


class MaxStepsExceededWithoutReport(VulnmendError):
    pass


class ReportParseFailure(VulnmendError):
    pass


# --- localization ---------------------------------------------------------


class JSONParseFailure(VulnmendError):
    pass


# --- harness --------------------------------------------------------------


class BadInputFile(VulnmendError):
    """A file named on the command line (instances, config or replay
    script) is not there, cannot be read or holds the wrong thing. The
    message names the file."""


class SchemaViolation(BadInputFile):
    def __init__(self, message: str, field: str = "", line: int = 0):
        detail = message
        if field:
            detail += f" (field {field!r}"
            detail += f", line {line})" if line else ")"
        super().__init__(detail)
        self.field = field
        self.line = line


class ReplayDesync(VulnmendError):
    pass


class ScriptExhausted(VulnmendError):
    pass


def describe_error(exc: BaseException, roots: dict) -> str:
    """`Type: message` for an error record that contains no absolute path.

    roots maps each directory to the relative name it stands for, ""
    for the directory that records are relative to. A quoted path at or
    under one of them (OSError quotes the files it names) is rewritten,
    so a record does not depend on where a run or its inputs live.
    """
    return f"{type(exc).__name__}: {placeless_message(exc, roots)}"


def placeless_message(exc: BaseException, roots: dict) -> str:
    """The message of exc, with paths under roots rewritten as
    describe_error does."""
    text = str(exc)
    for root, name in sorted(((os.fspath(r), n) for r, n in roots.items()),
                             key=lambda item: -len(item[0])):
        for q in "'\"":
            text = text.replace(f"{q}{root}/", f"{q}{name}/" if name else q)
            text = text.replace(f"{q}{root}{q}", f"{q}{name or '.'}{q}")
    return text
