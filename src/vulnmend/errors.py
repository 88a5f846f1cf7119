"""Exception types shared across the package.

Tool-facing operations raise these instead of returning sentinel values;
agent loops catch most of them and surface the message as an observation
so a bad tool call never kills a run.
"""

from __future__ import annotations


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


class WriteFailure(VulnmendError):
    pass


# --- agents ---------------------------------------------------------------


class LLMBackendError(VulnmendError):
    """Backend failed to produce a response.

    ``retryable`` tells the agent loop whether another attempt makes sense.
    """

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class MaxStepsExceededWithoutReport(VulnmendError):
    pass


class ReportParseFailure(VulnmendError):
    pass


# --- localization ---------------------------------------------------------


class JSONParseFailure(VulnmendError):
    pass


# --- harness --------------------------------------------------------------


class SchemaViolation(VulnmendError):
    def __init__(self, message: str, field: str = "", line: int = 0):
        detail = message
        if field:
            detail += f" (field {field!r}"
            detail += f", line {line})" if line else ")"
        super().__init__(detail)
        self.field = field
        self.line = line


class VerifierFailure(VulnmendError):
    pass


class ReplayDesync(VulnmendError):
    pass


class ScriptExhausted(VulnmendError):
    pass
