"""Backend-neutral chat types.

Every model interaction in the package goes through one `chat` call shape
so that a live HTTP backend and the deterministic replay backend are
interchangeable. Requests carry a caller tag naming the pipeline stage;
replay scripts key on it, cost accounting groups by it. A request may
ask for n independent choices of the same prompt; one response carries
them all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Protocol


@dataclass(frozen=True)
class ToolCall:
    name: str
    args: dict


@dataclass(frozen=True)
class Usage:
    input_tokens: int = 0
    output_tokens: int = 0


@dataclass(frozen=True)
class ChatRequest:
    tag: str                      # pipeline stage / agent name
    messages: tuple               # ({"role": ..., "content": ...}, ...)
    tools: tuple = ()             # tool schema dicts, may be empty
    temperature: float = 0.0
    n: int = 1                    # independent choices to sample


@dataclass(frozen=True)
class ChatResponse:
    text: str | None = None       # the first choice
    tool_call: ToolCall | None = None
    thought: str | None = None
    usage: Usage = field(default_factory=Usage)
    model: str = ""
    more_texts: tuple = ()        # choices 2..n of a request for n > 1

    @property
    def texts(self) -> tuple:
        """Every choice's text, in the order the choices came back."""
        return (self.text, *self.more_texts)


class LLMBackend(Protocol):
    def chat(self, request: ChatRequest) -> ChatResponse: ...


def messages_digest(messages) -> str:
    """Stable fingerprint of a message list, for request logging."""
    blob = json.dumps(list(messages), sort_keys=True, ensure_ascii=True,
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class RequestRecord:
    """What a backend saw for one call: enough to assert schedules."""

    tag: str
    temperature: float
    messages_sha256: str
    model: str
    usage: Usage
