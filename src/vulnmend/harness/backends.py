"""Model backends: deterministic replay for tests, HTTP for live runs.

Both speak the ChatRequest/ChatResponse shapes and keep a RequestRecord
per call, so tests can assert schedules (stage tags, temperatures) no
matter which backend ran.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import LLMBackendError, ReplayDesync, ScriptExhausted
from ..llm import (ChatRequest, ChatResponse, RequestRecord, ToolCall, Usage,
                   messages_digest)


def _approx_tokens(char_count: int) -> int:
    return char_count // 4 + 1


class ReplayBackend:
    """Plays back a scripted conversation, verifying the pipeline asks in
    the scripted order.

    The script is JSON: {"entries": [{"expect": "<stage tag>",
    "response": {...}}, ...]} where a response is either
    {"text": "..."} or {"tool": "<name>", "args": {...}} with an optional
    "thought". A tag mismatch or an exhausted script is an error naming
    the step, because a desync means the pipeline under test changed.
    A multi-instance script {"instances": {"<id>": {"entries": [...]}}}
    holds one such script per instance; pass one of them.
    """

    def __init__(self, script: dict | list):
        if isinstance(script, dict) and "instances" in script:
            raise ValueError(
                "replay script is in the per-instance form "
                '{"instances": {...}} with instances '
                f"{', '.join(sorted(script['instances']))}; build one "
                "ReplayBackend per instance from "
                'script["instances"][<id>]')
        entries = script["entries"] if isinstance(script, dict) else script
        self.entries = list(entries)
        self.position = 0
        self.records: list[RequestRecord] = []

    @classmethod
    def from_file(cls, path: Path | str) -> "ReplayBackend":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def chat(self, request: ChatRequest) -> ChatResponse:
        if self.position >= len(self.entries):
            raise ScriptExhausted(
                f"replay script exhausted: stage {request.tag!r} asked for "
                f"call {self.position + 1}, script has {len(self.entries)}")
        entry = self.entries[self.position]
        expect = entry.get("expect")
        if expect != request.tag:
            raise ReplayDesync(
                f"replay step {self.position + 1}: script expects stage "
                f"{expect!r}, pipeline asked as {request.tag!r}")
        self.position += 1

        spec = entry.get("response", {})
        usage = self._usage(entry)
        if "tool" in spec:
            response = ChatResponse(
                tool_call=ToolCall(name=spec["tool"],
                                   args=spec.get("args", {})),
                thought=spec.get("thought"),
                usage=usage, model="replay")
        else:
            response = ChatResponse(
                text=spec.get("text", ""), thought=spec.get("thought"),
                usage=usage, model="replay")
        self.records.append(RequestRecord(
            tag=request.tag, temperature=request.temperature,
            messages_sha256=messages_digest(request.messages),
            model="replay", usage=response.usage))
        return response

    def _usage(self, entry: dict) -> Usage:
        # token counts derive from the script alone, never from live
        # message content, so replayed runs cost identically every time
        spec = entry.get("response", {})
        out_text = spec.get("text") or json.dumps(
            {"tool": spec.get("tool"), "args": spec.get("args", {})},
            sort_keys=True)
        in_blob = json.dumps(entry, sort_keys=True)
        return Usage(input_tokens=_approx_tokens(len(in_blob)),
                     output_tokens=_approx_tokens(len(out_text)))


class HttpChatBackend:
    """OpenAI-compatible chat-completions client.

    Network problems and 429/5xx answers raise retryable errors; other
    HTTP failures are permanent. Tool definitions and calls map onto the
    provider's function-call shape.
    """

    def __init__(self, base_url: str, model: str, api_key: str = "",
                 timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.records: list[RequestRecord] = []

    def _payload(self, request: ChatRequest) -> dict:
        messages = []
        for m in request.messages:
            role = m.get("role")
            if role == "assistant" and "tool_call" in m:
                call = m["tool_call"]
                messages.append({
                    "role": "assistant",
                    "content": m.get("content") or None,
                    "tool_calls": [{
                        "id": f"call_{len(messages)}",
                        "type": "function",
                        "function": {
                            "name": call["name"],
                            "arguments": json.dumps(call["args"]),
                        },
                    }],
                })
            elif role == "tool":
                messages.append({
                    "role": "tool",
                    "tool_call_id": f"call_{len(messages) - 1}",
                    "content": m.get("content", ""),
                })
            else:
                messages.append({"role": role,
                                 "content": m.get("content", "")})
        payload = {"model": self.model, "messages": messages,
                   "temperature": request.temperature}
        if request.tools:
            payload["tools"] = [{"type": "function", "function": schema}
                                for schema in request.tools]
        return payload

    def chat(self, request: ChatRequest) -> ChatResponse:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            http = requests.post(
                f"{self.base_url}/chat/completions",
                json=self._payload(request), headers=headers,
                timeout=self.timeout)
        except requests.RequestException as exc:
            raise LLMBackendError(f"request failed: {exc}", retryable=True)
        if http.status_code == 429 or http.status_code >= 500:
            raise LLMBackendError(f"HTTP {http.status_code}",
                                  retryable=True)
        if http.status_code != 200:
            raise LLMBackendError(
                f"HTTP {http.status_code}: {http.text[:300]}",
                retryable=False)

        try:
            body = http.json()
            choice = body["choices"][0]["message"]
        except (ValueError, KeyError, IndexError) as exc:
            raise LLMBackendError(f"malformed response: {exc}",
                                  retryable=False)
        usage_raw = body.get("usage") or {}
        usage = Usage(input_tokens=int(usage_raw.get("prompt_tokens", 0)),
                      output_tokens=int(
                          usage_raw.get("completion_tokens", 0)))

        tool_call = None
        calls = choice.get("tool_calls") or []
        if calls:
            fn = calls[0]["function"]
            try:
                args = json.loads(fn.get("arguments") or "{}")
            except ValueError:
                args = {}
            tool_call = ToolCall(name=fn["name"], args=args)
        response = ChatResponse(
            text=choice.get("content"), tool_call=tool_call,
            usage=usage, model=str(body.get("model", self.model)))
        self.records.append(RequestRecord(
            tag=request.tag, temperature=request.temperature,
            messages_sha256=messages_digest(request.messages),
            model=response.model, usage=usage))
        return response
