"""Model backends: deterministic replay for tests, HTTP for live runs.

Both speak the ChatRequest/ChatResponse shapes and keep a RequestRecord
per call, so tests can assert schedules (stage tags, temperatures) no
matter which backend ran.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..errors import LLMBackendError, ReplayDesync, ScriptExhausted
from ..llm import (ChatRequest, ChatResponse, RequestRecord, ToolCall, Usage,
                   messages_digest)
from .instances import input_file


# the one retry policy for live model calls: after the n-th transient
# failure sleep RETRY_BACKOFF_S[n - 1] seconds and try again, or as many
# seconds as a 429 or 503 answer's Retry-After gives (RFC 9110 10.2.3),
# up to MAX_RETRY_AFTER_S
RETRY_BACKOFF_S = (1.0, 2.0)
MAX_ATTEMPTS = len(RETRY_BACKOFF_S) + 1
MAX_RETRY_AFTER_S = 60.0


def _approx_tokens(char_count: int) -> int:
    return char_count // 4 + 1


class ReplayBackend:
    """Plays back a scripted conversation, verifying the pipeline asks in
    the scripted order.

    The script is JSON: {"entries": [{"expect": "<stage tag>",
    "response": {...}}, ...]} where a response is either
    {"text": "..."} or {"tool": "<name>", "args": {...}} with an optional
    "thought". A request for n choices consumes the next n entries and
    is recorded once, with their usages summed. A tag mismatch or an
    exhausted script is an error naming the step, because a desync means
    the pipeline under test changed. A script of another shape is a
    ValueError here, before any call; load_replay reads a script file.
    """

    def __init__(self, script: dict | list):
        entries = script.get("entries") if isinstance(script, dict) else script
        if not isinstance(entries, list):
            raise ValueError('a replay script is a list of entries, '
                             '{"entries": [...]} or {"instances": {...}}')
        for number, entry in enumerate(entries, 1):
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("response", {}), dict)):
                raise ValueError(f"entry {number} is not an object whose "
                                 f"response is an object")
        self.entries = list(entries)
        self.position = 0
        self.records: list[RequestRecord] = []

    def chat(self, request: ChatRequest) -> ChatResponse:
        # a request for n choices consumes n consecutive entries, each of
        # which must expect the request's stage
        for step in range(self.position, self.position + request.n):
            if step >= len(self.entries):
                raise ScriptExhausted(
                    f"replay script exhausted: stage {request.tag!r} asked "
                    f"for call {step + 1}, script has {len(self.entries)}")
            expect = self.entries[step].get("expect")
            if expect != request.tag:
                raise ReplayDesync(
                    f"replay step {step + 1}: script expects stage "
                    f"{expect!r}, pipeline asked as {request.tag!r}")
        entries = self.entries[self.position:self.position + request.n]
        self.position += request.n

        spec = entries[0].get("response", {})
        usages = [self._usage(entry) for entry in entries]
        usage = Usage(
            input_tokens=sum(u.input_tokens for u in usages),
            output_tokens=sum(u.output_tokens for u in usages))
        more_texts = tuple(entry.get("response", {}).get("text", "")
                           for entry in entries[1:])
        tool_call = (ToolCall(name=spec["tool"], args=spec.get("args", {}))
                     if "tool" in spec else None)
        response = ChatResponse(
            text=None if tool_call else spec.get("text", ""),
            tool_call=tool_call, thought=spec.get("thought"),
            usage=usage, model="replay", more_texts=more_texts)
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


def load_replay(path: Path | str, instance_ids):
    """The replay backend of each instance of a run, from the script
    file at path: instance id -> a ReplayBackend of its own.

    A script is one conversation that every instance replays from its
    start, a list of entries or {"entries": [...]}, or one per instance,
    {"instances": {"<id>": {"entries": [...]}}}, which must hold every
    one of instance_ids. The whole script is checked here, before any
    call; a problem is a BadInputFile naming the file.
    """
    with input_file("replay script", path) as fh:
        script = json.load(fh)
        if not (isinstance(script, dict) and "instances" in script):
            ReplayBackend(script)  # checked once, before any call
            return lambda instance_id: ReplayBackend(script)
        per_instance = script["instances"]
        if not isinstance(per_instance, dict):
            raise ValueError('"instances" is not an object')
        missing = [i for i in instance_ids if i not in per_instance]
        if missing:
            raise ValueError("no entries for instance "
                             + ", ".join(map(repr, missing)))
        backends = {}
        for instance_id, entries in per_instance.items():
            try:
                backends[instance_id] = ReplayBackend(entries)
            except ValueError as exc:
                raise ValueError(f"instance {instance_id!r}: {exc}")
    return backends.__getitem__


def _usage(body: dict) -> Usage:
    """An answer's token counts. A missing or null count counts 0; any
    other that is not a non-negative int is a ValueError."""
    usage = body.get("usage") or {}
    if not isinstance(usage, dict):
        raise ValueError(f"usage is {usage!r:.100}")
    counts = []
    for key in ("prompt_tokens", "completion_tokens"):
        count = usage.get(key)
        if count is None:
            count = 0
        elif isinstance(count, bool) or not isinstance(count, int) \
                or count < 0:
            raise ValueError(f"{key} is {count!r:.100}")
        counts.append(count)
    return Usage(input_tokens=counts[0], output_tokens=counts[1])


def _tool_call(message: dict) -> ToolCall | None:
    """The first tool call of a choice's message, if it has one.
    Arguments that are not a JSON object become empty."""
    calls = message.get("tool_calls") or []
    if not calls:
        return None
    try:
        fn = calls[0]["function"]
        name, arguments = fn["name"], fn.get("arguments")
        if not isinstance(name, str):
            raise TypeError(f"tool name is {name!r:.100}")
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise LLMBackendError(f"malformed response: tool call: {exc!r}")
    try:
        args = json.loads(arguments or "{}")
    except (ValueError, TypeError):
        args = {}
    return ToolCall(name=name, args=args if isinstance(args, dict) else {})


def _retry_after(status: int, headers) -> float | None:
    value = (headers.get("Retry-After") or "").strip()
    if status in (429, 503) and value.isascii() and value.isdigit():
        return min(float(value), MAX_RETRY_AFTER_S)
    return None  # an HTTP-date or a malformed value too


class _Refused(LLMBackendError):
    """A 4xx other than 429: the server will not answer this payload."""


class HttpChatBackend:
    """OpenAI-compatible chat-completions client.

    Network problems and 429/5xx answers are transient: the call is
    tried up to MAX_ATTEMPTS times with backoff or Retry-After, then fails.
    Other HTTP failures and malformed bodies fail at once. Only an
    answered POST keeps a RequestRecord, so retries cost nothing in
    cost.json. A request for n > 1 choices sends `n`; when the server
    answers with fewer choices, the rest are asked for in further POSTs,
    and when it refuses `n` with a client error, one choice per POST.
    Tool definitions and calls map onto the provider's function-call
    shape.
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

    def _post(self, payload: dict) -> tuple[dict, Usage, list[dict]]:
        """One answered POST, through the retry policy: the parsed body,
        its token counts and its choices' messages, at least one."""
        # imported here: http.client, ssl and email would otherwise load
        # into every replay run
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(payload).encode(), headers=headers)
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(RETRY_BACKOFF_S[attempt - 1] if asked is None
                           else asked)
            asked = None  # the wait this answer asks for, if any
            # urlopen raises HTTPError for every status but 2xx, and a
            # dropped connection as RemoteDisconnected, unwrapped
            try:
                try:
                    with urllib.request.urlopen(
                            request, timeout=self.timeout) as answer:
                        status, raw = answer.status, answer.read()
                except urllib.error.HTTPError as exc:
                    status, raw = exc.code, exc.read()
                    asked = _retry_after(status, exc.headers)
            except (OSError, http.client.HTTPException) as exc:
                failure = f"request failed: {exc}"
                continue
            if status == 429 or status >= 500:
                failure = f"HTTP {status}"
                continue
            break
        else:
            raise LLMBackendError(
                f"{failure} (after {MAX_ATTEMPTS} attempts)")
        if status != 200:
            error = _Refused if 400 <= status < 500 else LLMBackendError
            text = raw.decode("utf-8", errors="replace")
            raise error(f"HTTP {status}: {text[:300]}")
        try:
            body = json.loads(raw)
            choices = [c["message"] for c in body["choices"]]
            for message in choices:
                if not isinstance(message, dict):
                    raise TypeError("a choice's message is not an object")
                if not isinstance(message.get("content"), (str, type(None))):
                    raise TypeError("a choice's content is not a string")
            usage = _usage(body)
        except (ValueError, KeyError, TypeError) as exc:
            raise LLMBackendError(f"malformed response: {exc}")
        if not choices:
            raise LLMBackendError("malformed response: no choices")
        return body, usage, choices

    def chat(self, request: ChatRequest) -> ChatResponse:
        payload = self._payload(request)
        choices: list[dict] = []
        input_tokens = output_tokens = 0
        model = None
        send_n = True
        # some OpenAI-compatible servers ignore n and answer with fewer
        # choices, others refuse any n but 1; ask again for the rest, one
        # choice a post after a refusal. Every answered body holds at
        # least one choice, so this takes at most n + 1 posts.
        while len(choices) < request.n:
            missing = request.n - len(choices)
            if send_n and missing > 1:
                try:
                    body, usage, answered = self._post(
                        {**payload, "n": missing})
                except _Refused:
                    send_n = False
                    continue
            else:
                body, usage, answered = self._post(payload)
            choices += answered
            input_tokens += usage.input_tokens
            output_tokens += usage.output_tokens
            model = model or str(body.get("model", self.model))
            self.records.append(RequestRecord(
                tag=request.tag, temperature=request.temperature,
                messages_sha256=messages_digest(request.messages),
                model=model, usage=usage))
        choices = choices[:request.n]

        return ChatResponse(
            text=choices[0].get("content"), tool_call=_tool_call(choices[0]),
            usage=Usage(input_tokens=input_tokens,
                        output_tokens=output_tokens),
            model=model,
            more_texts=tuple(c.get("content") for c in choices[1:]))
