"""Harness layer: instance schema, config variants, backends, telemetry,
metrics and the command line."""

import dataclasses
import hashlib
import json
import re
import shutil
import subprocess
import tempfile
import time
from collections import Counter
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests
from replay_scripts import build_entries

import vulnmend.harness.pipeline as pipeline
import vulnmend.repo_model as repo_model
from vulnmend.agents.react import Step, Transcript
from vulnmend.edit_engine import (EditHistory, parse_edit_blocks,
                                  to_unified_diff)
from vulnmend.errors import (LLMBackendError, ReplayDesync, SchemaViolation,
                             ScriptExhausted)
from vulnmend.execution import LocalSandbox, PocRunner
from vulnmend.harness.backends import HttpChatBackend, ReplayBackend
from vulnmend.harness.cli import _backend_factory, _load_config, main
from vulnmend.harness.config import VARIANTS, RunConfig, variant
from vulnmend.harness.instances import (IssueInstance, load_instances,
                                        parse_instance)
from vulnmend.harness.metrics import (Metrics, cost_of_records, evaluate_run,
                                      verify_prediction)
from vulnmend.harness.pipeline import run_all, run_instance
from vulnmend.harness.telemetry import (classify_script,
                                        classify_script_calls,
                                        transcript_summary)
from vulnmend.llm import ChatRequest, RequestRecord, Usage
from vulnmend.repair import (CandidatePatch, PatchContext, generate_patches,
                             validate_candidate)

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="gcc not available")


# --- instances ------------------------------------------------------------


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row))
            fh.write("\n")


def _row(**overrides):
    row = {
        "instance_id": "mini-1",
        "issue_report": "crash on long input",
        "repro_command": "sh secb.sh",
        "workspace": {"path": "ws"},
    }
    row.update(overrides)
    return row


@pytest.fixture
def instances_file(tmp_path):
    (tmp_path / "ws").mkdir()

    def write(rows):
        path = tmp_path / "instances.jsonl"
        _write_jsonl(path, rows)
        return path
    return write


def test_load_bundled_instances(fixtures_dir):
    instances = load_instances(fixtures_dir / "instances.jsonl")
    assert len(instances) == 1
    inst = instances[0]
    assert inst.instance_id == "namecache-obo-1"
    assert inst.language == "c"
    assert inst.repro_command == "sh secb.sh"
    assert inst.verify_command is None
    assert "AddressSanitizer" in inst.sanitizer_log
    assert inst.workspace_path == str(fixtures_dir / "crepo")


def test_relative_workspace_resolves_against_file_dir(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "ws").mkdir()
    path = sub / "instances.jsonl"
    _write_jsonl(path, [_row()])
    inst = load_instances(path)[0]
    assert inst.workspace_path == str(sub / "ws")


def test_absolute_workspace_kept_verbatim(tmp_path, instances_file):
    absolute = tmp_path / "ws"
    path = instances_file([_row(workspace={"path": str(absolute)})])
    assert load_instances(path)[0].workspace_path == str(absolute)


@pytest.mark.parametrize("mutation, field", [
    (dict(instance_id=None), "instance_id"),
    (dict(instance_id="   "), "instance_id"),
    (dict(instance_id="has space"), "instance_id"),
    (dict(instance_id=7), "instance_id"),
    (dict(issue_report=""), "issue_report"),
    (dict(repro_command=None), "repro_command"),
    (dict(workspace=None), "workspace"),
    (dict(workspace="ws"), "workspace"),
    (dict(workspace={}), "workspace"),
    (dict(workspace={"path": "ws", "image": "x"}), "workspace"),
    (dict(workspace={"path": "no-such-dir"}), "workspace.path"),
    (dict(language="rust"), "language"),
    (dict(sanitizer_log=42), "sanitizer_log"),
    (dict(verify_command=3.5), "verify_command"),
    # image workspaces were never runnable; they are refused at load time
    (dict(workspace={"image": "repro:latest"}), "workspace"),
])
def test_schema_violations_name_field_and_line(instances_file, mutation,
                                               field):
    row = _row(**{k: v for k, v in mutation.items() if v is not None})
    for key, value in mutation.items():
        if value is None:
            row.pop(key, None)
    path = instances_file([row])
    with pytest.raises(SchemaViolation) as excinfo:
        load_instances(path)
    assert excinfo.value.field == field
    assert excinfo.value.line == 1


def test_non_object_line_rejected(tmp_path):
    with pytest.raises(SchemaViolation, match="JSON object"):
        parse_instance(["not", "a", "dict"], line=4, base_dir=tmp_path)


def test_blank_lines_skipped_and_line_numbers_physical(instances_file):
    path = instances_file([
        _row(),
        "",
        "this is not json",
    ])
    with pytest.raises(SchemaViolation, match="invalid JSON") as excinfo:
        load_instances(path)
    assert excinfo.value.line == 3


def test_duplicate_instance_id_rejected(instances_file):
    path = instances_file([_row(), _row()])
    with pytest.raises(SchemaViolation, match="duplicate") as excinfo:
        load_instances(path)
    assert excinfo.value.line == 2


def test_empty_file_rejected(instances_file):
    path = instances_file([])
    with pytest.raises(SchemaViolation, match="no instances") as excinfo:
        load_instances(path)
    assert excinfo.value.line == 0


# --- config ---------------------------------------------------------------


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.top_files == 3
    assert cfg.context_margin == 10
    assert cfg.candidates == 5
    assert cfg.chunk_lines == 512
    assert cfg.element_limit == 10
    assert cfg.enable_cpc and cfg.enable_spa
    assert cfg.enhance_stages == ("localization", "generation")
    assert cfg.selection_strategy == "poc_voting"
    assert cfg.input_type == "issue_report"
    assert cfg.cpc_max_steps == 25
    assert cfg.spa_max_steps == 40
    assert cfg.log_head_lines == cfg.log_tail_lines == 100
    assert cfg.script_output_cap == 8192
    assert cfg.poc_timeout == 300.0
    assert cfg.keep_workspaces is False
    assert cfg.price_input_per_mtok == "3.00"
    assert cfg.price_output_per_mtok == "15.00"
    assert cfg.validate() is cfg


@pytest.mark.parametrize("overrides, message", [
    (dict(top_files=0), "top_files must be >= 1"),
    (dict(spa_max_steps=-2), "spa_max_steps must be >= 1"),
    (dict(poc_timeout=0.0), "poc_timeout must be positive"),
    (dict(selection_strategy="ranked"), "selection_strategy"),
    (dict(input_type="stack_trace"), "input_type"),
    (dict(enhance_stages=("repair",)), "subset"),
    (dict(enhance_stages=("generation", "generation")), "duplicates"),
    (dict(price_output_per_mtok="fifteen"), "not a decimal number"),
])
def test_config_validation_errors(overrides, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**overrides).validate()


def test_config_round_trips_through_dict(tmp_path):
    cfg = RunConfig(candidates=2, enhance_stages=("generation",),
                    keep_workspaces=True)
    data = cfg.to_dict()
    assert data["enhance_stages"] == ["generation"]
    assert RunConfig.from_dict(data) == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert RunConfig.from_file(path) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"candidates": 3, "zap": 1})


def test_all_variants_distinct_and_valid():
    configs = {name: variant(name) for name in VARIANTS}
    assert len(configs) == 8
    blobs = {json.dumps(cfg.to_dict(), sort_keys=True)
             for cfg in configs.values()}
    assert len(blobs) == 8
    assert configs["full"] == RunConfig()


def test_variant_deltas():
    base = variant("base")
    assert (base.enable_cpc, base.enable_spa) == (False, False)
    assert base.enhance_stages == ()
    cpc = variant("cpc")
    assert (cpc.enable_cpc, cpc.enable_spa) == (True, False)
    assert cpc.enhance_stages == ("localization", "generation")
    spa = variant("spa")
    assert (spa.enable_cpc, spa.enable_spa) == (False, True)
    assert variant("enhanceVulnLoc").enhance_stages == ("localization",)
    assert variant("enhancePatchGen").enhance_stages == ("generation",)
    assert variant("simpleVoting").selection_strategy == "simple_voting"
    assert variant("sanitizer").input_type == "sanitizer_log"


def test_variant_on_custom_base_keeps_other_fields():
    custom = RunConfig(candidates=7)
    cfg = variant("simpleVoting", base=custom)
    assert cfg.candidates == 7
    assert cfg.selection_strategy == "simple_voting"


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        variant("turbo")


# --- replay backend -------------------------------------------------------


def _request(tag, content="hello", temperature=0.0):
    return ChatRequest(tag=tag, messages=({"role": "user",
                                           "content": content},),
                       temperature=temperature)


def test_replay_plays_text_and_tool_entries():
    backend = ReplayBackend({"entries": [
        {"expect": "cpc",
         "response": {"tool": "read_code", "args": {"file": "a.c"},
                      "thought": "look"}},
        {"expect": "cpc", "response": {"text": "### Insights\ndone"}},
    ]})
    first = backend.chat(_request("cpc"))
    assert first.tool_call.name == "read_code"
    assert first.tool_call.args == {"file": "a.c"}
    assert first.thought == "look"
    assert first.model == "replay"
    second = backend.chat(_request("cpc"))
    assert second.text == "### Insights\ndone"
    assert second.tool_call is None


def test_replay_accepts_bare_entry_list():
    backend = ReplayBackend([{"expect": "x", "response": {"text": "y"}}])
    assert backend.chat(_request("x")).text == "y"


def test_replay_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(
        {"entries": [{"expect": "x", "response": {"text": "y"}}]}))
    assert ReplayBackend.from_file(path).chat(_request("x")).text == "y"


def test_replay_rejects_per_instance_script(fixtures_dir):
    with pytest.raises(ValueError, match=r'"instances".*namecache-obo-1'):
        ReplayBackend.from_file(fixtures_dir / "replays" / "full.json")


def test_replay_desync_names_both_stages():
    backend = ReplayBackend([{"expect": "cpc", "response": {"text": "y"}}])
    with pytest.raises(ReplayDesync) as excinfo:
        backend.chat(_request("generate"))
    assert str(excinfo.value) == ("replay step 1: script expects stage "
                                  "'cpc', pipeline asked as 'generate'")


def test_replay_exhaustion_names_the_overrun():
    backend = ReplayBackend([{"expect": "cpc", "response": {"text": "y"}}])
    backend.chat(_request("cpc"))
    with pytest.raises(ScriptExhausted) as excinfo:
        backend.chat(_request("cpc"))
    assert str(excinfo.value) == ("replay script exhausted: stage 'cpc' "
                                  "asked for call 2, script has 1")


def test_replay_records_schedule():
    backend = ReplayBackend([
        {"expect": "a", "response": {"text": "1"}},
        {"expect": "b", "response": {"text": "2"}},
    ])
    backend.chat(_request("a", temperature=0.0))
    backend.chat(_request("b", content="other", temperature=1.0))
    assert [r.tag for r in backend.records] == ["a", "b"]
    assert [r.temperature for r in backend.records] == [0.0, 1.0]
    for record in backend.records:
        assert record.model == "replay"
        assert len(record.messages_sha256) == 64
        assert record.usage.input_tokens >= 1
        assert record.usage.output_tokens >= 1


def test_replay_usage_ignores_live_message_content():
    # replayed runs must cost identically even when transcripts carry
    # volatile text like sanitizer PIDs
    entries = [{"expect": "spa", "response": {"text": "report"}}]
    usages = []
    for content in ("==1234==ERROR", "==999999==ERROR and much more text"):
        backend = ReplayBackend(list(entries))
        backend.chat(_request("spa", content=content))
        usages.append(backend.records[0].usage)
    assert usages[0] == usages[1]


def _n_request(tag, n, temperature=1.0):
    return dataclasses.replace(_request(tag, temperature=temperature), n=n)


def test_replay_n_request_consumes_n_entries():
    entries = [{"expect": "generate", "response": {"text": f"s{k}"}}
               for k in range(4)] + [{"expect": "x", "response": {}}]
    backend = ReplayBackend(list(entries))
    response = backend.chat(_n_request("generate", 4))
    assert response.texts == ("s0", "s1", "s2", "s3")
    assert backend.position == 4
    # one request, one record, costed as the four entries it consumed
    (record,) = backend.records
    singles = ReplayBackend(list(entries))
    for _ in range(4):
        singles.chat(_request("generate", temperature=1.0))
    assert record.usage == Usage(
        input_tokens=sum(r.usage.input_tokens for r in singles.records),
        output_tokens=sum(r.usage.output_tokens for r in singles.records))


def test_replay_n_request_desyncs_on_any_foreign_entry():
    backend = ReplayBackend([
        {"expect": "generate", "response": {"text": "s0"}},
        {"expect": "generate", "response": {"text": "s1"}},
        {"expect": "localize_files", "response": {"text": "[]"}},
        {"expect": "generate", "response": {"text": "s3"}},
    ])
    with pytest.raises(ReplayDesync) as excinfo:
        backend.chat(_n_request("generate", 4))
    assert str(excinfo.value) == (
        "replay step 3: script expects stage 'localize_files', pipeline "
        "asked as 'generate'")
    assert backend.position == 0 and backend.records == []


def test_replay_n_request_past_the_end_is_exhaustion():
    backend = ReplayBackend([{"expect": "generate",
                              "response": {"text": "s0"}}] * 2)
    with pytest.raises(ScriptExhausted) as excinfo:
        backend.chat(_n_request("generate", 3))
    assert str(excinfo.value) == ("replay script exhausted: stage "
                                  "'generate' asked for call 3, script "
                                  "has 2")


# --- http backend ---------------------------------------------------------


class _Response:
    def __init__(self, status_code=200, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("no json")
        return self._body


def test_http_payload_maps_tool_traffic():
    backend = HttpChatBackend(base_url="http://api.test/v1", model="m")
    request = ChatRequest(
        tag="spa",
        messages=(
            {"role": "system", "content": "be careful"},
            {"role": "user", "content": "fix it"},
            {"role": "assistant", "content": "",
             "tool_call": {"name": "run_poc", "args": {"unique_name": "b"}}},
            {"role": "tool", "name": "run_poc", "content": "exit 1"},
        ),
        tools=({"name": "run_poc", "parameters": {"type": "object"}},),
        temperature=0.5)
    payload = backend._payload(request)
    assert payload["model"] == "m"
    assert payload["temperature"] == 0.5
    assistant = payload["messages"][2]
    assert assistant["content"] is None
    call = assistant["tool_calls"][0]
    assert call["id"] == "call_2"
    assert call["type"] == "function"
    assert call["function"]["name"] == "run_poc"
    assert json.loads(call["function"]["arguments"]) == {"unique_name": "b"}
    tool_msg = payload["messages"][3]
    assert tool_msg == {"role": "tool", "tool_call_id": "call_2",
                        "content": "exit 1"}
    assert payload["tools"] == [{"type": "function",
                                 "function": {"name": "run_poc",
                                              "parameters":
                                              {"type": "object"}}}]


def test_http_payload_plain_messages_untouched():
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    payload = backend._payload(_request("x", content="hi"))
    assert payload["messages"] == [{"role": "user", "content": "hi"}]
    assert "tools" not in payload


def test_http_success_parses_content_and_tool_call(monkeypatch):
    posted = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        posted["url"] = url
        posted["headers"] = headers
        return _Response(body={
            "model": "m-live",
            "choices": [{"message": {
                "content": "thinking",
                "tool_calls": [{"function": {
                    "name": "probe", "arguments": "{\"x\": 1}"}}],
            }}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 3},
        })

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpChatBackend(base_url="http://api.test/v1/", model="m",
                              api_key="sk-test")
    response = backend.chat(_request("spa"))
    assert posted["url"] == "http://api.test/v1/chat/completions"
    assert posted["headers"]["Authorization"] == "Bearer sk-test"
    assert response.text == "thinking"
    assert response.tool_call.name == "probe"
    assert response.tool_call.args == {"x": 1}
    assert response.usage == Usage(input_tokens=7, output_tokens=3)
    assert response.model == "m-live"
    assert len(backend.records) == 1
    assert backend.records[0].tag == "spa"
    assert backend.records[0].model == "m-live"


def test_http_unparseable_tool_arguments_become_empty(monkeypatch):
    monkeypatch.setattr(requests, "post", lambda *a, **k: _Response(body={
        "choices": [{"message": {
            "content": None,
            "tool_calls": [{"function": {"name": "probe",
                                         "arguments": "{broken"}}],
        }}]}))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    response = backend.chat(_request("x"))
    assert response.tool_call.args == {}


_OK = {"choices": [{"message": {"content": "done"}}],
       "usage": {"prompt_tokens": 5, "completion_tokens": 2}}


def _serve(monkeypatch, *outcomes):
    """Answer successive posts with outcomes (an exception is raised);
    returns the posts made and the sleeps taken."""
    posts, sleeps = [], []
    pending = list(outcomes)

    def fake_post(*args, **kwargs):
        posts.append(kwargs)
        outcome = pending.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return posts, sleeps


_TRANSIENT = [_Response(status_code=429), _Response(status_code=500),
              _Response(status_code=503),
              requests.ConnectionError("connection reset")]


@pytest.mark.parametrize("transient", _TRANSIENT,
                         ids=["429", "500", "503", "network"])
def test_http_transient_failures_are_retried_with_backoff(monkeypatch,
                                                          transient):
    posts, sleeps = _serve(monkeypatch, transient, transient,
                           _Response(body=_OK))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    response = backend.chat(_request("generate"))
    assert response.text == "done"
    assert len(posts) == 3
    assert sleeps == [1.0, 2.0]
    # only the answered call is recorded, so cost.json counts no retries
    assert len(backend.records) == 1
    assert backend.records[0].usage == Usage(input_tokens=5,
                                             output_tokens=2)


@pytest.mark.parametrize("status", [429, 500, 503])
def test_http_throttling_and_server_errors_retryable(monkeypatch, status):
    posts, sleeps = _serve(monkeypatch, *[_Response(status_code=status)] * 4)
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    with pytest.raises(LLMBackendError, match=f"HTTP {status}"):
        backend.chat(_request("x"))
    assert len(posts) == 3
    assert sleeps == [1.0, 2.0]
    assert backend.records == []


def test_http_client_error_permanent(monkeypatch):
    posts, sleeps = _serve(monkeypatch,
                           _Response(status_code=404, text="nope"),
                           _Response(body=_OK))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    with pytest.raises(LLMBackendError, match="HTTP 404"):
        backend.chat(_request("x"))
    assert len(posts) == 1
    assert sleeps == []


def test_http_network_failure_retryable(monkeypatch):
    posts, sleeps = _serve(
        monkeypatch, *[requests.RequestException("connection reset")] * 4)
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    with pytest.raises(LLMBackendError, match="request failed"):
        backend.chat(_request("x"))
    assert len(posts) == 3
    assert sleeps == [1.0, 2.0]


def test_http_malformed_body_permanent(monkeypatch):
    posts, sleeps = _serve(monkeypatch, _Response(body={"unexpected": 1}),
                           _Response(body=_OK))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    with pytest.raises(LLMBackendError, match="malformed"):
        backend.chat(_request("x"))
    assert len(posts) == 1
    assert sleeps == []
    assert backend.records == []


def _choices(*texts, prompt_tokens=5, completion_tokens=2):
    return _Response(body={
        "choices": [{"message": {"content": t}} for t in texts],
        "usage": {"prompt_tokens": prompt_tokens,
                  "completion_tokens": completion_tokens}})


def test_http_sends_n_and_tops_up_a_short_answer(monkeypatch):
    # a server that ignores n answers with one choice; the rest are asked
    # for until all four are in
    posts, sleeps = _serve(monkeypatch, _choices("a"), _choices("b", "c"),
                           _choices("d"))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    response = backend.chat(_n_request("generate", 4))
    assert [p["json"].get("n") for p in posts] == [4, 3, None]
    assert all(p["json"]["temperature"] == 1.0 for p in posts)
    assert response.texts == ("a", "b", "c", "d")
    assert response.usage == Usage(input_tokens=15, output_tokens=6)
    # one record per answered post, so cost.json counts real requests
    assert len(backend.records) == 3
    assert sleeps == []


def test_http_refused_n_falls_back_to_single_posts(monkeypatch):
    # a server that refuses any n but 1 answers the n post with a 400;
    # the choices are then asked for one a post, without n
    posts, sleeps = _serve(monkeypatch,
                           _Response(status_code=400, text="n must be 1"),
                           _choices("a"), _choices("b"), _choices("c"),
                           _choices("d"))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    response = backend.chat(_n_request("generate", 4))
    assert [p["json"].get("n") for p in posts] == [4, None, None, None, None]
    assert response.texts == ("a", "b", "c", "d")
    assert response.usage == Usage(input_tokens=20, output_tokens=8)
    # the refused post is not an answer, so it keeps no record
    assert len(backend.records) == 4
    assert sleeps == []


def test_http_client_error_without_n_stays_permanent(monkeypatch):
    # after a refused n, a client error on the single post still fails
    posts, _ = _serve(monkeypatch, _Response(status_code=401, text="key"),
                      _Response(status_code=401, text="key"), _choices("a"))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    with pytest.raises(LLMBackendError, match="HTTP 401"):
        backend.chat(_n_request("generate", 4))
    assert [p["json"].get("n") for p in posts] == [4, None]


def test_http_single_choice_request_sends_no_n(monkeypatch):
    posts, _ = _serve(monkeypatch, _choices("a", "b"))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    response = backend.chat(_request("x"))
    assert "n" not in posts[0]["json"]
    assert response.texts == ("a",)


def test_http_body_without_choices_is_malformed(monkeypatch):
    # what bounds the top-up loop: an answer with no choice fails at once
    posts, _ = _serve(monkeypatch, _choices("a"), _choices())
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    with pytest.raises(LLMBackendError, match="malformed response"):
        backend.chat(_n_request("generate", 4))
    assert len(posts) == 2


def test_generate_survives_a_throttled_call(monkeypatch):
    # generation has no retry of its own: the backend's retry turns one
    # 429 into a 1 s wait, not a lost sample
    block = ("### hello.txt\n<<<<<<< SEARCH\nold\n=======\nnew\n"
             ">>>>>>> REPLACE\n")
    posts, sleeps = _serve(monkeypatch, _Response(status_code=429),
                           _choices(block), _choices(block, block))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    candidates = generate_patches(backend, "crash", PatchContext(windows=()),
                                  t=3)
    assert [c.index for c in candidates] == [0, 1, 2]
    assert all(c.edits and c.parse_error is None for c in candidates)
    assert [p["json"].get("n") for p in posts] == [None, None, 2]
    assert sleeps == [1.0]
    assert [r.tag for r in backend.records] == ["generate"] * 2


# --- telemetry ------------------------------------------------------------


@pytest.mark.parametrize("code, category", [
    ("log = get_poc_output('run')\nprint(log.count('FAIL') + 1)", "poc"),
    ("print('the clamp keeps len below cap')", "think"),
    ("print('a')\nprint('b', 'c')", "think"),
    ("s = 'a,b'.split(',')\nprint(s)", "string"),
    ("import re\nm = 1", "string"),
    ("from re import findall", "string"),
    ("print(f'{1}')", "string"),
    ("x = 3 * 7\nprint(x)", "int"),
    ("n = (1 << 4) % 3", "int"),
    ("pass", "other"),
    ("", "other"),
    ("def (", "other"),
])
def test_classify_script_categories(code, category):
    assert classify_script(code) == category


def test_classify_script_violation_outranks_everything():
    code = "log = get_poc_output('run')\nprint(log.count('x'))"
    assert classify_script(code, violation=True) == "forbidden"


def test_classify_script_string_outranks_int():
    assert classify_script("n = 'ab'.count('a') + 1") == "string"


def _python_step(code, violation=None):
    meta = {"code": code}
    if violation:
        meta["violation"] = violation
    return Step(thought=None, tool="run_python_code", args={"code": code},
                observation="", meta=meta)


def test_classify_script_calls_counts_only_python_steps():
    transcript = Transcript(agent="spa", steps=[
        _python_step("print('note')"),
        Step(thought=None, tool="run_python_code", args={"code": "x = 1 + 1"},
             observation="", meta={}),
        _python_step("import os", violation="import of 'os' blocked"),
        Step(thought=None, tool="read_code", args={"file": "a.c"},
             observation="...", meta={}),
    ])
    counts = classify_script_calls(transcript)
    assert counts == {"think": 1, "int": 1, "forbidden": 1}


def test_transcript_summary_shape():
    transcript = Transcript(agent="spa", steps=[
        Step(thought="look", tool="read_code", args={"file": "a.c"},
             observation="...", meta={}),
        Step(thought=None, tool="bogus", args={}, observation="refused",
             meta={"refused": True}),
        Step(thought=None, tool="read_code", args={}, observation="Error",
             meta={"error": "ValueError"}),
        _python_step("print('hm')"),
    ], final_text="report", hit_step_limit=True)
    summary = transcript_summary(transcript)
    assert summary == {
        "agent": "spa",
        "steps": 4,
        "tool_counts": {"bogus": 1, "read_code": 2, "run_python_code": 1},
        "refused_calls": 1,
        "errored_calls": 1,
        "hit_step_limit": True,
        "script_calls": {"think": 1},
    }
    json.dumps(summary)


# --- metrics and cost -----------------------------------------------------


def _record(tag, input_tokens, output_tokens):
    return RequestRecord(tag=tag, temperature=0.0, messages_sha256="0" * 64,
                         model="replay",
                         usage=Usage(input_tokens=input_tokens,
                                     output_tokens=output_tokens))


def test_cost_of_records_groups_by_tag():
    records = [_record("cpc", 1000, 100), _record("generate", 2000, 50),
               _record("cpc", 500, 25)]
    breakdown = cost_of_records(records, RunConfig())
    assert list(breakdown["by_tag"]) == ["cpc", "generate"]
    assert breakdown["by_tag"]["cpc"] == {"calls": 2, "input_tokens": 1500,
                                          "output_tokens": 125}
    assert breakdown["by_tag"]["generate"] == {"calls": 1,
                                               "input_tokens": 2000,
                                               "output_tokens": 50}
    assert breakdown["calls"] == 3
    assert breakdown["input_tokens"] == 3500
    assert breakdown["output_tokens"] == 175
    # 3500 * 3/M + 175 * 15/M = 0.013125, cents round half up
    assert breakdown["cost_usd"] == "0.01"


def test_cost_exact_at_megatoken_scale():
    breakdown = cost_of_records([_record("generate", 1_000_000, 1_000_000)],
                                RunConfig())
    assert breakdown["cost_usd"] == "18.00"


def test_cost_rounds_half_cents_up():
    cfg = RunConfig(price_input_per_mtok="10.00")
    breakdown = cost_of_records([_record("cpc", 500, 0)], cfg)
    assert breakdown["cost_usd"] == "0.01"


def test_cost_of_no_records():
    breakdown = cost_of_records([], RunConfig())
    assert breakdown == {"by_tag": {}, "input_tokens": 0, "output_tokens": 0,
                         "calls": 0, "cost_usd": "0.00"}


def test_metrics_rate_renders_one_decimal():
    metrics = Metrics(total=80, patched=70, resolved=60,
                      cost_usd=Decimal("4"))
    assert metrics.resolved_rate == Decimal("75.0")
    assert metrics.average_cost_usd == Decimal("0.05")
    assert metrics.render() == ("Resolved 60/80 (75.0%), patched 70, "
                                "total cost $4.00, average $0.05 per "
                                "instance")


def test_metrics_rate_rounds_half_up():
    assert Metrics(16, 16, 5, Decimal(0)).resolved_rate == Decimal("31.3")
    assert Metrics(3, 3, 1, Decimal(0)).resolved_rate == Decimal("33.3")
    assert Metrics(3, 3, 2, Decimal(0)).resolved_rate == Decimal("66.7")


def test_metrics_average_is_cent_exact():
    metrics = Metrics(total=2, patched=2, resolved=1,
                      cost_usd=Decimal("0.05") + Decimal("0.09"))
    assert metrics.cost_usd == Decimal("0.14")
    assert metrics.average_cost_usd == Decimal("0.07")


def test_metrics_empty_run():
    metrics = Metrics(total=0, patched=0, resolved=0, cost_usd=Decimal(0))
    assert metrics.resolved_rate == Decimal(0)
    assert metrics.average_cost_usd == Decimal("0.00")


# --- verification ---------------------------------------------------------

HELLO_DIFF = """diff --git a/hello.txt b/hello.txt
--- a/hello.txt
+++ b/hello.txt
@@ -1 +1 @@
-old
+new
"""


def _mini_instance(tmp_path, repro, verify=None, content="old\n",
                   instance_id="mini-1"):
    workspace = tmp_path / f"ws-{instance_id}"
    workspace.mkdir()
    (workspace / "hello.txt").write_text(content)
    return IssueInstance(instance_id=instance_id, issue_report="r",
                         repro_command=repro, workspace_path=str(workspace),
                         verify_command=verify)


def test_verify_empty_prediction_is_not_a_patch(tmp_path):
    instance = _mini_instance(tmp_path, "true")
    verdict = verify_prediction(instance, "  \n")
    assert verdict.has_patch is False
    assert verdict.applied is False
    assert verdict.resolved is False
    assert verdict.exit_code is None
    assert verdict.detail == "empty prediction"


def test_verify_resolved_when_patched_command_exits_clean(tmp_path):
    instance = _mini_instance(tmp_path, "grep -q new hello.txt")
    verdict = verify_prediction(instance, HELLO_DIFF)
    assert verdict.applied and verdict.resolved
    assert verdict.exit_code == 0
    assert verdict.sanitizer_triggered is False
    assert verdict.detail == ""
    # the original workspace stays pristine; only a copy was patched
    assert (tmp_path / "ws-mini-1" / "hello.txt").read_text() == "old\n"


def test_verify_prefers_verify_command_over_repro(tmp_path):
    instance = _mini_instance(tmp_path, "exit 1",
                              verify="grep -q new hello.txt")
    assert verify_prediction(instance, HELLO_DIFF).resolved is True


def test_verify_nonzero_exit_is_unresolved(tmp_path):
    instance = _mini_instance(tmp_path, "exit 3")
    verdict = verify_prediction(instance, HELLO_DIFF)
    assert verdict.applied is True
    assert verdict.resolved is False
    assert verdict.exit_code == 3
    assert verdict.detail == "exit 3"


def test_verify_sanitizer_hit_is_unresolved_even_on_exit_zero(tmp_path):
    instance = _mini_instance(
        tmp_path, "echo '==99==ERROR: AddressSanitizer: heap-use-after-free'")
    verdict = verify_prediction(instance, HELLO_DIFF)
    assert verdict.exit_code == 0
    assert verdict.sanitizer_triggered is True
    assert verdict.resolved is False
    assert verdict.detail == "exit 0, sanitizer still fires"


def test_verify_unappliable_patch(tmp_path):
    instance = _mini_instance(tmp_path, "true", content="different\n")
    verdict = verify_prediction(instance, HELLO_DIFF)
    assert verdict.has_patch is True
    assert verdict.applied is False
    assert verdict.resolved is False
    assert verdict.detail.startswith("patch does not apply")


def test_verify_timeout_maps_to_124(tmp_path):
    instance = _mini_instance(tmp_path, "sleep 5")
    verdict = verify_prediction(instance, HELLO_DIFF, timeout=0.2)
    assert verdict.exit_code == 124
    assert verdict.resolved is False
    assert verdict.detail == "exit 124"


def test_verify_timeout_kills_children(tmp_path):
    marker = tmp_path / "marker"
    instance = _mini_instance(tmp_path,
                              f"(sleep 1.5; touch '{marker}') & wait")
    started = time.monotonic()
    verdict = verify_prediction(instance, HELLO_DIFF, timeout=0.3)
    assert verdict.exit_code == 124
    assert verdict.resolved is False
    assert time.monotonic() - started < 1.5
    time.sleep(max(0.0, started + 2.0 - time.monotonic()))
    assert not marker.exists()


def test_verify_ignores_an_enclosing_git_work_tree(tmp_path, monkeypatch):
    # with the temp directory inside a repository, `git apply` would
    # resolve the diff's paths against that repository's top level and
    # skip them without an error
    enclosing = tmp_path / "enclosing"
    (enclosing / "tmp").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(enclosing)], check=True)
    monkeypatch.delenv("GIT_CEILING_DIRECTORIES", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(enclosing / "tmp"))
    instance = _mini_instance(tmp_path, "grep -q new hello.txt")
    verdict = verify_prediction(instance, HELLO_DIFF)
    assert verdict.applied and verdict.resolved, verdict.detail


def test_evaluate_goes_on_past_a_broken_instance(tmp_path):
    run_dir = tmp_path / "run"
    for iid in ("mini-1", "mini-2"):
        (run_dir / iid).mkdir(parents=True)
        (run_dir / iid / "prediction.diff").write_text(HELLO_DIFF)
    gone = _mini_instance(tmp_path, "true", instance_id="mini-1")
    shutil.rmtree(gone.workspace_path)
    fine = _mini_instance(tmp_path, "grep -q new hello.txt",
                          instance_id="mini-2")

    metrics, (broken, solved) = evaluate_run(run_dir, [gone, fine])
    assert broken.has_patch and not broken.applied
    assert broken.resolved is False
    assert broken.detail.startswith("workspace copy failed: "
                                    "FileNotFoundError")
    assert solved.resolved is True
    assert (metrics.total, metrics.patched, metrics.resolved) == (2, 2, 1)
    payload = json.loads((run_dir / "evaluation.json").read_text())
    assert [row["resolved"] for row in payload["instances"]] == [False, True]


def test_evaluate_aborts_without_git(tmp_path, monkeypatch):
    # a fault of the environment, unlike one of an instance's data, would
    # fail every instance alike, so it stops the batch instead of reading
    # as a resolve rate of 0
    run_dir = tmp_path / "run"
    (run_dir / "mini-1").mkdir(parents=True)
    (run_dir / "mini-1" / "prediction.diff").write_text(HELLO_DIFF)
    instance = _mini_instance(tmp_path, "true", instance_id="mini-1")
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(FileNotFoundError):
        evaluate_run(run_dir, [instance])
    assert not (run_dir / "evaluation.json").exists()


HELLO_EDIT = CandidatePatch(
    index=0, temperature=0.0, raw_text="",
    edits=tuple(parse_edit_blocks("### hello.txt\n<<<<<<< SEARCH\nold\n"
                                  "=======\nnew\n>>>>>>> REPLACE\n")))

_ASAN_LINE = "echo '==9==ERROR: AddressSanitizer: heap-buffer-overflow' >&2"


@pytest.mark.parametrize("command, timeout, passed", [
    ("exit 0", 10.0, True),
    ("exit 3", 10.0, False),
    ("sleep 5", 0.3, False),
    (f"{_ASAN_LINE}; exit 0", 10.0, False),
    (f"{_ASAN_LINE}; exit 1", 10.0, False),
    # no newline after stdout, so the sanitizer line follows it directly
    (f"printf x; {_ASAN_LINE}", 10.0, False),
], ids=["exit-0", "exit-3", "timeout", "asan-exit-0", "asan-exit-1",
        "asan-after-unterminated-stdout"])
def test_validation_and_evaluation_agree_on_the_poc(tmp_path, command,
                                                    timeout, passed):
    instance = _mini_instance(tmp_path, command)
    workspace = tmp_path / "ws-mini-1"
    outcome = validate_candidate(
        HELLO_EDIT, EditHistory(workspace),
        PocRunner(LocalSandbox(workspace), command, timeout=timeout),
        workspace)
    verdict = verify_prediction(instance, HELLO_DIFF, timeout=timeout)
    assert outcome.applied and verdict.applied
    assert outcome.poc_pass is verdict.resolved is passed
    assert outcome.sanitizer_triggered is verdict.sanitizer_triggered


def test_evaluate_run_aggregates_and_persists(tmp_path):
    run_dir = tmp_path / "run"
    solved = run_dir / "mini-1"
    solved.mkdir(parents=True)
    (solved / "prediction.diff").write_text(HELLO_DIFF)
    (solved / "cost.json").write_text('{"cost_usd": "0.05"}')
    unsolved = run_dir / "mini-2"
    unsolved.mkdir()
    (unsolved / "prediction.diff").write_text("")
    (unsolved / "cost.json").write_text('{"cost_usd": "0.09"}')
    ghost = run_dir / "ghost"
    ghost.mkdir()
    (ghost / "prediction.diff").write_text(HELLO_DIFF)
    (run_dir / "stray.txt").write_text("not an instance dir")

    instances = [
        _mini_instance(tmp_path, "grep -q new hello.txt",
                       instance_id="mini-1"),
        _mini_instance(tmp_path, "true", instance_id="mini-2"),
    ]
    metrics, verdicts = evaluate_run(run_dir, instances)
    assert [v.instance_id for v in verdicts] == ["mini-1", "mini-2"]
    assert metrics.total == 2
    assert metrics.patched == 1
    assert metrics.resolved == 1
    assert metrics.cost_usd == Decimal("0.14")
    assert metrics.average_cost_usd == Decimal("0.07")
    assert metrics.resolved_rate == Decimal("50.0")

    payload = json.loads((run_dir / "evaluation.json").read_text())
    assert payload["total"] == 2
    assert payload["resolved"] == 1
    assert payload["resolved_rate_percent"] == "50.0"
    assert payload["cost_usd"] == "0.14"
    assert payload["average_cost_usd"] == "0.07"
    rows = {row["instance_id"]: row for row in payload["instances"]}
    assert rows["mini-1"]["resolved"] is True
    assert rows["mini-2"]["has_patch"] is False
    assert (run_dir / "evaluation.json").read_text().endswith("\n")


def test_evaluate_missing_prediction_counts_as_no_patch(tmp_path):
    run_dir = tmp_path / "run"
    (run_dir / "mini-1").mkdir(parents=True)
    instance = _mini_instance(tmp_path, "true")
    metrics, verdicts = evaluate_run(run_dir, [instance])
    assert metrics.patched == 0
    assert verdicts[0].has_patch is False


# --- pipeline -------------------------------------------------------------


@needs_gcc
def test_replay_run_instance_spawns_no_git(fixtures_dir, tmp_path,
                                           monkeypatch):
    spawned = []

    class RecordingPopen(subprocess.Popen):
        # subprocess.run starts its processes through Popen too
        def __init__(self, args, *rest, **kwargs):
            spawned.append(args.split() if isinstance(args, str)
                           else list(args))
            super().__init__(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    config = dataclasses.replace(variant("full"), keep_workspaces=True)
    result = run_instance(instance, config,
                          ReplayBackend(build_entries(True, True)), tmp_path)

    assert result.winner is not None and not result.errors
    assert spawned  # the PoC builds were seen
    assert [argv for argv in spawned if argv[:1] == ["git"]] == []
    instance_dir = tmp_path / instance.instance_id
    assert not (instance_dir / "base").exists()
    assert not (instance_dir / "workspace" / ".git").exists()


@needs_gcc
def test_replay_run_instance_parses_each_content_once(fixtures_dir, tmp_path,
                                                      monkeypatch):
    # scan_elements sees only text, so scans are counted per content
    # digest; the fixture holds no two source files with equal bytes, so
    # that is one count per (file, digest)
    scans = Counter()
    scan = repo_model.scan_elements

    def counting_scan(text):
        scans[hashlib.blake2b(
            text.encode("utf-8", "surrogateescape")).hexdigest()] += 1
        return scan(text)

    parsed = []
    elements_of = repo_model._elements_of
    monkeypatch.setattr(repo_model, "_elements_of", lambda text, rel: (
        parsed.append((rel, text)) or elements_of(text, rel)))
    words = []
    files_with_word = repo_model.RepoIndex.files_with_word
    monkeypatch.setattr(repo_model.RepoIndex, "files_with_word",
                        lambda self, word: (words.append(word.word) or
                                            files_with_word(self, word)))
    monkeypatch.setattr(repo_model, "scan_elements", counting_scan)
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    result = run_instance(instance, variant("full"),
                          ReplayBackend(build_entries(True, True)), tmp_path)

    assert result.winner is not None and not result.errors
    # nothing was parsed twice at the same content ...
    assert max(scans.values()) == 1
    # ... and the repo-wide searches and lookups parsed only files that
    # hold their word, not the whole tree; localization parses the files
    # it ranked
    assert words
    localized = json.loads((tmp_path / instance.instance_id / "rankings"
                            / "files.json").read_text())["merged"]
    for rel, text in parsed:
        assert rel in localized or any(
            re.search(rf"(?<!\w){re.escape(word)}(?!\w)", text)
            for word in words), rel
    assert len({rel for rel, _ in parsed}) < len(repo_model.source_files(
        fixtures_dir / "crepo"))


@needs_gcc
def test_an_instance_without_a_workspace_does_not_abort_the_batch(
        fixtures_dir, scratch_crepo, tmp_path):
    good = load_instances(fixtures_dir / "instances.jsonl")[0]
    broken = dataclasses.replace(good, instance_id="gone-1",
                                 workspace_path=str(scratch_crepo))
    shutil.rmtree(scratch_crepo)
    run_dir = tmp_path / "run"
    broken_result, good_result = run_all(
        [broken, good], variant("full"),
        lambda _: ReplayBackend(build_entries(True, True)), run_dir)

    assert broken_result.winner is None and broken_result.prediction == ""
    assert [e["stage"] for e in broken_result.errors] == ["workspace"]
    assert "FileNotFoundError" in broken_result.errors[0]["error"]
    assert (run_dir / "gone-1" / "prediction.diff").read_bytes() == b""
    telemetry = json.loads(
        (run_dir / "gone-1" / "telemetry.json").read_text())
    assert telemetry["errors"] == broken_result.errors
    assert good_result.winner is not None and not good_result.errors

    metrics, _ = evaluate_run(run_dir, [broken, good])
    assert (metrics.total, metrics.resolved) == (2, 1)


@needs_gcc
def test_a_failed_artifact_write_does_not_abort_the_batch(
        fixtures_dir, tmp_path, monkeypatch):
    first = load_instances(fixtures_dir / "instances.jsonl")[0]
    second = dataclasses.replace(first, instance_id="namecache-obo-2")
    run_dir = tmp_path / "run"
    refused = run_dir / first.instance_id / "candidates"

    def refusing(write):
        def wrapped(path, payload):
            if Path(path).parent == refused:
                raise PermissionError(13, "Permission denied", str(path))
            write(path, payload)
        return wrapped

    for name in ("write_text", "write_json"):
        monkeypatch.setattr(pipeline, name,
                            refusing(getattr(pipeline, name)))
    first_result, second_result = run_all(
        [first, second], variant("base"),
        lambda _: ReplayBackend(build_entries(False, False)), run_dir)

    assert [e["stage"] for e in first_result.errors] == [
        f"write candidates/{name}" for name in (
            "candidate-0.md", "candidate-0.diff", "candidate-1.md",
            "candidate-1.diff", "candidate-2.md", "candidate-2.diff",
            "candidate-3.md", "candidate-4.md", "outcomes.json")]
    assert all(e["error"].startswith("PermissionError")
               for e in first_result.errors)
    assert not refused.exists()
    # the rest of the first instance's artifacts are written
    assert first_result.winner == 0
    first_dir = run_dir / first.instance_id
    assert (first_dir / "prediction.diff").read_text() \
        == first_result.prediction != ""
    telemetry = json.loads((first_dir / "telemetry.json").read_text())
    assert telemetry["errors"] == first_result.errors
    assert second_result.winner == 0 and not second_result.errors

    metrics, _ = evaluate_run(run_dir, [first, second])
    assert (metrics.total, metrics.resolved) == (2, 2)


@needs_gcc
def test_validation_builds_each_distinct_program_once(fixtures_dir,
                                                      tmp_path, monkeypatch):
    execs = []
    exec_ = LocalSandbox.exec
    monkeypatch.setattr(LocalSandbox, "exec", lambda self, command, **kw: (
        execs.append(command) or exec_(self, command, **kw)))
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    result = run_instance(instance, variant("base"),
                          ReplayBackend(build_entries(False, False)),
                          tmp_path)

    assert result.winner == 0 and not result.errors
    outcomes = json.loads((tmp_path / instance.instance_id / "candidates"
                           / "outcomes.json").read_text())
    # candidates 0 and 1 differ by a comment: one build for both; 3 and
    # 4 do not apply
    assert [(o["applied"], o["poc_pass"], o["poc_run_of"])
            for o in outcomes] == [(True, True, None), (True, True, 0),
                                   (True, False, None), (False, False, None),
                                   (False, False, None)]
    assert outcomes[0]["fingerprint"] == outcomes[1]["fingerprint"]
    assert execs == [instance.repro_command] * 2


@needs_gcc
def test_dangling_symlink_in_workspace_is_skipped(fixtures_dir,
                                                 scratch_crepo, tmp_path):
    (scratch_crepo / "src" / "stale.h").symlink_to("nowhere.h")
    # valid relative links, whose targets do not exist from the process's
    # working directory: they are copied as the files they point to
    (scratch_crepo / "src" / "alias.h").symlink_to("buf.h")
    (scratch_crepo / "cpp" / "buf.h").symlink_to("../src/buf.h")
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    run_dir = tmp_path / "run"
    config = dataclasses.replace(variant("full"), keep_workspaces=True)
    (result,) = run_all([instance], config,
                        lambda _: ReplayBackend(build_entries(True, True)),
                        run_dir)
    assert result.winner is not None and not result.errors
    workspace = run_dir / instance.instance_id / "workspace"
    header = (scratch_crepo / "src" / "buf.h").read_bytes()
    for rel in ("src/alias.h", "cpp/buf.h"):
        assert not (workspace / rel).is_symlink()
        assert (workspace / rel).read_bytes() == header
    assert not (workspace / "src" / "stale.h").exists()

    metrics, (verdict,) = evaluate_run(run_dir, [instance])
    assert verdict.applied and verdict.resolved
    assert metrics.resolved == 1

    first = header.decode().splitlines(keepends=True)[0]
    touch_alias = ("--- a/src/alias.h\n+++ b/src/alias.h\n"
                   "@@ -1,1 +1,2 @@\n+/* alias */\n " + first)
    assert verify_prediction(instance, touch_alias).applied


class _SecondGenerateFails(ReplayBackend):
    """Replay whose second generate request fails, as a live backend's
    does once its retries are spent."""

    def __init__(self, entries):
        super().__init__(entries)
        self.generates = 0

    def chat(self, request):
        if request.tag == "generate":
            self.generates += 1
            if self.generates == 2:
                raise LLMBackendError("HTTP 503 (after 3 attempts)")
        return super().chat(request)


@needs_gcc
def test_failed_sample_request_keeps_the_greedy_candidate(fixtures_dir,
                                                          tmp_path):
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    result = run_instance(instance, variant("base"),
                          _SecondGenerateFails(build_entries(False, False)),
                          tmp_path)

    error = {"stage": "generate",
             "error": "LLMBackendError: HTTP 503 (after 3 attempts)"}
    assert result.errors == [error]
    assert result.winner == 0
    assert result.prediction.startswith("diff --git a/src/buf.c b/src/buf.c")
    instance_dir = tmp_path / instance.instance_id
    assert (instance_dir / "prediction.diff").read_text() == result.prediction
    telemetry = json.loads((instance_dir / "telemetry.json").read_text())
    assert telemetry["errors"] == [error]
    assert telemetry["stages"]["generation"]["candidates"] == 1
    outcomes = json.loads(
        (instance_dir / "candidates" / "outcomes.json").read_text())
    assert [(o["index"], o["applied"], o["poc_pass"])
            for o in outcomes] == [(0, True, True)]


class _PromptSizes(ReplayBackend):
    """Replay that also counts the characters of every prompt it is sent."""

    sent = 0

    def chat(self, request):
        _PromptSizes.sent += sum(len(m.get("content") or "")
                                 for m in request.messages)
        return super().chat(request)


@needs_gcc
def test_prompts_do_not_depend_on_the_workspace_path(fixtures_dir,
                                                     tmp_path, monkeypatch):
    # PoC logs name the binary by its absolute path and carry the
    # sanitizer's pid; both are masked before a log enters a prompt
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    sizes = []
    for out in (tmp_path / "a", tmp_path / "a-much-longer-run-directory"):
        monkeypatch.setattr(_PromptSizes, "sent", 0)
        (result,) = run_all([instance], variant("full"),
                            lambda _: _PromptSizes(build_entries()), out)
        assert result.winner is not None and not result.errors
        sizes.append(_PromptSizes.sent)
    assert sizes[0] == sizes[1]


def test_write_keeps_non_utf8_diff_bytes(tmp_path):
    source = b"/* caf\xe9 */\nint x = 1;\n"
    for side in ("before", "after"):
        (tmp_path / side / "src").mkdir(parents=True)
        (tmp_path / side / "src" / "a.c").write_bytes(source)
    history = EditHistory(tmp_path / "after")
    history.apply_edits("bump", "### src/a.c\n<<<<<<< SEARCH\nint x = 1;\n"
                                "=======\nint x = 2;\n>>>>>>> REPLACE\n")
    diff = to_unified_diff(tmp_path / "after", history.originals())
    path = tmp_path / "out" / "candidate-0.diff"
    repo_model.write_text(path, diff)

    assert b" /* caf\xe9 */\n" in path.read_bytes()
    subprocess.run(["git", "apply", str(path)], cwd=tmp_path / "before",
                   check=True, capture_output=True)
    assert (tmp_path / "before" / "src" / "a.c").read_bytes() \
        == (tmp_path / "after" / "src" / "a.c").read_bytes()


def test_evaluate_applies_non_utf8_prediction(tmp_path):
    workspace = tmp_path / "ws"
    (workspace / "src").mkdir(parents=True)
    (workspace / "src" / "a.c").write_bytes(b"/* caf\xe9 */\nint x = 1;\n")
    patched = tmp_path / "patched"
    shutil.copytree(workspace, patched)
    history = EditHistory(patched)
    history.apply_edits("bump", "### src/a.c\n<<<<<<< SEARCH\nint x = 1;\n"
                                "=======\nint x = 2;\n>>>>>>> REPLACE\n")
    run_dir = tmp_path / "run"
    repo_model.write_text(run_dir / "mini-1" / "prediction.diff",
                          to_unified_diff(patched, history.originals()))
    instance = IssueInstance(instance_id="mini-1", issue_report="r",
                             repro_command="grep -q 'x = 2' src/a.c",
                             workspace_path=str(workspace))

    metrics, (verdict,) = evaluate_run(run_dir, [instance])
    assert verdict.applied and verdict.resolved
    assert metrics.resolved == 1


# --- command line ---------------------------------------------------------


def test_load_config_routes(tmp_path):
    assert _load_config(SimpleNamespace(config=None, variant=None)) \
        == RunConfig()
    assert _load_config(SimpleNamespace(config=None, variant="sanitizer")) \
        == variant("sanitizer")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(RunConfig(candidates=2).to_dict()))
    assert _load_config(SimpleNamespace(config=str(path), variant=None)) \
        == RunConfig(candidates=2)
    with pytest.raises(SystemExit, match="mutually exclusive"):
        _load_config(SimpleNamespace(config=str(path), variant="base"))


def test_backend_factory_rejects_unknown_spec():
    with pytest.raises(SystemExit, match="unknown backend"):
        _backend_factory("carrier-pigeon", SimpleNamespace())


def test_backend_factory_per_instance_scripts(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"instances": {
        "mini-1": {"entries": [{"expect": "x", "response": {"text": "y"}}]},
    }}))
    factory = _backend_factory(f"replay:{path}", SimpleNamespace())
    backend = factory("mini-1")
    assert backend.chat(_request("x")).text == "y"
    with pytest.raises(SystemExit, match="no entries for 'mini-2'"):
        factory("mini-2")


def test_backend_factory_flat_script_is_shared(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([{"expect": "x", "response": {"text": "y"}}]))
    factory = _backend_factory(f"replay:{path}", SimpleNamespace())
    assert factory("a") is factory("b")


def test_backend_factory_live_needs_endpoint(monkeypatch):
    monkeypatch.delenv("VULNMEND_BASE_URL", raising=False)
    monkeypatch.delenv("VULNMEND_MODEL", raising=False)
    args = SimpleNamespace(base_url=None, model=None, api_key=None)
    with pytest.raises(SystemExit, match="live backend needs"):
        _backend_factory("live", args)


def test_backend_factory_live_from_flags(monkeypatch):
    monkeypatch.delenv("VULNMEND_API_KEY", raising=False)
    args = SimpleNamespace(base_url="http://api.test", model="m",
                           api_key="sk")
    backend = _backend_factory("live", args)("any")
    assert isinstance(backend, HttpChatBackend)
    assert backend.model == "m"
    assert backend.api_key == "sk"


def test_run_rejects_empty_instance_filter(tmp_path, fixtures_dir):
    with pytest.raises(SystemExit, match="no instances left"):
        main(["run",
              "--instances", str(fixtures_dir / "instances.jsonl"),
              "--out", str(tmp_path / "run"),
              "--backend", "replay:unused.json",
              "--instance-id", "no-such-id"])


def test_report_on_empty_run_dir(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


@needs_gcc
def test_cli_run_evaluate_report_roundtrip(tmp_path, fixtures_dir, capsys):
    instances = str(fixtures_dir / "instances.jsonl")
    out = tmp_path / "run"
    rc = main(["run",
               "--instances", instances,
               "--out", str(out),
               "--backend", f"replay:{fixtures_dir / 'replays/base.json'}",
               "--variant", "base"])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert ("namecache-obo-1: patch selected (candidate 0); "
            "0 stage error(s)") in stdout
    assert f"run artifacts in {out}" in stdout

    config = json.loads((out / "config.json").read_text())
    assert config["enable_cpc"] is False and config["enable_spa"] is False
    prediction = (out / "namecache-obo-1" / "prediction.diff").read_text()
    assert prediction.startswith("diff --git")
    assert "len = cap - 1;" in prediction
    # scratch trees are dropped; only reproducible artifacts remain
    assert not (out / "namecache-obo-1" / "workspace").exists()
    assert not (out / "namecache-obo-1" / "base").exists()

    rc = main(["evaluate", "--run", str(out), "--instances", instances])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "namecache-obo-1: resolved" in stdout
    assert "Resolved 1/1 (100.0%)" in stdout

    rc = main(["report", "--run", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert ("configuration: cpc=False spa=False enhance=none "
            "selection=poc_voting input=issue_report") in stdout
    assert "namecache-obo-1: candidate 0 of 5" in stdout
    assert ", resolved" in stdout
    assert "totals: resolved 1/1 (100.0%)" in stdout


def test_evaluate_exit_code_reflects_empty_run(tmp_path, fixtures_dir,
                                               capsys):
    run_dir = tmp_path / "empty-run"
    run_dir.mkdir()
    rc = main(["evaluate", "--run", str(run_dir),
               "--instances", str(fixtures_dir / "instances.jsonl")])
    capsys.readouterr()
    assert rc == 1
