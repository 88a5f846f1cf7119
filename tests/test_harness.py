"""Harness layer: instance schema, config variants, backends, telemetry,
metrics and the command line."""

import dataclasses
import errno
import hashlib
import http.client
import http.server
import io
import json
import os
import re
import shutil
import subprocess
import tempfile
import threading
import time
import urllib.error
import urllib.request
import urllib.response
from collections import Counter
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import (RecordingReplay, copier_running, is_the_copier,
                      join_the_copier, snapshot)
from replay_scripts import (COMMENT_ONLY_PATCH, COMMENTED_FIX, REFERENCE_FIX,
                            build_entries, localization_entries, spa_entries)

import vulnmend.agents.spa as spa_agent
import vulnmend.execution as execution
import vulnmend.harness.metrics as harness_metrics
import vulnmend.harness.pipeline as pipeline
import vulnmend.localization as localization
import vulnmend.repair as repair
import vulnmend.repo_model as repo_model
from vulnmend.agents.react import Step, Transcript
from vulnmend.agents.reports import AgentReport
from vulnmend.edit_engine import (EditHistory, edited_texts,
                                  parse_edit_blocks, to_unified_diff)
from vulnmend.errors import (BadInputFile, LLMBackendError, ReplayDesync,
                             SchemaViolation, ScriptExhausted,
                             describe_error)
from vulnmend.execution import AheadCopies, LocalSandbox, PristineCopy
from vulnmend.harness.backends import (HttpChatBackend, ReplayBackend,
                                       load_replay)
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
from vulnmend.llm import ChatRequest, RequestRecord, ToolCall, Usage
from vulnmend.repair import (CandidatePatch, PatchContext, generate_patches,
                             validate_candidate)
from vulnmend.repo_model import RepoIndex, WholeWord, write_json, write_text

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
    assert cfg.enable_cpc and cfg.enable_spa
    assert cfg.enhance_stages == ("localization", "generation")
    assert cfg.selection_strategy == "poc_voting"
    assert cfg.input_type == "issue_report"
    assert cfg.poc_timeout == 300.0
    assert cfg.price_input_per_mtok == "3.00"
    assert cfg.price_output_per_mtok == "15.00"
    assert len(dataclasses.fields(cfg)) == 8
    assert cfg.validate() is cfg


# a deployment's settings; every other field is a variant's switch
DEPLOYMENT_FIELDS = {"poc_timeout", "price_input_per_mtok",
                     "price_output_per_mtok"}


def test_every_config_field_is_a_variant_switch_or_a_deployment_setting():
    # a field that no variant changes and no deployment sets is one
    # value: it belongs in a module constant of the stage that reads it
    default = RunConfig()
    switched = {field.name for field in dataclasses.fields(RunConfig)
                for name in VARIANTS
                if getattr(variant(name), field.name)
                != getattr(default, field.name)}
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert fields - DEPLOYMENT_FIELDS == switched
    assert DEPLOYMENT_FIELDS <= fields


@pytest.mark.parametrize("overrides, message", [
    (dict(poc_timeout=float("inf")), "poc_timeout must be positive and"),
    (dict(price_input_per_mtok="2000000"), "must be a finite price from 0"),
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


@pytest.mark.parametrize("key, value", [
    ("enable_spa", "false"), ("enable_cpc", 1), ("enable_cpc", "no"),
    ("selection_strategy", 5), ("input_type", None), ("poc_timeout", None),
    ("enable_spa", None), ("poc_timeout", "300"), ("poc_timeout", True),
    ("price_input_per_mtok", 3), ("enhance_stages", "generation"),
    ("enhance_stages", [["generation"]]),
    # prices that would break cost accounting
    ("price_input_per_mtok", "NaN"), ("price_output_per_mtok", "-3"),
    ("price_input_per_mtok", "Infinity"), ("price_output_per_mtok", "sNaN"),
    ("price_input_per_mtok", "1e999999"),
])
def test_config_rejects_wrongly_typed_values(key, value):
    # a JSON config carries no types: "false" must not turn a flag on
    with pytest.raises(ValueError, match=f"^{key} must be "):
        RunConfig.from_dict({key: value})


def test_config_takes_an_int_or_a_float_timeout():
    assert RunConfig.from_dict({"poc_timeout": 10}).poc_timeout == 10
    assert RunConfig.from_dict({"poc_timeout": 0.5}).poc_timeout == 0.5


def test_config_round_trips_through_dict(tmp_path):
    cfg = RunConfig(poc_timeout=2.5, enhance_stages=("generation",),
                    enable_spa=False)
    data = cfg.to_dict()
    assert data["enhance_stages"] == ["generation"]
    assert RunConfig.from_dict(data) == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert RunConfig.from_file(path) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"poc_timeout": 3, "zap": 1})
    # the keys of fields that are gone are unknown too: the pipeline's
    # fixed settings are module constants, set by no config
    for key in ("keep_workspaces", "log_head_lines", "log_tail_lines",
                "script_output_cap", "top_files", "context_margin",
                "candidates", "chunk_lines", "element_limit",
                "cpc_max_steps", "spa_max_steps"):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown config keys: ['{key}']")):
            RunConfig.from_dict({key: 1})


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
    backend = ReplayBackend(json.loads(path.read_text()))
    assert backend.chat(_request("x")).text == "y"


def test_load_replay_gives_each_instance_its_own_script(fixtures_dir):
    path = fixtures_dir / "replays" / "full.json"
    script = json.loads(path.read_text())
    backend_for = load_replay(path, ["namecache-obo-1"])
    backend = backend_for("namecache-obo-1")
    assert backend.entries == \
        script["instances"]["namecache-obo-1"]["entries"]
    assert backend_for("namecache-obo-1") is backend


def test_load_replay_names_an_instance_the_script_lacks(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"instances": {
        "mini-1": {"entries": [{"expect": "x", "response": {"text": "y"}}]},
        "mini-3": {"entries": [5]},
    }}))
    with pytest.raises(BadInputFile) as excinfo:
        load_replay(path, ["mini-1", "mini-2"])
    assert str(excinfo.value) == (f"replay script {path}: no entries for "
                                  "instance 'mini-2'")
    # every instance's entries are checked, not only those of the run
    with pytest.raises(BadInputFile) as excinfo:
        load_replay(path, ["mini-1"])
    assert str(excinfo.value) == (
        f"replay script {path}: instance 'mini-3': entry 1 is not an "
        "object whose response is an object")


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
    """A server's answer: a status and a JSON body, or raw text."""

    def __init__(self, status_code=200, body=None, text="", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text
        self.headers = headers or {}

    def opened(self, request):
        """What urlopen makes of this answer: a 200 is returned, any
        other status is raised as an HTTPError."""
        data = (json.dumps(self._body) if self._body is not None
                else self.text).encode()
        if self.status_code != 200:
            raise urllib.error.HTTPError(request.full_url, self.status_code,
                                         "error", self.headers,
                                         io.BytesIO(data))
        return urllib.response.addinfourl(io.BytesIO(data), {},
                                          request.full_url, 200)


def _posted(request):
    """A request as urlopen was handed it."""
    return {"url": request.full_url, "headers": dict(request.header_items()),
            "json": json.loads(request.data)}


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

    def fake_urlopen(request, timeout=None):
        posted.update(_posted(request))
        return _Response(body={
            "model": "m-live",
            "choices": [{"message": {
                "content": "thinking",
                "tool_calls": [{"function": {
                    "name": "probe", "arguments": "{\"x\": 1}"}}],
            }}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 3},
        }).opened(request)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
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
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, **k:
                        _Response(body={"choices": [{"message": {
                            "content": None,
                            "tool_calls": [{"function": {
                                "name": "probe", "arguments": "{broken"}}],
                        }}]}).opened(request))
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

    def fake_urlopen(request, timeout=None):
        posts.append(_posted(request))
        outcome = pending.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome.opened(request)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return posts, sleeps


_TRANSIENT = [_Response(status_code=429), _Response(status_code=500),
              _Response(status_code=503),
              urllib.error.URLError("connection reset"),
              TimeoutError("timed out"),
              http.client.RemoteDisconnected("closed without response")]


@pytest.mark.parametrize("transient", _TRANSIENT,
                         ids=["429", "500", "503", "network", "timeout",
                              "disconnected"])
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


@pytest.mark.parametrize("status", [429, 503])
def test_http_throttled_call_waits_as_long_as_retry_after_asks(monkeypatch,
                                                               status):
    throttled = _Response(status_code=status, headers={"Retry-After": "5"})
    posts, sleeps = _serve(monkeypatch, throttled, throttled,
                           _Response(body=_OK))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    assert backend.chat(_request("generate")).text == "done"
    assert len(posts) == 3
    assert sleeps == [5, 5]
    assert len(backend.records) == 1


@pytest.mark.parametrize("status, retry_after, slept", [
    (429, "3600", 60),  # capped
    (503, " 0 ", 0),
    (429, "Wed, 21 Oct 2026 07:28:00 GMT", 1.0),  # a date: the backoff
    (429, "-1", 1.0),
    (429, "2.5", 1.0),
    (503, "", 1.0),
    (500, "5", 1.0),  # only a throttled answer says when
])
def test_http_retry_after_is_honoured_only_as_delta_seconds(
        monkeypatch, status, retry_after, slept):
    posts, sleeps = _serve(
        monkeypatch,
        _Response(status_code=status, headers={"Retry-After": retry_after}),
        _Response(body=_OK))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    assert backend.chat(_request("generate")).text == "done"
    assert len(posts) == 2
    assert sleeps == [slept]


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
        monkeypatch, *[urllib.error.URLError("connection reset")] * 4)
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


def test_http_missing_or_null_token_counts_count_zero(monkeypatch):
    _serve(monkeypatch, _choices("a", prompt_tokens=None),
           _Response(body={"choices": [{"message": {"content": "b"}}],
                           "usage": {"completion_tokens": 4}}))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    assert backend.chat(_request("x")).usage == Usage(input_tokens=0,
                                                      output_tokens=2)
    assert backend.chat(_request("x")).usage == Usage(input_tokens=0,
                                                      output_tokens=4)


_MALFORMED = {
    "message-a-string": {"choices": [{"message": "done"}]},
    "message-null": {"choices": [{"message": None}]},
    "content-a-list": {"choices": [{"message": {
        "content": [{"type": "text", "text": "done"}]}}]},
    "negative-count": _choices("a", prompt_tokens=-1)._body,
    "float-count": _choices("a", completion_tokens=2.5)._body,
    "string-count": _choices("a", prompt_tokens="7")._body,
    "bool-count": _choices("a", completion_tokens=True)._body,
    "usage-a-list": {"choices": [{"message": {"content": "a"}}],
                     "usage": [5, 2]},
    "tool-call-a-string": {"choices": [{"message": {
        "content": None, "tool_calls": ["probe"]}}]},
    "tool-name-null": {"choices": [{"message": {
        "content": None, "tool_calls": [{"function": {"name": None}}]}}]},
}


@pytest.mark.parametrize("body", _MALFORMED.values(), ids=list(_MALFORMED))
def test_http_malformed_answer_is_a_backend_error(monkeypatch, body):
    # a backend error is a stage error; any other would end the batch
    posts, sleeps = _serve(monkeypatch, _Response(body=body))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    with pytest.raises(LLMBackendError, match="^malformed response: "):
        backend.chat(_request("x"))
    assert len(posts) == 1 and sleeps == []


def test_http_tool_arguments_that_are_no_object_become_empty(monkeypatch):
    _serve(monkeypatch, *(
        _Response(body={"choices": [{"message": {
            "content": None, "tool_calls": [{"function": {
                "name": "probe", "arguments": arguments}}]}}]})
        for arguments in ("[1, 2]", 7)))
    backend = HttpChatBackend(base_url="http://api.test", model="m")
    for _ in range(2):
        assert backend.chat(_request("x")).tool_call == ToolCall("probe", {})


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


def test_http_backend_talks_to_a_real_server(monkeypatch):
    # the fakes above stand in for urlopen; this one answers on a socket:
    # a 503 is retried, a 404 fails with its body, a 200 is parsed
    answers = [(503, b"busy"), (200, json.dumps(_OK).encode()),
               (404, b"no such model")]
    seen = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            seen.append((self.path, self.headers["Authorization"],
                         json.loads(self.rfile.read(length))))
            status, body = answers.pop(0)
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setattr(time, "sleep", lambda s: None)
    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        backend = HttpChatBackend(
            base_url=f"http://127.0.0.1:{server.server_port}/v1",
            model="m", api_key="sk-test", timeout=10.0)
        assert backend.chat(_request("x")).text == "done"
        with pytest.raises(LLMBackendError,
                           match="^HTTP 404: no such model$"):
            backend.chat(_request("x"))
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert [path for path, _, _ in seen] == ["/v1/chat/completions"] * 3
    assert {key for _, key, _ in seen} == {"Bearer sk-test"}
    assert seen[0][2]["messages"] == [{"role": "user", "content": "hello"}]
    assert len(backend.records) == 1


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
    summary = transcript_summary(
        transcript, AgentReport(items=(), parse_ok=False, raw_text="report"))
    assert summary == {
        "agent": "spa",
        "steps": 4,
        "tool_counts": {"bogus": 1, "read_code": 2, "run_python_code": 1},
        "refused_calls": 1,
        "errored_calls": 1,
        "hit_step_limit": True,
        "report_parse_ok": False,
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
    assert broken.detail == ("workspace copy failed: FileNotFoundError: "
                             "[Errno 2] No such file or directory: "
                             "'workspace'")
    assert solved.resolved is True
    assert (metrics.total, metrics.patched, metrics.resolved) == (2, 2, 1)
    payload = json.loads((run_dir / "evaluation.json").read_text())
    assert [row["resolved"] for row in payload["instances"]] == [False, True]


def test_evaluation_json_does_not_depend_on_the_pool(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    instances = [
        _mini_instance(tmp_path, "grep -q new hello.txt",
                       instance_id="mini-1"),
        _mini_instance(tmp_path, "true", instance_id="mini-2"),
        _mini_instance(tmp_path, "sleep 0.2; exit 1", instance_id="mini-3")]
    shutil.rmtree(instances[1].workspace_path)
    for instance in instances:
        (run_dir / instance.instance_id).mkdir(parents=True)
        (run_dir / instance.instance_id / "prediction.diff").write_text(
            HELLO_DIFF)
    written = {}
    for workers in (1, 2):
        monkeypatch.setattr(execution, "usable_cpus", lambda w=workers: w)
        evaluate_run(run_dir, instances)
        written[workers] = (run_dir / "evaluation.json").read_bytes()
    assert written[1] == written[2]
    payload = json.loads(written[2])
    assert [(row["instance_id"], row["applied"], row["resolved"])
            for row in payload["instances"]] == [
        ("mini-1", True, True), ("mini-2", False, False),
        ("mini-3", True, False)]


def test_a_timed_out_poc_holds_up_no_other_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(execution, "usable_cpus", lambda: 2)
    marker = tmp_path / "marker"
    slow = _mini_instance(tmp_path, f"(sleep 2; touch '{marker}') & wait",
                          instance_id="mini-1")
    fast = _mini_instance(tmp_path, "grep -q new hello.txt",
                          instance_id="mini-2")
    run_dir = tmp_path / "run"
    for instance in (slow, fast):
        (run_dir / instance.instance_id).mkdir(parents=True)
        (run_dir / instance.instance_id / "prediction.diff").write_text(
            HELLO_DIFF)
    # evaluate bounds each PoC run by the run's own poc_timeout
    write_json(run_dir / "config.json", RunConfig(poc_timeout=0.6).to_dict())
    finished = {}
    verify = harness_metrics.verify_prediction

    def timed(instance, diff, **kwargs):
        verdict = verify(instance, diff, **kwargs)
        finished[instance.instance_id] = time.monotonic()
        return verdict

    # evaluate_run looks verify_prediction up when it calls it
    monkeypatch.setattr(harness_metrics, "verify_prediction", timed)
    started = time.monotonic()
    _, (timed_out, solved) = evaluate_run(run_dir, [slow, fast])
    assert (timed_out.exit_code, timed_out.resolved) == (124, False)
    assert solved.resolved is True
    assert finished["mini-2"] < finished["mini-1"] < started + 2.0
    # the PoC's process group died with it
    time.sleep(max(0.0, started + 2.5 - time.monotonic()))
    assert not marker.exists()


@pytest.mark.parametrize("step", ["git apply", "PoC run"])
def test_a_spawn_that_fails_is_the_verdict_in_validation_and_evaluation(
        tmp_path, monkeypatch, step):
    # a full process table: the git apply spawn, or the PoC's shell,
    # cannot start. Both commands record the candidate's or prediction's
    # verdict, as for a failed copy, and go on
    spawn = subprocess.Popen

    def popen(args, *rest, **kwargs):
        if kwargs.get("shell", False) == (step == "PoC run"):
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return spawn(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    detail = (f"{step} failed: BlockingIOError: [Errno {errno.EAGAIN}] "
              f"{os.strerror(errno.EAGAIN)}")
    instance = _mini_instance(tmp_path, "grep -q new hello.txt")
    workspace = Path(instance.workspace_path)
    outcome = validate_candidate(
        HELLO_EDIT, RepoIndex(workspace),
        PristineCopy(AheadCopies(workspace), instance.repro_command))
    assert (outcome.poc_pass, outcome.failure) == (False, detail)
    run_dir = tmp_path / "run"
    (run_dir / "mini-1").mkdir(parents=True)
    (run_dir / "mini-1" / "prediction.diff").write_text(HELLO_DIFF)
    evaluate_run(run_dir, [instance])
    (row,) = json.loads((run_dir / "evaluation.json").read_text())[
        "instances"]
    assert (row["resolved"], row["detail"]) == (False, detail)
    assert os.listdir(temp) == []  # each judge removed its copy


# edits that rewrite the fixture's PoC harness, secb.sh, so that the
# PoC passes without a fix
HARNESS_EDITS = {
    "poc-replaced-by-exit-0": (
        "### secb.sh\n<<<<<<< SEARCH\n"
        "exec ./build/poc AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA\n"
        "=======\nexit 0\n>>>>>>> REPLACE\n"),
    "asan-dropped": (
        "### secb.sh\n<<<<<<< SEARCH\n"
        "if ! gcc -fsanitize=address -g -O0 -I. $EXTRA src/buf.c src/main.c"
        " -o build/poc; then\n=======\n"
        "if ! gcc -g -O0 -I. $EXTRA src/buf.c src/main.c -o build/poc; then"
        "\n>>>>>>> REPLACE\n"),
}


@pytest.mark.parametrize("edit", HARNESS_EDITS.values(),
                         ids=list(HARNESS_EDITS))
def test_a_patch_to_the_poc_harness_is_rejected(fixtures_dir, scratch_crepo,
                                                edit):
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    candidate = CandidatePatch(index=0, temperature=0.0, raw_text=edit,
                               edits=tuple(parse_edit_blocks(edit)))
    outcome = validate_candidate(
        candidate, RepoIndex(scratch_crepo),
        PristineCopy(AheadCopies(scratch_crepo), instance.repro_command))
    assert outcome.applied and "secb.sh" in outcome.diff
    assert (outcome.compiled, outcome.poc_pass) == (False, False)
    assert outcome.failure == "touches the PoC harness: secb.sh"

    verdict = verify_prediction(instance, outcome.diff)
    assert (verdict.applied, verdict.resolved) == (False, False)
    assert verdict.detail == "touches the PoC harness: secb.sh"


SECB_POC_TO_EXIT_0 = (
    "@@ -17 +17 @@\n-exec ./build/poc AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA\n"
    "+exit 0\n")
BUF_FIX = ("diff --git a/src/buf.c b/src/buf.c\n--- a/src/buf.c\n"
           "+++ b/src/buf.c\n@@ -13,3 +13,3 @@ void copy_name(char *dst, "
           "size_t cap, const char *src)\n"
           "-    if (len > cap) {\n-        len = cap;\n"
           "+    if (len >= cap) {\n+        len = cap - 1;\n     }\n")

# diffs that `git apply` takes and that change secb.sh, each naming it in
# another way
HARNESS_DIFFS = {
    # git's C-quoted form of "secb.sh": \142 is "b"
    "quoted-name": ('diff --git "a/sec\\142.sh" "b/sec\\142.sh"\n'
                    '--- "a/sec\\142.sh"\n+++ "b/sec\\142.sh"\n'
                    + SECB_POC_TO_EXIT_0),
    "renamed-away": ("diff --git a/secb.sh b/run.sh\nsimilarity index 100%\n"
                     "rename from secb.sh\nrename to run.sh\n"),
    "mode-changed": ("diff --git a/secb.sh b/secb.sh\nold mode 100755\n"
                     "new mode 100644\n"),
    "deleted": None,  # built from the file, in the test
    "bundled-with-the-fix": (BUF_FIX + "diff --git a/secb.sh b/secb.sh\n"
                             "--- a/secb.sh\n+++ b/secb.sh\n"
                             + SECB_POC_TO_EXIT_0),
}


@pytest.mark.parametrize("kind", list(HARNESS_DIFFS))
def test_a_diff_that_changes_the_harness_is_rejected_however_it_names_it(
        fixtures_dir, scratch_crepo, kind):
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    diff = HARNESS_DIFFS[kind]
    if diff is None:
        lines = (scratch_crepo / "secb.sh").read_text().splitlines()
        diff = ("diff --git a/secb.sh b/secb.sh\ndeleted file mode 100755\n"
                f"--- a/secb.sh\n+++ /dev/null\n@@ -1,{len(lines)} +0,0 @@\n"
                + "".join(f"-{line}\n" for line in lines))
    before = snapshot(scratch_crepo)
    verdict = verify_prediction(instance, diff)
    assert (verdict.applied, verdict.resolved) == (False, False)
    assert verdict.detail == "touches the PoC harness: secb.sh"
    assert snapshot(scratch_crepo) == before


@needs_gcc
def test_a_content_line_that_reads_as_a_harness_header_is_no_header(
        fixtures_dir, scratch_crepo):
    # the added line "++ b/secb.sh" is the hunk line "+++ b/secb.sh"
    edit = REFERENCE_FIX.replace("    }\n>>>>>>>",
                                 "    }\n/*\n++ b/secb.sh\n*/\n>>>>>>>")
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    candidate = CandidatePatch(index=0, temperature=0.0, raw_text=edit,
                               edits=tuple(parse_edit_blocks(edit)))
    outcome = validate_candidate(
        candidate, RepoIndex(scratch_crepo),
        PristineCopy(AheadCopies(scratch_crepo), instance.repro_command))
    assert "\n+++ b/secb.sh\n" in outcome.diff
    assert (outcome.failure, outcome.poc_pass) == (None, True)
    verdict = verify_prediction(instance, outcome.diff)
    assert (verdict.applied, verdict.resolved) == (True, True)


def test_verify_reports_a_temp_directory_it_cannot_make(tmp_path,
                                                         monkeypatch):
    def refuse(**kwargs):
        raise PermissionError(13, "Permission denied", "/no-temp")

    monkeypatch.setattr(tempfile, "mkdtemp", refuse)
    verdict = verify_prediction(_mini_instance(tmp_path, "true"), HELLO_DIFF)
    assert (verdict.applied, verdict.resolved) == (False, False)
    assert verdict.detail == ("workspace copy failed: PermissionError: "
                              "[Errno 13] Permission denied: '/no-temp'")


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


def test_run_stops_without_git_before_any_model_call(fixtures_dir,
                                                     tmp_path, monkeypatch):
    # without git every candidate would fail to apply, so the batch
    # stops before its first instance, as evaluate does
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    (tmp_path / "empty").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    asked = []
    run_dir = tmp_path / "run"
    with pytest.raises(FileNotFoundError, match="git"):
        run_all([instance], variant("full"), asked.append, run_dir)
    assert asked == []
    assert not (run_dir / instance.instance_id).exists()
    with pytest.raises(FileNotFoundError, match="git"):
        evaluate_run(run_dir, [instance])

    instances = str(fixtures_dir / "instances.jsonl")
    script = str(fixtures_dir / "replays" / "full.json")
    for argv in (["run", "--instances", instances, "--out", str(run_dir),
                  "--backend", f"replay:{script}"],
                 ["evaluate", "--run", str(run_dir),
                  "--instances", instances]):
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        assert str(stopped.value.code).startswith(
            f"vulnmend {argv[0]}: no `git` on PATH")
    assert not (run_dir / instance.instance_id).exists()


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
        HELLO_EDIT, RepoIndex(workspace),
        PristineCopy(AheadCopies(workspace), command, timeout=timeout))
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
def test_two_replays_of_full_send_the_same_prompts(fixtures_dir, tmp_path):
    # the PoC excerpts in the prompts carry no address that address space
    # randomization moves from run to run
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    digests = []
    for name in ("a", "b"):
        llm = ReplayBackend(build_entries(True, True))
        run_instance(instance, variant("full"), llm, tmp_path / name)
        digests.append([r.messages_sha256 for r in llm.records])
    assert len(digests[0]) == 16
    assert digests[0] == digests[1]


def at_spa_end(monkeypatch, look) -> list:
    """What look(the property agent's workspace) returns when the agent
    ends: its temp copy is not yet removed. One entry per spa run."""
    seen = []
    spa = pipeline.run_spa_agent

    def watched(llm, index, *args, **kwargs):
        try:
            return spa(llm, index, *args, **kwargs)
        finally:
            seen.append(look(index.root))

    monkeypatch.setattr(pipeline, "run_spa_agent", watched)
    return seen


@needs_gcc
def test_replay_run_instance_spawns_git_only_to_apply_candidates(
        fixtures_dir, tmp_path, monkeypatch):
    spawned = []

    class RecordingPopen(subprocess.Popen):
        # subprocess.run starts its processes through Popen too
        def __init__(self, args, *rest, **kwargs):
            spawned.append(args.split() if isinstance(args, str)
                           else list(args))
            super().__init__(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    agents_git = at_spa_end(
        monkeypatch, lambda workspace: (workspace / ".git").exists())
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    result = run_instance(instance, variant("full"),
                          ReplayBackend(build_entries(True, True)), tmp_path)

    assert result.winner is not None and not result.errors
    assert spawned  # the PoC builds were seen
    # the edit history runs no git; validation applies the diff of each
    # distinct program (candidates 0 and 2) with `git apply`, as
    # evaluate applies a prediction
    assert [argv for argv in spawned if argv[:1] == ["git"]] \
        == [["git", "apply", "--whitespace=nowarn", "-"]] * 2
    instance_dir = tmp_path / instance.instance_id
    assert not (instance_dir / "base").exists()
    assert agents_git == [False]


@needs_gcc
def test_replayed_prompts_carry_no_shadow_byte_map(fixtures_dir, tmp_path):
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    llm = RecordingReplay(build_entries(True, True))
    result = run_instance(instance, variant("full"), llm, tmp_path)
    assert result.winner is not None and not result.errors

    sent = [m["content"] for r in llm.requests for m in r.messages]
    assert not any("Shadow byte" in content for content in sent)
    last_spa = [r for r in llm.requests if r.tag == "spa"][-1]
    observations = {m["content"].split("'")[1]: m["content"]
                    for m in last_spa.messages
                    if m.get("name") == "run_poc"}
    assert set(observations) == {"baseline", "bounds-probe"}
    for name, observation in observations.items():
        assert "sanitizer TRIGGERED" in observation
        assert (f"lines of ASan shadow byte map elided; full log stored as "
                f"'{name}'] ..." in observation)
    # the scratch script still reads the stored log by its name
    script = [m["content"] for m in last_spa.messages
              if m.get("name") == "run_python_code"]
    assert script == ["1\n"]


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
    # the missing input is named as the workspace it was to become
    assert broken_result.errors == [{
        "stage": "workspace",
        "error": "FileNotFoundError: [Errno 2] No such file or directory: "
                 "'workspace'"}]
    assert (run_dir / "gone-1" / "prediction.diff").read_bytes() == b""
    telemetry = json.loads(
        (run_dir / "gone-1" / "telemetry.json").read_text())
    assert telemetry["errors"] == broken_result.errors
    assert good_result.winner is not None and not good_result.errors

    metrics, _ = evaluate_run(run_dir, [broken, good])
    assert (metrics.total, metrics.resolved) == (2, 1)


def _refuse_writes_into(monkeypatch, refused_dirs):
    def refusing(write):
        def wrapped(path, payload):
            if Path(path).parent in refused_dirs:
                raise PermissionError(13, "Permission denied", str(path))
            write(path, payload)
        return wrapped

    for name in ("write_text", "write_json"):
        monkeypatch.setattr(pipeline, name,
                            refusing(getattr(pipeline, name)))


@needs_gcc
def test_a_failed_artifact_write_does_not_abort_the_batch(
        fixtures_dir, tmp_path, monkeypatch):
    first = load_instances(fixtures_dir / "instances.jsonl")[0]
    second = dataclasses.replace(first, instance_id="namecache-obo-2")
    run_dir = tmp_path / "run"
    refused = run_dir / first.instance_id / "candidates"
    _refuse_writes_into(monkeypatch, {refused})
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
def test_a_failed_header_write_is_a_spa_stage_error(fixtures_dir, tmp_path,
                                                    monkeypatch):
    def refuse(path, text):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(spa_agent, "write_text", refuse)
    first = load_instances(fixtures_dir / "instances.jsonl")[0]
    second = dataclasses.replace(first, instance_id="namecache-obo-2")
    # the agent fails before its first model call
    results = run_all(
        [first, second], variant("spa"),
        lambda _: ReplayBackend(build_entries(False, False)), tmp_path / "run")
    for result in results:
        assert result.errors == [{
            "stage": "spa",
            "error": "PermissionError: [Errno 13] Permission denied: "
                     "'workspace/safety_property_assert.h'"}]
        assert result.winner == 0


@needs_gcc
def test_a_failed_write_is_recorded_without_the_run_directory(
        fixtures_dir, tmp_path, monkeypatch):
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    runs = [tmp_path / "run", tmp_path / "elsewhere" / "second-run"]
    _refuse_writes_into(monkeypatch, {
        run / instance.instance_id / "candidates" for run in runs})
    for run in runs:
        (result,) = run_all(
            [instance], variant("base"),
            lambda _: ReplayBackend(build_entries(False, False)), run)
        assert result.errors[0] == {
            "stage": "write candidates/candidate-0.md",
            "error": "PermissionError: [Errno 13] Permission denied: "
                     "'candidates/candidate-0.md'"}
    first, second = ((run / instance.instance_id / "telemetry.json")
                     .read_bytes() for run in runs)
    assert first == second


def test_describe_error_names_files_relative_to_their_roots(tmp_path):
    run = tmp_path / "run"
    source = tmp_path / "src"

    def described(filename, filename2=None):
        # the fourth argument is the Windows error code
        return describe_error(
            PermissionError(13, "Permission denied", str(filename), None,
                            filename2 and str(filename2)),
            {run: "", source: "workspace"})

    assert described(run / "a" / "b.md") == (
        "PermissionError: [Errno 13] Permission denied: 'a/b.md'")
    assert described(run) == (
        "PermissionError: [Errno 13] Permission denied: '.'")
    assert described(source / "x.c", run / "workspace" / "x.c") == (
        "PermissionError: [Errno 13] Permission denied: 'workspace/x.c' "
        "-> 'workspace/x.c'")
    # a path that only shares a root's prefix is not under it
    sibling = str(tmp_path / "run2" / "f")
    assert described(sibling).endswith(f"'{sibling}'")
    # the longer root wins when one root holds the other
    nested = describe_error(FileNotFoundError(2, "gone", str(run / "in" / "f")),
                            {run: "", run / "in": "workspace"})
    assert nested == "FileNotFoundError: [Errno 2] gone: 'workspace/f'"
    assert describe_error(ValueError("bad"), {run: ""}) == "ValueError: bad"


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


def test_an_error_judging_a_program_is_a_stage_error_of_its_candidates(
        fixtures_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(execution, "usable_cpus", lambda: 2)
    judge = PristineCopy.judge

    def failing(self, diff, name):
        if name == "validate-0":
            raise OSError("disk gone")
        return judge(self, diff, name)

    monkeypatch.setattr(PristineCopy, "judge", failing)
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        repro_command="grep -q 'len >= cap' src/buf.c")
    result = run_instance(instance, variant("base"),
                          ReplayBackend(build_entries(False, False)),
                          tmp_path)

    # candidates 0 and 1 are one program; the other outcomes stay
    assert result.errors == [
        {"stage": "validate-0", "error": "OSError: disk gone"},
        {"stage": "validate-1", "error": "OSError: disk gone"}]
    outcomes = json.loads((tmp_path / instance.instance_id / "candidates"
                           / "outcomes.json").read_text())
    assert [(o["index"], o["applied"], o["poc_pass"]) for o in outcomes] == [
        (2, True, False), (3, False, False), (4, False, False)]


# a correct clamp that keeps the property agent's probe: it builds only
# where the agent's assertion header is
ASSERTED_FIX = REFERENCE_FIX.replace(
    "        len = cap - 1;\n    }\n",
    "        len = cap - 1;\n    }\n"
    '    SAFETY_PROPERTY_ASSERT(len < cap, "p1");\n')


@needs_gcc
def test_validation_judges_a_candidate_as_evaluate_does(fixtures_dir,
                                                        tmp_path):
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    # five samples of one program, which validation judges once
    entries = spa_entries() + localization_entries() + [
        {"expect": "generate", "response": {"text": ASSERTED_FIX}}] * 5
    result = run_instance(instance, variant("spa"), ReplayBackend(entries),
                          tmp_path)
    assert not result.errors
    candidates = tmp_path / instance.instance_id / "candidates"
    outcome, *others = json.loads((candidates / "outcomes.json").read_text())
    assert [o["poc_run_of"] for o in others] == [0] * 4
    verdict = verify_prediction(
        instance, (candidates / "candidate-0.diff").read_bytes())
    # the property agent's header is in neither pristine copy, so the
    # candidate builds in neither, and it cannot win the vote
    assert outcome["applied"] and verdict.applied
    assert (outcome["compiled"], outcome["poc_pass"]) == (False, False)
    assert (verdict.exit_code, verdict.resolved) == (2, False)
    assert result.winner is None and result.prediction == ""


@needs_gcc
def test_validation_leaves_both_trees_as_they_were_and_copies_once(
        fixtures_dir, scratch_crepo, tmp_path, monkeypatch):
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    # three workers, whatever the host's CPU count
    monkeypatch.setattr(execution, "usable_cpus", lambda: 3)
    copies, from_workspace = [], []
    copytree = shutil.copytree

    def counted(src, dst, *args, **kwargs):
        # copytree calls itself for each subdirectory; the first copy is
        # the property agent's workspace
        if Path(src) == scratch_crepo:
            copies.append((Path(dst), threading.current_thread()))
        elif copies and Path(src) == copies[0][0]:
            from_workspace.append(dst)
        return copytree(src, dst, *args, **kwargs)

    monkeypatch.setattr(shutil, "copytree", counted)
    judged = []

    class Recorded(LocalSandbox):
        def __init__(self, root):
            judged.append(Path(root))
            super().__init__(root)

    # the judges' sandboxes; the agent's one is looked up in the pipeline
    monkeypatch.setattr(execution, "LocalSandbox", Recorded)
    seen = []
    validate = pipeline.validate_candidate

    def watched(*args, **kwargs):
        if not seen:
            # the agents ran long enough for every copy made ahead
            join_the_copier()
        seen.append((copies[0][0].exists(), snapshot(scratch_crepo),
                     len(copies)))
        try:
            return validate(*args, **kwargs)
        finally:
            seen.append((copies[0][0].exists(), snapshot(scratch_crepo),
                         len(copies)))

    monkeypatch.setattr(pipeline, "validate_candidate", watched)
    result = run_instance(instance, variant("full"),
                          ReplayBackend(build_entries(True, True)),
                          tmp_path / "run")

    assert result.winner == 0 and not result.errors
    assert len(seen) == 10
    # the input does not change, and the property agent's copy is gone
    # before validation starts
    assert len({source for _, source, _ in seen}) == 1
    assert {exists for exists, _, _ in seen} == {False}
    # the copier makes every copy: first the property agent's workspace,
    # in a temp dir of its own, then one per pool worker, 3, before
    # validation, which makes none of its own. Nothing is copied from the
    # agent's workspace
    workspace, _ = copies[0]
    assert (workspace.parent.parent, workspace.name) == (temp, "workspace")
    assert workspace.parent.name.startswith("agents-")
    assert all(is_the_copier(thread) for _, thread in copies)
    assert all(path.parent.name.startswith("pristine-")
               for path, _ in copies[1:])
    assert (seen[0][2], seen[-1][2]) == (4, 4)
    assert from_workspace == []
    # each distinct program, 2, runs its PoC in a copy of its own
    assert len(judged) == len(set(judged)) == 2
    assert set(judged) <= {path for path, _ in copies[1:]}
    # and the validation copies, used or not, are gone
    assert list(temp.iterdir()) == []
    assert not (tmp_path / "run" / instance.instance_id
                / "workspace").exists()


def test_a_replay_desync_leaves_no_copy_and_no_copier(fixtures_dir,
                                                      tmp_path, monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(execution, "usable_cpus", lambda: 2)
    entries = build_entries(True, True)
    first_spa = next(k for k, entry in enumerate(entries)
                     if entry["expect"] == "spa")
    entries[first_spa] = {**entries[first_spa], "expect": "generate"}

    class Desyncs(ReplayBackend):
        def chat(self, request):
            if request.tag == "spa":
                # the copies made ahead are finished when spa desyncs,
                # and the agent works in a temp copy of its own
                join_the_copier()
                assert len(list(temp.glob("pristine-*"))) == 2
                assert len(list(temp.glob("agents-*"))) == 1
            return super().chat(request)

    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    with pytest.raises(ReplayDesync):
        run_instance(instance, variant("full"), Desyncs(entries),
                     tmp_path / "run")
    assert list(temp.iterdir()) == []
    assert not copier_running()
    # no artifact was written before spa, so the instance has no
    # directory, and no workspace in it
    assert not (tmp_path / "run" / instance.instance_id).exists()


def _rows_threads() -> list:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("chunk-rows")]


def test_a_replay_desync_in_spa_stops_the_rows_job_between_files(
        fixtures_dir, tmp_path, monkeypatch):
    started = threading.Event()
    chunked = []
    chunk_file = localization.chunk_file

    def slow(text, chunk_lines):
        chunked.append(text)
        started.set()
        time.sleep(0.2)
        return chunk_file(text, chunk_lines)

    monkeypatch.setattr(localization, "chunk_file", slow)
    entries = build_entries(False, True)
    entries[0] = {**entries[0], "expect": "generate"}

    class Desyncs(ReplayBackend):
        def chat(self, request):
            if request.tag == "spa":
                # the rows job is on its first file when spa desyncs
                assert started.wait(10)
                assert _rows_threads()
            return super().chat(request)

    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    with pytest.raises(ReplayDesync):
        run_instance(instance, variant("spa"), Desyncs(entries),
                     tmp_path / "run")
    assert _rows_threads() == []
    assert 1 <= len(chunked) < len(RepoIndex(instance.workspace_path).files())


@needs_gcc
@pytest.mark.parametrize("name", ["base", "cpc", "full"])
def test_rows_are_made_ahead_once_spa_holds_its_copy(name, fixtures_dir,
                                                     tmp_path, monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    events = []
    submit = pipeline._RowsAhead.submit

    def watched_submit(self, index):
        # the rows are of the input, read in place, not of spa's copy
        assert index.root == Path(instance.workspace_path)
        events.append(("submit", len(list(temp.glob("agents-*")))))
        return submit(self, index)

    spa = pipeline.run_spa_agent

    def watched_spa(*args, **kwargs):
        events.append("spa")
        return spa(*args, **kwargs)

    retrieval = pipeline.localize_files_retrieval

    def watched_retrieval(*args, rows=None, **kwargs):
        events.append(("retrieval", "inline" if rows is None
                       else "ahead" if rows.done() else "pending"))
        return retrieval(*args, rows=rows, **kwargs)

    monkeypatch.setattr(pipeline._RowsAhead, "submit", watched_submit)
    monkeypatch.setattr(pipeline, "run_spa_agent", watched_spa)
    monkeypatch.setattr(pipeline, "localize_files_retrieval",
                        watched_retrieval)
    cfg = variant(name)
    result = run_instance(instance, cfg, ReplayBackend(build_entries(
        cfg.enable_cpc, cfg.enable_spa)), tmp_path / "run")
    assert result.winner is not None and not result.errors
    assert events == ([("submit", 1), "spa", ("retrieval", "ahead")]
                      if cfg.enable_spa else [("retrieval", "inline")])
    files = json.loads((tmp_path / "run" / instance.instance_id / "rankings"
                        / "files.json").read_text())
    assert len(files["retrieval"]) == 3


@needs_gcc
@pytest.mark.parametrize("rel, errors", [
    ("njs/src/njs_array.c", []),
    ("src/extra.c", [{"stage": "localize_retrieval",
                      "error": "PermissionError: [Errno 13] Permission "
                               "denied: 'workspace/src/extra.c'"}]),
], ids=["ignored", "not-ignored"])
def test_an_unreadable_input_file_is_one_retrieval_error_with_or_without_spa(
        rel, errors, fixtures_dir, scratch_crepo, tmp_path, monkeypatch):
    (scratch_crepo / "src" / "extra.c").write_text("int extra;\n")
    unreadable = scratch_crepo / rel
    read_bytes = Path.read_bytes

    def refusing(self):
        # the input's file only, not spa's copy of it
        if self == unreadable:
            raise PermissionError(13, "Permission denied", str(self))
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", refusing)
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    for name in ("spa", "base"):
        cfg = variant(name)
        result = run_instance(instance, cfg, ReplayBackend(build_entries(
            cfg.enable_cpc, cfg.enable_spa)), tmp_path / name)
        assert result.errors == errors, name
        assert result.winner is not None


@needs_gcc
@pytest.mark.parametrize("name, agents_copies", [("base", 0), ("cpc", 0),
                                                 ("full", 1)])
def test_only_spa_gets_a_copy_and_it_is_gone_when_spa_ends(
        name, agents_copies, fixtures_dir, tmp_path, monkeypatch):
    made = []
    mkdtemp = tempfile.mkdtemp

    def recorded(*args, **kwargs):
        made.append(Path(mkdtemp(*args, **kwargs)))
        return str(made[-1])

    monkeypatch.setattr(tempfile, "mkdtemp", recorded)
    left = at_spa_end(monkeypatch, lambda workspace: None)
    at_validation = []
    validate = pipeline.validate_candidate

    def watched(*args, **kwargs):
        at_validation.append([path for path in made if path.exists()
                              and path.name.startswith("agents-")])
        return validate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "validate_candidate", watched)
    cfg = variant(name)
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    result = run_instance(instance, cfg, ReplayBackend(build_entries(
        cfg.enable_cpc, cfg.enable_spa)), tmp_path / "run")

    assert result.winner is not None and not result.errors
    assert len([path for path in made
                if path.name.startswith("agents-")]) == agents_copies
    assert len(left) == agents_copies
    assert at_validation and all(seen == [] for seen in at_validation)


def _tree_state(root: Path) -> dict:
    """Every path under root, and root itself, with its mode and a
    file's bytes or a link's target."""
    state = {}
    for path in [root, *sorted(root.rglob("*"))]:
        info = path.lstat()
        if path.is_symlink():
            content = os.readlink(path)
        elif path.is_file():
            content = path.read_bytes()
        else:
            content = None
        state[path.relative_to(root).as_posix()] = (info.st_mode, content)
    return state


@needs_gcc
def test_a_full_run_and_evaluation_leave_the_input_as_it_was(
        fixtures_dir, scratch_crepo, tmp_path):
    (scratch_crepo / "secb.sh").chmod(0o755)
    (scratch_crepo / "src" / "alias.h").symlink_to("buf.h")
    before = _tree_state(scratch_crepo)
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    run_dir = tmp_path / "run"
    (result,) = run_all([instance], variant("full"),
                        lambda _: ReplayBackend(build_entries(True, True)),
                        run_dir)
    metrics, _ = evaluate_run(run_dir, [instance])

    assert result.winner is not None and not result.errors
    assert metrics.resolved == 1
    assert _tree_state(scratch_crepo) == before


def test_validation_reports_an_input_gone_before_its_judges_copy(
        fixtures_dir, scratch_crepo, tmp_path, monkeypatch):
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo),
        repro_command="grep -q 'len >= cap' src/buf.c")
    # the candidates are applied in memory to the input's text; then the
    # input goes, before any judge copies it, and no copy is made ahead
    in_pool = repair.in_pool

    def then_gone(jobs, work):
        shutil.rmtree(scratch_crepo)
        return in_pool(jobs, work)

    monkeypatch.setattr(repair, "in_pool", then_gone)
    monkeypatch.setattr(pipeline, "AheadCopies", lambda source, prefixes: (
        execution.AheadCopies(source, ())))
    result = run_instance(instance, variant("base"),
                          ReplayBackend(build_entries(False, False)),
                          tmp_path / "run")

    assert result.winner is None and not result.errors
    outcomes = json.loads((tmp_path / "run" / instance.instance_id
                           / "candidates" / "outcomes.json").read_text())
    gone = ("workspace copy failed: FileNotFoundError: [Errno 2] No such "
            "file or directory: 'workspace'")
    assert [(o["applied"], o["poc_pass"], o["failure"])
            for o in outcomes[:3]] == [(True, False, gone)] * 3


def test_an_input_gone_after_cpc_ends_its_instance_not_the_batch(
        fixtures_dir, scratch_crepo, tmp_path, monkeypatch):
    first = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        repro_command="grep -q 'len >= cap' src/buf.c")
    instances = [dataclasses.replace(first, instance_id="gone",
                                     workspace_path=str(scratch_crepo)),
                 dataclasses.replace(first, instance_id="kept")]
    cpc = pipeline.run_cpc_agent

    def then_gone(llm, index, *args, **kwargs):
        try:
            return cpc(llm, index, *args, **kwargs)
        finally:
            shutil.rmtree(scratch_crepo, ignore_errors=True)

    monkeypatch.setattr(pipeline, "run_cpc_agent", then_gone)
    gone, kept = run_all(instances, variant("cpc"),
                         lambda _: ReplayBackend(build_entries(True, False)),
                         tmp_path / "run")

    # the patch context cannot be read, so generation fails as a stage
    assert gone.winner is None and gone.prediction == ""
    assert gone.errors[-1] == {"stage": "generate",
                               "error": "FileNotFoundError: src/buf.c"}
    assert kept.winner is not None and not kept.errors


@needs_gcc
def test_the_copies_no_judge_took_are_gone_before_selection(
        fixtures_dir, tmp_path, monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    # four copies made ahead for the fixture's two distinct programs
    monkeypatch.setattr(execution, "usable_cpus", lambda: 4)
    left = []
    select = pipeline.select_patch

    def watched(*args, **kwargs):
        left.append(sorted(path.name for path in temp.iterdir()))
        return select(*args, **kwargs)

    monkeypatch.setattr(pipeline, "select_patch", watched)
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    result = run_instance(instance, variant("full"),
                          ReplayBackend(build_entries(True, True)),
                          tmp_path / "run")
    assert result.winner == 0 and not result.errors
    assert left == [[]]


@needs_gcc
def test_spas_copy_takes_the_inputs_listing_so_a_link_out_stays_unlisted(
        fixtures_dir, scratch_crepo, tmp_path, monkeypatch):
    write_text(tmp_path / "outside" / "s.c",
               "int outside_fn(void)\n{\n  return 1;\n}\n")
    (scratch_crepo / "src" / "out.c").symlink_to("../../outside/s.c")
    listed = []
    source_files = repo_model.source_files
    monkeypatch.setattr(repo_model, "source_files", lambda root: (
        listed.append(Path(root)) or source_files(root)))
    seen = []
    spa = pipeline.run_spa_agent

    def watched(llm, index, *args, **kwargs):
        copied = index.root / "src" / "out.c"
        seen.append((copied.is_file() and not copied.is_symlink(),
                     index.files(),
                     index.files_with_word(WholeWord("outside_fn"))))
        return spa(llm, index, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_spa_agent", watched)
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    # spa's first step reads the link by name
    entries = build_entries(True, True)
    first_spa = next(k for k, entry in enumerate(entries)
                     if entry["expect"] == "spa")
    entries.insert(first_spa, {"expect": "spa", "response": {
        "tool": "read_code",
        "args": {"file": "src/out.c", "center": 1, "num": 4}}})
    llm = RecordingReplay(entries)
    result = run_instance(instance, variant("full"), llm, tmp_path / "run")

    assert result.winner is not None and not result.errors
    # one listing, of the input, serves every stage, spa's copy included
    assert listed == [scratch_crepo]
    ((regular, files, found),) = seen
    # in the copy the link is a regular file, yet spa's tree and search
    # leave it out, as the input's readers do
    assert regular
    assert "src/out.c" not in files and found == []
    first, second = [r for r in llm.requests if r.tag == "spa"][:2]
    assert not any("out.c" in (m["content"] or "")
                   for m in first.messages)
    # and spa's reader refuses it by name, as the input's index does
    observation = second.messages[-1]["content"]
    assert observation == "Error: src/out.c is outside the workspace"
    assert "outside_fn" not in observation


@pytest.mark.parametrize("prefix", ["agents-", "pristine-"])
def test_a_failed_copy_names_the_workspace_not_its_temp_dir(
        prefix, fixtures_dir, tmp_path, monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    copyfile = shutil.copyfile

    def full_disk(src, dst, *args, **kwargs):
        # copytree copies each file through copy2, which calls copyfile
        if Path(dst).name == "buf.c" and str(dst).startswith(
                str(temp / prefix)):
            raise OSError(28, "No space left on device", str(dst))
        return copyfile(src, dst, *args, **kwargs)

    monkeypatch.setattr(shutil, "copyfile", full_disk)
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    # the property agent's copy fails before its first request, so spa's
    # run replays base's script
    result = run_instance(instance, variant(
        "spa" if prefix == "agents-" else "base"),
        ReplayBackend(build_entries(False, False)), tmp_path / "run")

    # the input's file is `workspace/...`, the copy's `copy/...`, so a
    # full temp disk reads otherwise than an unreadable input
    error = ("Error: [('workspace/src/buf.c', 'copy/src/buf.c', "
             "\"[Errno 28] No space left on device: 'copy/src/buf.c'\")]")
    if prefix == "agents-":
        # the agent's stage fails; the run goes on without its report
        assert result.errors == [{"stage": "spa", "error": error}]
    else:
        assert not result.errors
        outcomes = json.loads((tmp_path / "run" / instance.instance_id
                               / "candidates" / "outcomes.json").read_text())
        failures = {o["failure"] for o in outcomes if o["applied"]}
        assert failures == {"workspace copy failed: " + error}
    assert list(temp.iterdir()) == []


# five candidates, four distinct programs: the fix (passes), the fix
# again with a comment, a comment alone (fails), two other clamps (pass)
_FOUR_PROGRAMS = [REFERENCE_FIX, COMMENTED_FIX, COMMENT_ONLY_PATCH,
                  REFERENCE_FIX.replace("cap - 1;", "cap - 2;"),
                  REFERENCE_FIX.replace("cap - 1;", "cap - 3;")]


def test_outcomes_do_not_depend_on_how_many_copies_are_made_ahead(
        fixtures_dir, tmp_path, monkeypatch):
    # a PoC that a copy judged before would fail
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        repro_command="test ! -e .stale && touch .stale "
                      "&& grep -q 'len >= cap' src/buf.c")
    entries = localization_entries() + [
        {"expect": "generate", "response": {"text": text}}
        for text in _FOUR_PROGRAMS]
    written = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(execution, "usable_cpus", lambda w=workers: w)
        out = tmp_path / f"run-{workers}" / instance.instance_id
        run_instance(instance, variant("base"), ReplayBackend(entries),
                     out.parent)
        written[workers] = {path.relative_to(out): path.read_bytes()
                            for path in sorted(out.rglob("*"))
                            if path.is_file()}
    assert written[1] == written[2] == written[3]
    outcomes = json.loads(written[1][Path("candidates/outcomes.json")])
    assert [(o["applied"], o["poc_pass"], o["poc_run_of"])
            for o in outcomes] == [(True, True, None), (True, True, 0),
                                   (True, False, None), (True, True, None),
                                   (True, True, None)]


@needs_gcc
def test_dangling_symlink_in_workspace_is_skipped(fixtures_dir,
                                                 scratch_crepo, tmp_path,
                                                 monkeypatch):
    (scratch_crepo / "src" / "stale.h").symlink_to("nowhere.h")
    # valid relative links, whose targets do not exist from the process's
    # working directory: they are copied as the files they point to
    (scratch_crepo / "src" / "alias.h").symlink_to("buf.h")
    (scratch_crepo / "cpp" / "buf.h").symlink_to("../src/buf.h")
    instance = dataclasses.replace(
        load_instances(fixtures_dir / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    run_dir = tmp_path / "run"
    header = (scratch_crepo / "src" / "buf.h").read_bytes()
    # what the property agent's copy holds once the agent is done with it
    seen = at_spa_end(monkeypatch, lambda workspace: (
        [((workspace / rel).is_symlink(), (workspace / rel).read_bytes())
         for rel in ("src/alias.h", "cpp/buf.h")],
        (workspace / "src" / "stale.h").exists()))
    (result,) = run_all([instance], variant("full"),
                        lambda _: ReplayBackend(build_entries(True, True)),
                        run_dir)
    assert result.winner is not None and not result.errors
    assert seen == [([(False, header)] * 2, False)]

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


class _Recording(ReplayBackend):
    """Replay that also keeps every request it is sent."""

    def __init__(self, script):
        super().__init__(script)
        self.requests = []

    def chat(self, request):
        self.requests.append(request)
        return super().chat(request)


@needs_gcc
def test_prompts_do_not_depend_on_the_workspace_path(fixtures_dir,
                                                     tmp_path):
    # PoC logs name the binary by its absolute path and carry the
    # sanitizer's pid; both are masked before a log enters a prompt
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    sizes = []
    for out in (tmp_path / "a", tmp_path / "a-much-longer-run-directory"):
        llm = _Recording(build_entries())
        (result,) = run_all([instance], variant("full"), lambda _: llm, out)
        assert result.winner is not None and not result.errors
        sizes.append(sum(len(m.get("content") or "")
                         for r in llm.requests for m in r.messages))
    assert sizes[0] == sizes[1]


@needs_gcc
def test_no_prompt_lists_the_assert_header(fixtures_dir, tmp_path):
    # the property agent installs the header once the repository tree is
    # taken, so only its own system prompt names it; its instrumented
    # builds still find it
    instance = load_instances(fixtures_dir / "instances.jsonl")[0]
    llm = _Recording(build_entries())
    (result,) = run_all([instance], variant("full"), lambda _: llm,
                        tmp_path / "run")
    assert result.winner is not None and not result.errors
    mentions = [(request.tag, message["role"])
                for request in llm.requests for message in request.messages
                if "safety_property_assert.h" in (message.get("content")
                                                  or "")]
    assert mentions == [("spa", "system")] * 6
    observations = [message.get("content") or ""
                    for request in llm.requests if request.tag == "spa"
                    for message in request.messages]
    assert any("Safety property assertions: len_below_cap: 0 PASS, 1 FAIL"
               in text for text in observations)


def test_write_keeps_non_utf8_diff_bytes(tmp_path):
    source = b"/* caf\xe9 */\nint x = 1;\n"
    for side in ("before", "after"):
        (tmp_path / side / "src").mkdir(parents=True)
        (tmp_path / side / "src" / "a.c").write_bytes(source)
    history = EditHistory(RepoIndex(tmp_path / "after"))
    history.apply_edits("bump", "### src/a.c\n<<<<<<< SEARCH\nint x = 1;\n"
                                "=======\nint x = 2;\n>>>>>>> REPLACE\n")
    diff = to_unified_diff(
        {"src/a.c": source.decode("utf-8", "surrogateescape")},
        {"src/a.c": repo_model.read_text(tmp_path / "after" / "src" / "a.c")})
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
    run_dir = tmp_path / "run"
    repo_model.write_text(run_dir / "mini-1" / "prediction.diff",
                          to_unified_diff(*edited_texts(
                              RepoIndex(workspace),
                              "### src/a.c\n<<<<<<< SEARCH\nint x = 1;\n"
                              "=======\nint x = 2;\n>>>>>>> REPLACE\n")))
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
    path.write_text(json.dumps(RunConfig(poc_timeout=2.5).to_dict()))
    assert _load_config(SimpleNamespace(config=str(path), variant=None)) \
        == RunConfig(poc_timeout=2.5)
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


def test_backend_factory_replays_a_flat_script_per_instance(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([{"expect": "x", "response": {"text": "y"}}]))
    factory = _backend_factory(f"replay:{path}", SimpleNamespace())
    a, b = factory("a"), factory("b")
    # each instance replays the script from its start, and its records
    # are its own calls
    assert a is not b
    assert a.chat(_request("x")).text == b.chat(_request("x")).text == "y"
    assert len(a.records) == len(b.records) == 1


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
    factory = _backend_factory("live", args)
    backend = factory("any")
    assert factory("other") is not backend
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
@pytest.mark.parametrize("command", ["report", "evaluate"])
@pytest.mark.parametrize("kind", ["missing", "file"])
def test_cli_names_a_run_directory_that_is_not_there(tmp_path, fixtures_dir,
                                                     command, kind):
    run_dir = tmp_path / "no-such-run"
    if kind == "file":
        run_dir.write_text("")
    argv = [command, "--run", str(run_dir)]
    if command == "evaluate":
        argv += ["--instances", str(fixtures_dir / "instances.jsonl")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == (f"vulnmend {command}: no run directory "
                                  f"{run_dir}")


NOT_JSON = "Expecting value: line 1 column 1 (char 0)"


@pytest.mark.parametrize("command, kind, content, problem", [
    ("run", "instances", None, "No such file or directory"),
    ("run", "instances", "not json\n",
     f"invalid JSON on line 1: {NOT_JSON}"),
    ("evaluate", "instances", None, "No such file or directory"),
    ("evaluate", "instances", "\n", "no instances in file"),
    ("run", "config", None, "No such file or directory"),
    ("run", "config", "not json", NOT_JSON),
    ("run", "config", '{"poc_timeout": 0}',
     "poc_timeout must be positive and finite"),
    ("run", "replay", None, "No such file or directory"),
    ("run", "replay", "not json", NOT_JSON),
    ("run", "replay", "{}", 'a replay script is a list of entries, '
     '{"entries": [...]} or {"instances": {...}}'),
    ("run", "replay", '{"instances": 5}', '"instances" is not an object'),
    ("run", "replay", '{"entries": [5]}',
     "entry 1 is not an object whose response is an object"),
    ("run", "replay", '{"instances": {"other-1": {"entries": []}}}',
     "no entries for instance 'namecache-obo-1'"),
], ids=["run-instances-missing", "run-instances-not-json",
        "evaluate-instances-missing", "evaluate-instances-empty",
        "config-missing", "config-not-json", "config-invalid",
        "replay-missing", "replay-not-json", "replay-no-entries",
        "replay-instances-not-an-object", "replay-entry-not-an-object",
        "replay-lacks-an-instance"])
def test_cli_names_an_input_file_it_cannot_use(tmp_path, fixtures_dir,
                                               monkeypatch, command, kind,
                                               content, problem):
    path = tmp_path / f"input-{kind}"
    if content is not None:
        path.write_text(content)
    instances = str(fixtures_dir / "instances.jsonl")
    script = str(fixtures_dir / "replays" / "full.json")
    out = tmp_path / "out"
    if kind == "instances":
        instances = str(path)
    elif kind == "replay":
        script = str(path)
    argv = (["run", "--out", str(out), "--backend", f"replay:{script}"]
            if command == "run" else ["evaluate", "--run", str(tmp_path)])
    argv += ["--instances", instances]
    if kind == "config":
        argv += ["--config", str(path)]
    started = []
    monkeypatch.setattr(pipeline, "run_instance",
                        lambda *args, **kwargs: started.append(args))
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    label = {"instances": "instances file", "config": "config file",
             "replay": "replay script"}[kind]
    assert excinfo.value.code == (f"vulnmend {command}: {label} {path}: "
                                  f"{problem}")
    assert started == []
    assert not out.exists()
    assert not (tmp_path / "evaluation.json").exists()


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


@pytest.mark.parametrize("fault", ["out-under-a-file", "disk-full"])
def test_run_stops_with_a_message_when_it_cannot_write_out(
        tmp_path, fixtures_dir, monkeypatch, fault):
    out = tmp_path / "out"
    reason = os.strerror(errno.ENOSPC)
    if fault == "out-under-a-file":
        (tmp_path / "file").write_text("")
        out, reason = tmp_path / "file" / "out", os.strerror(errno.ENOTDIR)
    else:
        def full(path, payload):
            raise OSError(errno.ENOSPC, reason, str(path))
        monkeypatch.setattr(pipeline, "write_json", full)
    started = []
    monkeypatch.setattr(pipeline, "run_instance",
                        lambda *args, **kwargs: started.append(args))
    with pytest.raises(SystemExit) as stopped:
        main(["run", "--out", str(out), "--backend",
              f"replay:{fixtures_dir / 'replays' / 'full.json'}",
              "--instances", str(fixtures_dir / "instances.jsonl")])
    assert stopped.value.code == f"vulnmend run: cannot write --out {out}: " \
        f"{reason}"
    assert started == []


@pytest.mark.parametrize("timeout", ["0", "-5", "nan", "inf", "soon"])
def test_evaluate_refuses_a_timeout_that_bounds_nothing(tmp_path,
                                                        fixtures_dir,
                                                        timeout):
    # the run's config.json holds the timeout: a number, or text that
    # is none, that no PoC run could be bounded by
    try:
        value = float(timeout)
    except ValueError:
        value = timeout
    run_dir = tmp_path / "run"
    (run_dir / "namecache-obo-1").mkdir(parents=True)
    (run_dir / "namecache-obo-1" / "prediction.diff").write_text(HELLO_DIFF)
    config = run_dir / "config.json"
    config.write_text(json.dumps({"poc_timeout": value}))
    with pytest.raises(SystemExit) as stopped:
        main(["evaluate", "--run", str(run_dir),
              "--instances", str(fixtures_dir / "instances.jsonl")])
    assert re.fullmatch(
        rf"vulnmend evaluate: config file {re.escape(str(config))}: "
        r"poc_timeout must be (positive and finite|a number, got 'soon')",
        stopped.value.code)
    assert not (run_dir / "evaluation.json").exists()


def test_evaluate_has_no_timeout_of_its_own(tmp_path, fixtures_dir, capsys):
    with pytest.raises(SystemExit) as stopped:
        main(["evaluate", "--run", str(tmp_path), "--timeout", "10",
              "--instances", str(fixtures_dir / "instances.jsonl")])
    assert stopped.value.code == 2
    assert "unrecognized arguments: --timeout 10" in capsys.readouterr().err


# what a config.json of an earlier version held besides poc_timeout
_OLD_CONFIG_KEYS = {"top_files": 3, "context_margin": 10, "candidates": 5,
                    "chunk_lines": 512, "element_limit": 10,
                    "cpc_max_steps": 25, "spa_max_steps": 40}


def test_evaluate_times_a_poc_out_as_the_run_did(tmp_path, instances_file):
    instances = instances_file([_row(repro_command="sleep 5")])
    workspace = tmp_path / "ws"
    (workspace / "hello.txt").write_text("old\n")
    run_dir = tmp_path / "run"
    (run_dir / "mini-1").mkdir(parents=True)
    (run_dir / "mini-1" / "prediction.diff").write_text(HELLO_DIFF)
    # a run made before the pipeline's fixed settings left the config:
    # evaluate reads its poc_timeout alone
    (run_dir / "config.json").write_text(json.dumps(
        {**RunConfig(poc_timeout=0.6).to_dict(), **_OLD_CONFIG_KEYS}))
    started = time.monotonic()
    assert main(["evaluate", "--run", str(run_dir),
                 "--instances", str(instances)]) == 0
    assert time.monotonic() - started < 4
    (row,) = json.loads((run_dir / "evaluation.json").read_text())[
        "instances"]
    assert (row["exit_code"], row["resolved"]) == (124, False)
    # validation, with the same config, judges the PoC alike
    config = RunConfig(poc_timeout=0.6)
    outcome = validate_candidate(
        HELLO_EDIT, RepoIndex(workspace),
        PristineCopy(AheadCopies(workspace), "sleep 5",
                     timeout=config.poc_timeout))
    assert outcome.applied and not outcome.poc_pass


def test_evaluate_without_a_run_config_takes_the_default_timeout(
        tmp_path, monkeypatch):
    seen = []
    verify = harness_metrics.verify_prediction

    def spy(instance, diff, timeout):
        seen.append(timeout)
        return verify(instance, diff, timeout=timeout)

    monkeypatch.setattr(harness_metrics, "verify_prediction", spy)
    instance = _mini_instance(tmp_path, "true")
    (tmp_path / "run" / "mini-1").mkdir(parents=True)
    evaluate_run(tmp_path / "run", [instance])
    assert seen == [RunConfig().poc_timeout] == [300.0]


@pytest.mark.parametrize("content, problem", [
    ("oops", NOT_JSON),
    ("[]", "cost_usd is not a decimal string"),
    ('{"total": "0.02"}', "cost_usd is not a decimal string"),
    ('{"cost_usd": 0.02}', "cost_usd is not a decimal string"),
    ('{"cost_usd": "cheap"}', "cost_usd is not a decimal string"),
    ('{"cost_usd": "NaN"}', "cost_usd is not a decimal string"),
], ids=["not-json", "not-an-object", "no-cost", "number", "not-decimal",
        "nan"])
def test_evaluate_names_a_cost_file_it_cannot_read(tmp_path, instances_file,
                                                   monkeypatch, content,
                                                   problem):
    instances = instances_file([_row(instance_id=f"mini-{k}")
                                for k in (1, 2)])
    run_dir = tmp_path / "run"
    for k in (1, 2):
        (run_dir / f"mini-{k}").mkdir(parents=True)
        (run_dir / f"mini-{k}" / "prediction.diff").write_text(HELLO_DIFF)
    (run_dir / "mini-1" / "cost.json").write_text('{"cost_usd": "0.01"}')
    cost = run_dir / "mini-2" / "cost.json"
    cost.write_text(content)
    judged = []
    monkeypatch.setattr(harness_metrics, "verify_prediction",
                        lambda *args, **kwargs: judged.append(args))
    with pytest.raises(SystemExit) as stopped:
        main(["evaluate", "--run", str(run_dir),
              "--instances", str(instances)])
    assert stopped.value.code == (f"vulnmend evaluate: cost file {cost}: "
                                  f"{problem}")
    # the costs are read before any PoC runs
    assert judged == []
    assert not (run_dir / "evaluation.json").exists()


def _reported_run(tmp_path, fixtures_dir):
    """A replayed base run, evaluated, as report reads it."""
    out = tmp_path / "run"
    instances = str(fixtures_dir / "instances.jsonl")
    main(["run", "--instances", instances, "--out", str(out),
          "--backend", f"replay:{fixtures_dir / 'replays/base.json'}",
          "--variant", "base"])
    main(["evaluate", "--run", str(out), "--instances", instances])
    return out


@needs_gcc
@pytest.mark.parametrize("rel, content, problem", [
    ("config.json", "not json", f"config file {{path}}: {NOT_JSON}"),
    ("config.json", "[1]", "config file {path}: unexpected content "
     "(AttributeError: 'list' object has no attribute 'get')"),
    ("evaluation.json", '{"instances": 3}', "evaluation file {path}: "
     "unexpected content (TypeError: 'int' object is not iterable)"),
    ("evaluation.json", '{"instances": []}', "evaluation file {path}: "
     "unexpected content (KeyError: 'resolved')"),
    ("namecache-obo-1/telemetry.json", "{", "telemetry file {path}: "
     "Expecting property name enclosed in double quotes: line 1 column 2 "
     "(char 1)"),
    ("namecache-obo-1/telemetry.json", '{"agents": {"cpc": {}}}',
     "telemetry file {path}: unexpected content (KeyError: 'steps')"),
    ("namecache-obo-1/cost.json", '{"cost_usd": null}',
     "cost file {path}: cost_usd is not a decimal string"),
], ids=["config-not-json", "config-not-an-object", "evaluation-instances-3",
        "evaluation-no-totals", "telemetry-not-json", "telemetry-agent",
        "cost-null"])
def test_report_names_a_run_file_it_cannot_read(tmp_path, fixtures_dir,
                                                capsys, rel, content,
                                                problem):
    out = _reported_run(tmp_path, fixtures_dir)
    capsys.readouterr()
    path = out / rel
    path.write_text(content)
    with pytest.raises(SystemExit) as stopped:
        main(["report", "--run", str(out)])
    assert stopped.value.code == ("vulnmend report: "
                                  + problem.format(path=path))


def test_evaluate_exit_code_reflects_empty_run(tmp_path, fixtures_dir,
                                               capsys):
    run_dir = tmp_path / "empty-run"
    run_dir.mkdir()
    rc = main(["evaluate", "--run", str(run_dir),
               "--instances", str(fixtures_dir / "instances.jsonl")])
    capsys.readouterr()
    assert rc == 1
