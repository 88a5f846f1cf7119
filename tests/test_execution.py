import contextlib
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from conftest import (copier_running, is_the_copier, join_the_copier,
                      total_evaluations)
from hypothesis import given, settings
from hypothesis import strategies as st

import vulnmend.execution as execution
from vulnmend.errors import SandboxUnavailable, UnknownLogName
from vulnmend.execution import (AheadCopies, ExecResult, LocalSandbox,
                                LogScan, LogStore, PocRunner, PristineCopy,
                                PythonScriptSandbox, harness_files, in_pool,
                                truncate_log)
from vulnmend.repo_model import read_text, write_text

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="no C compiler on this machine")


# -- log truncation ------------------------------------------------------------


def test_truncate_log_fences_huge_log():
    n = 10 ** 5
    log = "\n".join(f"line {i}" for i in range(n))
    out = truncate_log(log, head_lines=100, tail_lines=100, name="run-3")
    lines = out.split("\n")
    assert len(lines) == 201
    assert lines[:100] == [f"line {i}" for i in range(100)]
    assert lines[101:] == [f"line {i}" for i in range(n - 100, n)]
    assert lines[100] == ("... [99800 lines elided; full log stored as "
                          "'run-3'] ...")


def test_truncate_log_short_log_untouched():
    log = "a\nb\nc"
    assert truncate_log(log, head_lines=2, tail_lines=1) == log


def test_truncate_log_boundary():
    exact = "\n".join(str(i) for i in range(10))
    assert truncate_log(exact, head_lines=5, tail_lines=5) == exact
    over = "\n".join(str(i) for i in range(11))
    out = truncate_log(over, head_lines=5, tail_lines=5, name="x")
    assert "[1 lines elided" in out


def test_log_store_dedupes_names():
    store = LogStore()
    assert store.reserve("run") == "run"
    assert store.reserve("run") == "run-2"
    assert store.reserve("run") == "run-3"
    assert store.reserve("other") == "other"
    store.put("run", "first")
    store.put("run-2", "second")
    assert store.get("run") == "first"
    assert store.get("run-2") == "second"


def test_log_store_unknown_name():
    store = LogStore()
    store.put("baseline", "x")
    with pytest.raises(UnknownLogName) as exc_info:
        store.get("nope")
    assert "baseline" in str(exc_info.value)


# -- assertion tallies ----------------------------------------------------------


def test_summarize_assertions_counts_and_order():
    log = "\n".join([
        "building...",
        "[SPA] len_below_cap PASS",
        '[SPA] no_overflow FAIL expr="i < n"',
        "[SPA] len_below_cap PASS",
        '[SPA] len_below_cap FAIL expr="len < cap"',
        "==123==ERROR: AddressSanitizer: stack-buffer-overflow",
        "[SPA] no_overflow PASS",
    ])
    summary = LogScan(log).summary()
    assert summary.counts == (
        ("len_below_cap", 2, 1, "len < cap"),
        ("no_overflow", 1, 1, "i < n"),
    )
    assert total_evaluations(summary) == 5
    rendered = summary.render()
    assert rendered.startswith("Safety property assertions: ")
    assert 'len_below_cap: 2 PASS, 1 FAIL (expr "len < cap")' in rendered
    assert 'no_overflow: 1 PASS, 1 FAIL (expr "i < n")' in rendered


def test_summarize_assertions_ignores_near_misses():
    log = "\n".join([
        " [SPA] indented PASS",          # leading space: not a tally line
        "[SPA] trailing PASS extra",     # junk after the verdict
        "[SPA] shouting MAYBE",          # unknown verdict
        "[SPA]missing_space PASS",
        "prefix [SPA] embedded PASS",
    ])
    assert LogScan(log).summary().counts == ()


def test_summarize_assertions_reads_an_expr_that_holds_quotes():
    # SAFETY_PROPERTY_ASSERT(strcmp(s, "x") == 0, "name_ok") prints the
    # stringified condition with its quotes
    log = ('[SPA] name_ok FAIL expr="strcmp(s, "x") == 0"\n'
           "[SPA] name_ok PASS\n")
    summary = LogScan(log).summary()
    assert summary.counts == (("name_ok", 1, 1, 'strcmp(s, "x") == 0'),)
    assert ('name_ok: 1 PASS, 1 FAIL (expr "strcmp(s, "x") == 0")'
            in summary.render())


def test_summarize_assertions_empty_render():
    assert (LogScan("nothing here").summary().render()
            == "Safety property assertions: none evaluated.")


def test_assertion_tallies_stay_bounded_past_many_ids():
    ids = 300_000
    log = "".join(f"[SPA] p{i} {'FAIL' if i % 3 == 0 else 'PASS'}\n"
                  for i in range(ids))
    summary = LogScan(log).summary()
    rendered = summary.render()
    assert len(rendered) < 5000
    bound = execution.MAX_TALLIED_PROPERTIES
    assert [c[0] for c in summary.counts] == [f"p{i}" for i in range(bound)]
    fails = sum(1 for i in range(bound, ids) if i % 3 == 0)
    assert summary.more == (ids - bound - fails, fails)
    assert total_evaluations(summary) == ids
    assert rendered.endswith(f"; properties past the first {bound}: "
                             f"{ids - bound - fails} PASS, {fails} FAIL")
    # a join keeps the bound, and a tallied id keeps its own count
    cut = log.index("\n", len(log) // 2) + 1
    halves = LogScan(log[:cut]).then(LogScan(log[cut:]))
    assert halves.summary() == summary
    again = LogScan(log).then(LogScan("[SPA] p0 PASS\n")).summary()
    assert again.counts[0] == ("p0", 1, 1, "")
    assert again.more == summary.more


def test_assertion_tallies_under_the_bound_render_as_before():
    log = "".join(f'[SPA] id{i} FAIL expr="i < {i}"\n'
                  for i in range(execution.MAX_TALLIED_PROPERTIES))
    summary = LogScan(log).summary()
    assert summary.more == (0, 0)
    assert summary.render() == "Safety property assertions: " + "; ".join(
        f'id{i}: 0 PASS, 1 FAIL (expr "i < {i}")'
        for i in range(execution.MAX_TALLIED_PROPERTIES))


def test_summarize_assertions_randomized_tally_oracle():
    rng = random.Random(20240818)
    ids = ["alpha", "beta", "gamma"]
    for _ in range(30):
        events = []
        lines = []
        for _ in range(rng.randrange(40)):
            if rng.random() < 0.3:
                lines.append(rng.choice([
                    "gcc -O0 ...", "", "== noise ==", "[SPA] broken",
                ]))
                continue
            prop_id = rng.choice(ids)
            if rng.random() < 0.5:
                events.append((prop_id, "PASS"))
                lines.append(f"[SPA] {prop_id} PASS")
            else:
                events.append((prop_id, "FAIL"))
                lines.append(f'[SPA] {prop_id} FAIL expr="{prop_id} ok"')
        summary = LogScan("\n".join(lines)).summary()
        seen_order = list(dict.fromkeys(pid for pid, _ in events))
        assert [c[0] for c in summary.counts] == seen_order
        for prop_id, passes, fails, expr in summary.counts:
            assert passes == sum(1 for p, v in events
                                 if p == prop_id and v == "PASS")
            assert fails == sum(1 for p, v in events
                                if p == prop_id and v == "FAIL")
            if fails:
                assert expr == f"{prop_id} ok"
        assert total_evaluations(summary) == len(events)


# -- local sandbox ---------------------------------------------------------------


def test_local_sandbox_exec_and_files(tmp_path):
    sandbox = LocalSandbox(tmp_path)
    res = sandbox.exec("echo hello && pwd")
    assert res.exit_code == 0
    assert "hello" in res.stdout
    assert str(tmp_path) in res.stdout
    assert res.timed_out is False
    write_text(tmp_path / "deep/nested/note.txt", "payload\n")
    assert read_text(tmp_path / "deep/nested/note.txt") == "payload\n"
    assert sandbox.exec("exit 7").exit_code == 7


def test_local_sandbox_timeout(tmp_path):
    res = LocalSandbox(tmp_path).exec("sleep 5", timeout=0.3)
    assert res.timed_out is True
    assert res.exit_code == 124


def test_local_sandbox_keeps_non_utf8_output(tmp_path):
    box = LocalSandbox(tmp_path)
    res = box.exec(r"printf 'ok\377\376'; printf '\377' >&2")
    assert res.exit_code == 0
    assert res.stdout.encode("utf-8", "surrogateescape") == b"ok\xff\xfe"
    assert res.stderr.encode("utf-8", "surrogateescape") == b"\xff"
    # the timeout path decodes what it caught the same way
    cut = box.exec(r"printf 'ok\377'; sleep 5", timeout=0.3)
    assert cut.timed_out is True
    assert cut.stdout.encode("utf-8", "surrogateescape") == b"ok\xff"


def test_local_sandbox_timeout_kills_children(tmp_path):
    started = time.monotonic()
    res = LocalSandbox(tmp_path).exec("(sleep 1.5; touch marker) & wait",
                                      timeout=0.3)
    assert res.timed_out is True
    assert time.monotonic() - started < 1.5
    time.sleep(max(0.0, started + 2.0 - time.monotonic()))
    assert not (tmp_path / "marker").exists()


def _running(pid: int) -> bool:
    """Whether pid is a live process; a zombie is not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_local_sandbox_kills_what_a_finished_command_left_running(
        tmp_path):
    started = time.monotonic()
    res = LocalSandbox(tmp_path).exec("sleep 30 >/dev/null 2>&1 & echo $!")
    assert res.exit_code == 0 and time.monotonic() - started < 5
    pid = int(res.stdout)
    try:
        deadline = time.monotonic() + 5
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def test_local_sandbox_rejects_missing_dir(tmp_path):
    with pytest.raises(SandboxUnavailable):
        LocalSandbox(tmp_path / "ghost")


def test_local_sandbox_waits_for_a_background_writer(tmp_path):
    # the shell exits at once; the run ends when its streams close
    res = LocalSandbox(tmp_path).exec("(sleep 0.2; echo late >&2) &")
    assert (res.exit_code, res.timed_out) == (0, False)
    assert res.stderr == "late\n"


def test_local_sandbox_times_out_past_a_child_that_left_the_session(
        tmp_path):
    # the child holds both streams open and the group kill misses it;
    # the run still ends at its timeout, plus the grace of the drain
    command = "setsid sh -c 'echo $$ > child.pid; exec sleep 5' &"
    started = time.monotonic()
    try:
        res = LocalSandbox(tmp_path).exec(command, timeout=0.3)
        elapsed = time.monotonic() - started
    finally:
        with contextlib.suppress(OSError, ValueError):
            os.kill(int((tmp_path / "child.pid").read_text()),
                    signal.SIGKILL)
    assert (res.exit_code, res.timed_out) == (124, True)
    assert elapsed < 2.0


@pytest.mark.parametrize("command, timeout, timed_out", [
    ("setsid sh -c 'echo $$ > child.pid; exec sleep 30' "
     ">/dev/null 2>&1 </dev/null & sleep 0.3", 10, False),
    ("setsid sh -c 'echo $$ > child.pid; exec sleep 30' & sleep 30", 0.5,
     True),
], ids=["exit", "timeout"])
def test_local_sandbox_kills_a_child_that_left_the_session(
        tmp_path, command, timeout, timed_out):
    res = LocalSandbox(tmp_path).exec(command, timeout=timeout)
    pid = int((tmp_path / "child.pid").read_text())
    try:
        assert res.timed_out is timed_out
        deadline = time.monotonic() + 5
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def test_local_sandbox_maps_carriage_returns_to_newlines(tmp_path):
    res = LocalSandbox(tmp_path).exec(
        r"printf 'a\r\nb\rc\n'; printf 'd\r' >&2")
    assert (res.stdout, res.stderr) == ("a\nb\nc\n", "d\n")


SRC = str(Path(execution.__file__).resolve().parents[1])


def _in_child(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this package."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": SRC, **env})


def test_local_sandbox_decodes_utf8_whatever_the_locale(tmp_path):
    command = r"printf 'caf\303\251 \377'"
    proc = _in_child(
        "from vulnmend.execution import LocalSandbox\n"
        f"print(ascii(LocalSandbox({str(tmp_path)!r}).exec({command!r})"
        ".stdout))", PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ascii("caf\u00e9 \udcff") + "\n"


def _filler(size: int) -> str:
    """What `yes abcdefghi | head -c size` writes."""
    return ("abcdefghi\n" * (size // 10 + 1))[:size]


def test_a_stream_at_the_cap_is_kept_whole(tmp_path):
    cap = execution.DEFAULT_LOG_CAP
    res = LocalSandbox(tmp_path).exec(f"yes abcdefghi | head -c {cap}")
    assert res.stdout == _filler(cap)
    assert res.stdout_scan is None


def test_a_stream_one_byte_over_the_cap_keeps_its_head_and_tail(tmp_path):
    cap = execution.DEFAULT_LOG_CAP
    res = LocalSandbox(tmp_path).exec(
        f"yes abcdefghi | head -c {cap + 1} >&2")
    full = _filler(cap + 1)
    head, tail = full[:cap // 2], full[cap // 2 + 1:]
    assert len(head) + len(tail) == cap and not head.endswith("\n")
    assert res.stderr == (head + "\n" + f"... [1 of {cap + 1} bytes dropped: "
                          f"over the {cap}-byte cap] ...\n" + tail)
    assert res.stderr_scan is not None and res.stdout_scan is None


@pytest.mark.parametrize("signature, exit_code, compiled, triggered", [
    ("==7==ERROR: AddressSanitizer: heap-buffer-overflow", 1, True, True),
    ("src/buf.c:14:5: error: expected ';'", 2, False, False),
], ids=["sanitizer", "compile-error"])
def test_the_verdict_reads_what_the_cap_dropped(tmp_path, signature,
                                                 exit_code, compiled,
                                                 triggered):
    # the signature and a tally sit in the middle of a stdout far past
    # the cap; stderr, kept whole, adds to the tallies
    command = ("yes filler | head -c 2800000; echo '[SPA] guard PASS'; "
               f"echo {signature!r}; "
               "echo '[SPA] guard FAIL expr=\"n < cap\"'; "
               "yes filler | head -c 2800000; "
               "echo '[SPA] other PASS' >&2; echo '[SPA] guard PASS' >&2; "
               f"exit {exit_code}")
    runner = PocRunner(LocalSandbox(tmp_path), command)
    result = runner.run_poc("flood")
    assert (result.compiled, result.sanitizer_triggered) == (compiled,
                                                             triggered)
    assert result.summary.counts == (("guard", 2, 1, "n < cap"),
                                     ("other", 1, 0, ""))
    stored = runner.log_store.get("flood")
    assert signature not in stored and "[SPA] guard FAIL" not in stored
    assert len(stored) < execution.DEFAULT_LOG_CAP + 200
    assert "bytes dropped: over the" in stored


def test_a_poc_that_prints_without_end_runs_in_bounded_memory(tmp_path):
    # the child's own peak resident set (VmHWM): its ru_maxrss would also
    # count this test process, whose pages the spawned child starts from.
    # The address space limit makes a reader that keeps all the output
    # fail early rather than take the machine's memory.
    code = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from vulnmend.execution import LocalSandbox, PocRunner
command = ("yes 'a line of a PoC that prints without end' | head -c 200000000;"
           " echo 'SUMMARY: AddressSanitizer: heap-buffer-overflow'; exit 1")
result = PocRunner(LocalSandbox({str(tmp_path)!r}), command).run_poc("flood")
with open("/proc/self/status", encoding="utf-8") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(result.sanitizer_triggered, result.exit_code, peak)
"""
    proc = _in_child(code)
    assert proc.returncode == 0, proc.stderr[-2000:]
    triggered, exit_code, peak_kib = proc.stdout.split()
    assert (triggered, exit_code) == ("True", "1")
    # a reader that keeps all of the output needs several times its size
    assert int(peak_kib) < 64 * 1024


# -- PoC runner over a stub sandbox ----------------------------------------------


class _StubSandbox:
    workspace = Path("/nonexistent")

    def __init__(self, result):
        self.result = result
        self.commands = []

    def exec(self, command, timeout=None):
        self.commands.append(command)
        return self.result


def test_poc_runner_stores_full_log_returns_excerpt():
    body = "\n".join(f"out {i}" for i in range(40)) + "\n"
    store = LogStore()
    runner = PocRunner(_StubSandbox(ExecResult(0, body, "tail-err\n")),
                       "make poc", log_store=store, head_lines=5,
                       tail_lines=5)
    result = runner.run_poc("probe")
    assert result.name == "probe"
    full = runner.log_store.get("probe")
    assert full == body + "tail-err\n"
    assert "[32 lines elided; full log stored as 'probe']" in result.log
    assert result.log != full


def test_poc_runner_merges_streams_with_newline():
    runner = PocRunner(_StubSandbox(ExecResult(0, "no newline", "err")),
                       "cmd", log_store=LogStore())
    runner.run_poc("merge")
    assert runner.log_store.get("merge") == "no newline\nerr"


def test_poc_runner_sanitizer_detection():
    err = ("==4242==ERROR: AddressSanitizer: stack-buffer-overflow\n"
           "SUMMARY: AddressSanitizer: stack-buffer-overflow\n")
    runner = PocRunner(_StubSandbox(ExecResult(1, "", err)), "cmd")
    result = runner.run_poc("crash")
    assert result.compiled is True
    assert result.sanitizer_triggered is True
    assert "sanitizer TRIGGERED" in result.render()


def test_poc_runner_compile_error_detection():
    err = "src/buf.c:14:5: error: expected ';'\nBUILD FAILED\n"
    runner = PocRunner(_StubSandbox(ExecResult(2, "", err)), "cmd")
    result = runner.run_poc("broken")
    assert result.compiled is False
    assert "compilation FAILED" in result.render()


def test_poc_runner_sanitizer_outranks_compile_signature():
    # a crash log can mention "error:" lines; the sanitizer verdict wins
    err = ("==1==ERROR: AddressSanitizer: heap-use-after-free\n"
           "src/x.c:3:1: error: note from somewhere\n")
    result = PocRunner(_StubSandbox(ExecResult(1, "", err)), "cmd").run_poc("x")
    assert result.compiled is True
    assert result.sanitizer_triggered is True


def test_poc_runner_timeout_note():
    runner = PocRunner(_StubSandbox(ExecResult(124, "", "", timed_out=True)),
                       "cmd")
    result = runner.run_poc("slow")
    assert result.timed_out is True
    assert "hit its timeout" in result.render()


def test_poc_runner_summary_reflects_full_log_not_excerpt():
    lines = [f"[SPA] guard PASS" for _ in range(30)]
    lines.append('[SPA] guard FAIL expr="a < b"')
    runner = PocRunner(
        _StubSandbox(ExecResult(0, "\n".join(lines) + "\n", "")),
        "cmd", head_lines=3, tail_lines=3)
    result = runner.run_poc("tally")
    assert result.summary.counts == (("guard", 30, 1, "a < b"),)
    assert "guard: 30 PASS, 1 FAIL" in result.render()


_SCAN_LINES = ("[SPA] a PASS", '[SPA] a FAIL expr="x < 1"', "[SPA] b FAIL",
               '[SPA] b FAIL expr="y"', '[SPA] a FAIL expr="x < 2"',
               "==3==ERROR: AddressSanitizer: x",
               "SUMMARY: AddressSanitizer: x", "a.c:1:2: error: no",
               "undefined reference to `f'", "BUILD FAILED", "plain",
               "", "plain " * 100)


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _verdict(scan):
    return scan.sanitizer, scan.compile_error, scan.summary()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_SCAN_LINES), max_size=30),
       st.lists(st.integers(0, 30), max_size=5), st.integers(0, 30))
def test_log_scan_in_blocks_matches_the_scan_of_the_whole_log(lines, cuts,
                                                              split):
    whole = execution.LogScan(_lines(lines))
    # the literal looked for first never hides a match
    for found, signatures in ((whole.sanitizer,
                               execution.SANITIZER_SIGNATURES),
                              (whole.compile_error,
                               execution.COMPILE_ERROR_SIGNATURES)):
        assert found == any(rx.search(_lines(lines))
                            for _, rx in signatures)
    blocks = execution.LogScan()
    bounds = sorted({0, len(lines), *(min(c, len(lines)) for c in cuts)})
    for start, end in zip(bounds, bounds[1:]):
        blocks.feed(_lines(lines[start:end]))
    joined = execution.LogScan(_lines(lines[:split])).then(
        execution.LogScan(_lines(lines[split:])))
    assert _verdict(blocks) == _verdict(joined) == _verdict(whole)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
           st.sampled_from([b"[SPA] p PASS", b'[SPA] p FAIL expr="caf\xc3\xa9"',
                            b"[SPA] q FAIL", b"\xff\xfe", b"\xc3",
                            b"==1==ERROR: x", b"x", b""]),
           st.sampled_from([b"\n", b"\r\n", b"\r"])), max_size=40),
       st.lists(st.integers(0, 1200), max_size=8))
def test_a_capture_scans_the_stream_as_text_mode_decodes_it(pieces, cuts):
    # a cap that most streams pass and that no line is longer than; the
    # cuts fall anywhere, inside a character or a "\r\n" too
    data = b"".join(piece + end for piece, end in pieces)
    capture = execution._Capture(cap=64)
    bounds = sorted({0, len(data), *(min(c, len(data)) for c in cuts)})
    for start, end in zip(bounds, bounds[1:]):
        capture.feed(data[start:end])
    text, scan = capture.close()
    whole = execution._decode(data)
    if scan is None:
        assert text == whole
    else:
        assert len(data) > 64 and "bytes dropped" in text
        assert _verdict(scan) == _verdict(execution.LogScan(whole))


def test_poc_runner_name_dedup_keeps_old_logs():
    runner = PocRunner(_StubSandbox(ExecResult(0, "first\n", "")), "cmd")
    assert runner.run_poc("run").name == "run"
    runner.sandbox.result = ExecResult(0, "second\n", "")
    assert runner.run_poc("run").name == "run-2"
    assert runner.log_store.get("run") == "first\n"
    assert runner.log_store.get("run-2") == "second\n"


# -- the excerpt agents see of a sanitizer report ------------------------------------


SHADOW_MAP = ["Shadow bytes around the buggy address:"] + [
    ("=>" if row == 5 else "  ")
    + f"0x10005d4a50{row:x}0: 00 00 00 00 00 00 00 00 f1 f1[f3]f3"
    for row in range(11)] + [
    "Shadow byte legend (one shadow byte represents 8 application bytes):",
    "  Addressable:           00",
    "  Partially addressable: 01 02 03 04 05 06 07 ",
    "  Heap left redzone:       fa",
    "  Stack right redzone:     f3",
    "  ASan internal:           fe",
]


STACK_REPORT = [
    "=================================================================",
    "==4242==ERROR: AddressSanitizer: stack-buffer-overflow on address "
    "0x7ffd6d50a130 at pc 0x56055ec2e3eb bp 0x7ffd6d50a0a0",
    "WRITE of size 1 at 0x7ffd6d50a130 thread T0",
    "    #0 0x56055ec2e3ea in copy_name src/buf.c:19",
    "    #1 0x56055ec2e595 in main src/main.c:14",
    "",
    "Address 0x7ffd6d50a130 is located in stack of thread T0 at offset 48 "
    "in frame",
    "    #0 0x56055ec2e473 in main src/main.c:7",
    "",
    "  This frame has 1 object(s):",
    "    [32, 48) 'name' (line 9) <== Memory access at offset 48 overflows "
    "this variable",
    "SUMMARY: AddressSanitizer: stack-buffer-overflow src/buf.c:19 in "
    "copy_name",
]

HEAP_REPORT = [
    "=================================================================",
    "==77==ERROR: AddressSanitizer: heap-buffer-overflow on address "
    "0x602000000020 at pc 0x55d0c0a1b2c3",
    "READ of size 4 at 0x602000000020 thread T0",
    "    #0 0x55d0c0a1b2c2 in sum src/heap.c:8",
    "",
    "0x602000000020 is located 0 bytes after 16-byte region "
    "[0x602000000010,0x602000000020)",
    "allocated by thread T0 here:",
    "    #0 0x7f0a1b2c3d4e in malloc",
    "    #1 0x55d0c0a1b1a0 in main src/heap.c:14",
    "",
    "SUMMARY: AddressSanitizer: heap-buffer-overflow src/heap.c:8 in sum",
]


def _asan_log(report, pid):
    return "\n".join(report + SHADOW_MAP + [f"=={pid}==ABORTING", ""])


def _marker(name):
    return (f"... [{len(SHADOW_MAP)} lines of ASan shadow byte map "
            f"elided; full log stored as '{name}'] ...")


@pytest.mark.parametrize("report, pid", [(STACK_REPORT, 4242),
                                         (HEAP_REPORT, 77)])
def test_excerpt_drops_the_shadow_map_and_keeps_every_other_line(report,
                                                                  pid):
    log = _asan_log(report, pid)
    runner = PocRunner(_StubSandbox(ExecResult(1, "", log)), "cmd")
    result = runner.run_poc("baseline")
    assert "Shadow byte" not in result.log
    assert "f1 f1[f3]f3" not in result.log
    placeless = [re.sub(r"0x[0-9a-f]{8,}", "0xADDR",
                        line.replace(f"=={pid}==", "==PID=="))
                 for line in report]
    assert result.log.split("\n") == placeless + [
        _marker("baseline"), "==PID==ABORTING", ""]
    # the full log keeps the map, by the run's name
    assert runner.log_store.get("baseline") == log
    assert "Shadow bytes around the buggy address:" in \
        runner.log_store.get("baseline")


def test_excerpt_marker_names_the_deduplicated_run():
    runner = PocRunner(
        _StubSandbox(ExecResult(1, "", _asan_log(STACK_REPORT, 1))), "cmd")
    runner.run_poc("probe")
    assert _marker("probe-2") in runner.run_poc("probe").log


def test_excerpt_of_a_map_that_ends_the_log():
    log = "\n".join(STACK_REPORT + SHADOW_MAP)  # no newline at the end
    result = PocRunner(_StubSandbox(ExecResult(1, "", log)),
                       "cmd").run_poc("cut")
    assert result.log.endswith("copy_name\n" + _marker("cut"))


def test_placeless_masks_raw_addresses_and_keeps_module_offsets():
    log = ("==31337==ERROR: AddressSanitizer: heap-buffer-overflow on "
           "address 0x602000000020 at pc 0x55D0C0A1B2C3\n"
           "    #0 0x7f0a1b2c3d4e in copy_name /work/ws/src/buf.c:19\n"
           "    #1 0x7f0a1b2c in __libc_start_main "
           "(/lib/libc.so.6+0x27249)\n"
           "    #2 0x4011d6 in _start\n")
    assert execution._placeless(log, execution._workspace_re(
        Path("/work/ws"))) == (
        "==PID==ERROR: AddressSanitizer: heap-buffer-overflow on "
        "address 0xADDR at pc 0xADDR\n"
        "    #0 0xADDR in copy_name ./src/buf.c:19\n"
        "    #1 0xADDR in __libc_start_main (/lib/libc.so.6+0x27249)\n"
        "    #2 0x4011d6 in _start\n")


@pytest.mark.parametrize("exit_code, log", [
    (0, "building\nall good\n"),
    (2, "src/buf.c:14:5: error: expected ';'\nBUILD FAILED\n"),
    (1, "src/buf.c:19:12: runtime error: index 16 out of bounds for type "
        "'char [16]'\n    #0 0x55 in copy_name src/buf.c:19\n"
        "SUMMARY: UndefinedBehaviorSanitizer: undefined-behavior "
        "src/buf.c:19:12 in \n"),
], ids=["clean", "compile-error", "ubsan"])
def test_excerpt_without_a_shadow_map_is_the_truncated_log(exit_code, log):
    log = log + "".join(f"tail {i}\n" for i in range(30))
    runner = PocRunner(_StubSandbox(ExecResult(exit_code, log, "")), "cmd",
                       head_lines=5, tail_lines=5)
    result = runner.run_poc("run")
    assert result.log == truncate_log(log, 5, 5, name="run")


def test_excerpt_elides_the_map_before_truncating():
    head = [f"build {i}" for i in range(4)]
    log = "\n".join(head + STACK_REPORT + SHADOW_MAP
                    + ["==9==ABORTING"] + [f"tail {i}" for i in range(3)])
    budget = len(head) + len(STACK_REPORT) + 4
    result = PocRunner(_StubSandbox(ExecResult(1, "", log)), "cmd",
                       head_lines=budget, tail_lines=2).run_poc("long")
    # the map would have used up the budget; without it the log fits
    assert "lines elided; full log" not in result.log
    assert result.log.split("\n")[-6:] == [
        STACK_REPORT[-1], _marker("long"), "==PID==ABORTING",
        "tail 0", "tail 1", "tail 2"]
    # past the budget, the head/tail cut counts only lines that are left
    short = PocRunner(_StubSandbox(ExecResult(1, "", log)), "cmd",
                      head_lines=2, tail_lines=2).run_poc("long")
    kept = len(head) + len(STACK_REPORT) + 1 + 1 + 3
    assert short.log.split("\n") == [
        "build 0", "build 1",
        f"... [{kept - 4} lines elided; full log stored as 'long'] ...",
        "tail 1", "tail 2"]


def test_excerpt_leaves_the_verdict_to_the_full_log():
    log = ("[SPA] len_below_cap PASS\n"
           '[SPA] len_below_cap FAIL expr="len < cap"\n'
           + _asan_log(STACK_REPORT, 4242))
    result = PocRunner(_StubSandbox(ExecResult(1, "", log)), "cmd",
                       head_lines=1, tail_lines=1).run_poc("probe")
    assert (result.exit_code, result.compiled, result.sanitizer_triggered,
            result.timed_out, result.passed) == (1, True, True, False, False)
    assert result.summary == LogScan(log).summary()
    assert result.summary.counts == (("len_below_cap", 1, 1, "len < cap"),)


# -- PoC runner against the real fixture ------------------------------------------


@needs_gcc
def test_poc_fixture_baseline_triggers_sanitizer(scratch_crepo):
    runner = PocRunner(LocalSandbox(scratch_crepo), "sh secb.sh")
    result = runner.run_poc("baseline")
    assert result.compiled is True
    assert result.sanitizer_triggered is True
    assert result.exit_code != 0
    assert "AddressSanitizer" in runner.log_store.get("baseline")
    assert "Shadow bytes around" in runner.log_store.get("baseline")
    assert "Shadow byte" not in result.log
    assert "full log stored as 'baseline'" in result.log


@needs_gcc
def test_poc_fixture_compile_error_phase(scratch_crepo):
    path = scratch_crepo / "src" / "buf.c"
    write_text(path, read_text(path) + "\nthis will not compile\n")
    result = PocRunner(LocalSandbox(scratch_crepo),
                       "sh secb.sh").run_poc("broken")
    assert result.compiled is False
    assert result.sanitizer_triggered is False


@needs_gcc
def test_poc_fixture_clean_after_fix(scratch_crepo):
    path = scratch_crepo / "src" / "buf.c"
    src = read_text(path)
    fixed = src.replace(
        "    if (len > cap) {\n        len = cap;\n    }",
        "    if (len >= cap) {\n        len = cap - 1;\n    }")
    assert fixed != src
    write_text(path, fixed)
    result = PocRunner(LocalSandbox(scratch_crepo),
                       "sh secb.sh").run_poc("fixed")
    assert result.compiled is True
    assert result.exit_code == 0
    assert result.sanitizer_triggered is False


# -- the PoC harness ------------------------------------------------------------


def test_the_harness_is_the_scripts_a_command_names(tmp_path):
    (tmp_path / "run.sh").write_text("#!/bin/sh\nexit 0\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "check").write_text("exit 0\n")
    (tmp_path / "tools" / "check").chmod(0o755)
    (tmp_path / "input.txt").write_text("data\n")
    assert harness_files(tmp_path, "sh run.sh input.txt",
                         "./tools/check&&cat input.txt", None,
                         "sh ../run.sh 'unclosed") == {"run.sh", "tools/check"}


def test_a_diff_to_another_commands_script_is_rejected(tmp_path):
    (tmp_path / "hello.txt").write_text("old\n")
    (tmp_path / "verify.sh").write_text("#!/bin/sh\ngrep -q new hello.txt\n")
    diff = ("diff --git a/verify.sh b/verify.sh\n--- a/verify.sh\n"
            "+++ b/verify.sh\n@@ -1,2 +1,2 @@\n #!/bin/sh\n"
            "-grep -q new hello.txt\n+exit 0\n")
    verdict = PristineCopy(AheadCopies(tmp_path), "grep -q new hello.txt",
                           harness_commands=("sh verify.sh",)).judge(diff,
                                                                     "v")
    assert verdict.result is None
    assert verdict.detail == "touches the PoC harness: verify.sh"


def test_a_harness_swapped_for_a_link_to_its_copy_is_rejected(tmp_path):
    # the link reads as the script did, but what it points to is the
    # patch's to change
    (tmp_path / "verify.sh").write_text("#!/bin/sh\nexit 1\n")
    diff = ("diff --git a/verify.sh b/verify.sh\ndeleted file mode 100644\n"
            "--- a/verify.sh\n+++ /dev/null\n@@ -1,2 +0,0 @@\n"
            "-#!/bin/sh\n-exit 1\n"
            "diff --git a/verify.sh b/verify.sh\nnew file mode 120000\n"
            "--- /dev/null\n+++ b/verify.sh\n@@ -0,0 +1 @@\n+copy.sh\n"
            "\\ No newline at end of file\n"
            "diff --git a/copy.sh b/copy.sh\nnew file mode 100644\n"
            "--- /dev/null\n+++ b/copy.sh\n@@ -0,0 +1,2 @@\n"
            "+#!/bin/sh\n+exit 1\n")
    verdict = PristineCopy(AheadCopies(tmp_path), "sh verify.sh").judge(
        diff, "v")
    assert verdict.result is None
    assert verdict.detail == "touches the PoC harness: verify.sh"


def test_a_harness_diff_that_does_not_apply_says_so(tmp_path):
    (tmp_path / "verify.sh").write_text("#!/bin/sh\nexit 1\n")
    diff = ("--- a/verify.sh\n+++ b/verify.sh\n@@ -1,2 +1,2 @@\n"
            " #!/bin/sh\n-exit 7\n+exit 0\n")
    verdict = PristineCopy(AheadCopies(tmp_path), "sh verify.sh").judge(
        diff, "v")
    assert verdict.result is None
    assert verdict.detail.startswith("patch does not apply: ")


# -- copies made ahead ------------------------------------------------------------


HELLO_DIFF = ("--- a/hello.txt\n+++ b/hello.txt\n@@ -1 +1 @@\n-old\n"
              "+new\n")


@pytest.fixture
def temp(tmp_path, monkeypatch):
    """An empty temp directory of the test's own."""
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    return temp


def _hello_tree(root: Path) -> Path:
    (root / "sub").mkdir(parents=True)
    (root / "hello.txt").write_text("old\n")
    (root / "sub" / "note.txt").write_text("note\n")
    (root / "sub" / "stale.h").symlink_to("nowhere.h")
    return root


def _copies_by_thread(monkeypatch) -> list:
    """(temp dir, thread) of each copy of a tree made from now on."""
    made = []
    copytree = shutil.copytree

    def recorded(src, dst, *args, **kwargs):
        # copytree calls itself for each subdirectory
        if Path(dst).name == "workspace":
            made.append((Path(dst).parent, threading.current_thread()))
        return copytree(src, dst, *args, **kwargs)

    monkeypatch.setattr(shutil, "copytree", recorded)
    return made


def test_ahead_copies_hand_out_each_copy_once_in_queue_order(
        tmp_path, temp, monkeypatch):
    source = _hello_tree(tmp_path / "src")
    made = _copies_by_thread(monkeypatch)
    ahead = AheadCopies(source, ("first-", "second-"))
    try:
        taken = [ahead.take("other-") for _ in range(3)]
    finally:
        ahead.close()
    # the first take gets the first copy queued, whenever each is done;
    # once the queue is empty, the taker gets a copy made in its thread
    assert [scratch.name.split("-")[0] for scratch in taken] == [
        "first", "second", "other"]
    assert [(scratch, is_the_copier(thread)) for scratch, thread in made] == [
        (taken[0], True), (taken[1], True), (taken[2], False)]
    assert made[2][1] is threading.current_thread()
    for scratch in taken:
        work = scratch / "workspace"
        assert (work / "hello.txt").read_text() == "old\n"
        assert (work / "sub" / "note.txt").read_text() == "note\n"
        assert not os.path.lexists(work / "sub" / "stale.h")
    # a copy taken is the taker's to remove
    assert sorted(temp.iterdir()) == sorted(taken)
    assert not copier_running()


def test_ahead_copies_go_to_one_taker_each_under_contention(
        tmp_path, temp, monkeypatch):
    source = tmp_path / "src"
    source.mkdir()
    (source / "a.txt").write_text("a\n")
    made = _copies_by_thread(monkeypatch)
    ahead = AheadCopies(source, ("ahead-",) * 30)
    taken: list = [[] for _ in range(8)]

    def taker(mine: list) -> None:
        # 8 takers of 4 copies each: 2 more than are queued
        for _ in range(4):
            mine.append(ahead.take("demand-"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=taker, args=(mine,))
                   for mine in taken]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(15)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        ahead.close()
    every = [scratch for mine in taken for scratch in mine]
    assert len(every) == len(set(every)) == 32
    assert sorted(every) == sorted(temp.iterdir())
    # each queued copy went to one taker, and the 2 takers that found
    # the queue empty made theirs in their own threads
    assert sorted(scratch.name.split("-")[0] for scratch in every) == (
        ["ahead"] * 30 + ["demand"] * 2)
    assert sorted(is_the_copier(thread) for _, thread in made) == (
        [False] * 2 + [True] * 30)


def test_a_copier_with_nothing_queued_starts_no_thread(tmp_path, temp,
                                                       monkeypatch):
    source = _hello_tree(tmp_path / "src")
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (
        started.append(self.name) or start(self)))
    made = _copies_by_thread(monkeypatch)
    copies = AheadCopies(source)
    scratch = copies.take("pristine-")
    assert (scratch / "workspace" / "hello.txt").read_text() == "old\n"
    shutil.rmtree(scratch)
    copies.close()
    assert started == []
    assert [thread for _, thread in made] == [threading.current_thread()]
    assert list(temp.iterdir()) == []


def test_close_makes_no_copy_and_stops_none_made_on_demand(tmp_path, temp,
                                                           monkeypatch):
    source = _hello_tree(tmp_path / "src")
    made = _copies_by_thread(monkeypatch)
    ahead = AheadCopies(source, ("pristine-",) * 2)
    ahead.close()
    ahead.close()
    assert not copier_running()
    # the queued copies the copier made before close() began are gone;
    # close() itself made none
    assert all(is_the_copier(thread) for _, thread in made)
    assert list(temp.iterdir()) == []
    # a copy taken from a closed copier is made on demand, whole
    scratch = ahead.take("late-")
    assert (scratch / "workspace" / "sub" / "note.txt").read_text() == (
        "note\n")
    assert made[-1] == (scratch, threading.current_thread())
    shutil.rmtree(scratch)


def test_a_closed_copier_leaves_nothing(tmp_path, temp, monkeypatch):
    # one copy finished, one held in the making, one queued
    source = _hello_tree(tmp_path / "src")
    bound, entered = threading.Event(), threading.Event()
    visits = []
    skip = execution.skip_dangling_links

    def held(directory, names):
        visits.append(directory)
        if len(visits) == 3:  # the second copy's top directory
            entered.set()
            bound.wait(10)
            ahead._stopped.wait(10)  # until close() begins
        return skip(directory, names)

    monkeypatch.setattr(execution, "skip_dangling_links", held)
    ahead = AheadCopies(source, ("pristine-",) * 3)
    bound.set()
    assert entered.wait(10)
    ahead.close()
    assert not copier_running()
    assert list(temp.iterdir()) == []
    # the copy in the making stopped before its next directory, and the
    # queued one never started
    assert visits == [str(source), str(source / "sub"), str(source)]
    ahead.close()  # closing again is fine
    # so is closing one whose copies are all finished, none taken
    ahead = AheadCopies(source, ("pristine-",) * 2)
    join_the_copier()
    assert len(list(temp.iterdir())) == 2
    ahead.close()
    assert list(temp.iterdir()) == []


def test_a_judge_takes_a_finished_copy_and_removes_it(tmp_path, temp,
                                                      monkeypatch):
    source = _hello_tree(tmp_path / "src")
    ahead = AheadCopies(source, ("pristine-",) * 2)
    join_the_copier()
    copied = []
    copytree = shutil.copytree
    monkeypatch.setattr(shutil, "copytree", lambda src, dst, *args, **kw: (
        copied.append(dst) or copytree(src, dst, *args, **kw)))
    pristine = PristineCopy(ahead, "grep -q new hello.txt")
    verdict = pristine.judge(HELLO_DIFF, "v")
    assert verdict.passed, verdict.detail
    assert copied == [] and len(list(temp.iterdir())) == 1
    ahead.close()
    assert list(temp.iterdir()) == []
    assert (source / "hello.txt").read_text() == "old\n"


def test_a_taker_waits_for_a_copy_in_the_making_instead_of_making_its_own(
        tmp_path, temp, monkeypatch):
    source = _hello_tree(tmp_path / "src")
    release = threading.Event()
    copiers = []
    copytree = shutil.copytree

    def held(src, dst, *args, **kwargs):
        if Path(src) == source:
            copiers.append(threading.current_thread())
            if is_the_copier(copiers[-1]):
                release.wait(10)
        return copytree(src, dst, *args, **kwargs)

    monkeypatch.setattr(shutil, "copytree", held)
    ahead = AheadCopies(source, ("pristine-",))
    verdicts = []
    judge = threading.Thread(target=lambda: verdicts.append(PristineCopy(
        ahead, "grep -q new hello.txt").judge(HELLO_DIFF, "v")))
    try:
        judge.start()
        judge.join(0.3)
        assert judge.is_alive() and verdicts == []  # waiting, not copying
        release.set()
        judge.join(10)
        assert not judge.is_alive()
    finally:
        release.set()
        ahead.close()
    assert verdicts[0].passed, verdicts[0].detail
    # the one copy made is the copier's
    assert len(copiers) == 1 and is_the_copier(copiers[0])
    assert list(temp.iterdir()) == []


def test_a_judge_whose_copies_ahead_failed_says_why_as_before(tmp_path,
                                                              temp):
    source = tmp_path / "src"  # gone before any copy
    ahead = AheadCopies(source, ("pristine-",) * 2)
    join_the_copier()
    assert list(temp.iterdir()) == []
    verdict = PristineCopy(ahead, "true").judge(HELLO_DIFF, "v")
    ahead.close()
    assert verdict.result is None
    # as a judge whose copier has nothing queued, such as evaluate's
    assert verdict.detail == PristineCopy(AheadCopies(source), "true").judge(
        HELLO_DIFF, "v").detail == (
        "workspace copy failed: FileNotFoundError: [Errno 2] No such file "
        "or directory: 'workspace'")
    assert list(temp.iterdir()) == []


def test_a_failed_copy_stops_the_ones_after_it(tmp_path, temp, monkeypatch):
    source = _hello_tree(tmp_path / "src")
    written = []
    full = [True]
    copyfile = shutil.copyfile

    def full_disk(src, dst, *args, **kwargs):
        # copytree copies each file through copy2, which calls copyfile
        written.append((Path(dst).relative_to(temp).parts[0],
                        threading.current_thread()))
        if full[0]:
            raise OSError(28, "No space left on device", str(dst))
        return copyfile(src, dst, *args, **kwargs)

    monkeypatch.setattr(shutil, "copyfile", full_disk)
    ahead = AheadCopies(source, ("pristine-",) * 3)
    try:
        join_the_copier()
        # each take makes a copy of its own, which fails too
        for _ in range(3):
            with pytest.raises(OSError, match="No space left"):
                ahead.take("pristine-")
        verdict = PristineCopy(ahead, "true").judge(HELLO_DIFF, "v")
        # an earlier failure does not stop a copy made on demand
        full[0] = False
        scratch = ahead.take("pristine-")
    finally:
        ahead.close()
    assert (scratch / "workspace" / "hello.txt").read_text() == "old\n"
    shutil.rmtree(scratch)
    # only the first copy wrote a file; the copier made no other
    copier = {name for name, thread in written if is_the_copier(thread)}
    assert len(copier) == 1
    # the other five, each made in the taker's thread
    assert len({name for name, thread in written
                if thread is threading.current_thread()}) == 5
    # the judge's own names the copy's side `copy/...`, as before
    assert verdict.detail == (
        "workspace copy failed: Error: [('workspace/hello.txt', "
        "'copy/hello.txt', \"[Errno 28] No space left on device: "
        "'copy/hello.txt'\"), ('workspace/sub/note.txt', "
        "'copy/sub/note.txt', \"[Errno 28] No space left on device: "
        "'copy/sub/note.txt'\")]")
    assert list(temp.iterdir()) == []


# -- the worker pool ------------------------------------------------------------


def test_in_pool_keeps_every_result_under_contention(monkeypatch):
    # more workers than cores, switching threads as often as it can
    monkeypatch.setattr(execution, "usable_cpus", lambda: 8)
    threads_before = threading.active_count()
    done = []

    def work(job):
        done.append(job)
        if job % 7 == 0:
            raise ValueError(job)
        return job * job

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        results = in_pool(list(range(400)), work)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 10
    assert sorted(done) == list(range(400))
    for job, result in enumerate(results):
        if job % 7 == 0:
            assert isinstance(result, ValueError) and result.args == (job,)
        else:
            assert result == job * job
    assert threading.active_count() == threads_before


def test_in_pool_runs_no_job_behind_a_slow_one(monkeypatch):
    monkeypatch.setattr(execution, "usable_cpus", lambda: 2)
    finished = []

    def work(job):
        time.sleep(1.0 if job == 0 else 0.05)
        finished.append(job)
        return job

    assert in_pool(list(range(5)), work) == list(range(5))
    # the other worker took every job while job 0 ran
    assert finished[-1] == 0 and sorted(finished[:-1]) == [1, 2, 3, 4]


def test_in_pool_stops_its_workers_when_the_caller_is_interrupted(
        monkeypatch):
    # the ^C reaches the caller while it waits for the results
    monkeypatch.setattr(execution, "usable_cpus", lambda: 2)
    threads_before = threading.active_count()
    started, done = [], []

    def work(job):
        started.append(job)
        if job == 0:
            time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.2)
        done.append(job)

    with pytest.raises(KeyboardInterrupt):
        in_pool(list(range(20)), work)
    # the workers finished at most the jobs in hand and took no other
    assert sorted(started) == [0, 1] and set(done) <= {0, 1}
    assert threading.active_count() == threads_before


# -- python script sandbox ---------------------------------------------------------


def test_script_sandbox_blocks_open():
    sandbox = PythonScriptSandbox()
    result = sandbox.run_script("open('/etc/passwd')")
    assert result.violation == "open blocked"
    assert sandbox.violations == ["open blocked"]


def test_script_sandbox_blocks_os_import():
    result = PythonScriptSandbox().run_script("import os\nprint(os.getcwd())")
    assert result.violation == "import of 'os' blocked"


def test_script_sandbox_swallowed_violation_still_counts():
    code = ("try:\n"
            "    open('x')\n"
            "except Exception:\n"
            "    print('nothing happened')\n")
    result = PythonScriptSandbox().run_script(code)
    assert result.violation == "open blocked"
    assert "nothing happened" in result.output


def test_script_sandbox_allowlisted_import_works():
    code = ("import re\n"
            "print(len(re.findall(r'FAIL', 'FAIL ok FAIL')))\n")
    result = PythonScriptSandbox().run_script(code)
    assert result.violation is None
    assert result.error is None
    assert result.output.strip() == "2"


def test_script_sandbox_error_becomes_traceback_output():
    result = PythonScriptSandbox().run_script("print('pre')\n1 / 0\n")
    assert result.violation is None
    assert result.error is not None
    assert "ZeroDivisionError" in result.output
    assert result.output.startswith("pre\n")


@pytest.mark.parametrize("code, frames, last", [
    ("x = 1 / 0", ['line 1, in <module>'],
     "ZeroDivisionError: division by zero"),
    # the standard library's frames go too
    ("import json\njson.loads('x')", ['line 2, in <module>'],
     "json.decoder.JSONDecodeError: Expecting value: line 1 column 1 "
     "(char 0)"),
    # a script that recurses without end shows its first three frames
    ("def f(n):\n    return f(n + 1)\nf(0)",
     ['line 3, in <module>', 'line 2, in f', 'line 2, in f'],
     "RecursionError: maximum recursion depth exceeded"),
    ("get_poc_output('missing')", ['line 1, in <module>'],
     "vulnmend.errors.UnknownLogName: no log named 'missing' "
     "(known: <none>)"),
], ids=["raise", "stdlib", "recursion", "log-bridge"])
def test_script_sandbox_traceback_shows_only_the_scripts_frames(
        code, frames, last):
    # no path or line of the package: the observation a model reads
    # does not depend on where the package lives or on its edits
    result = PythonScriptSandbox(log_provider=LogStore().get).run_script(
        code)
    assert result.error == result.output == "".join([
        "Traceback (most recent call last):\n",
        *(f'  File "<agent-script>", {frame}\n' for frame in frames),
        last, "\n"])


def test_script_sandbox_traceback_keeps_a_chained_error_placeless():
    code = ("try:\n    1 / 0\n"
            "except ZeroDivisionError as exc:\n"
            "    raise ValueError('bad') from exc\n")
    result = PythonScriptSandbox().run_script(code)
    assert "ZeroDivisionError: division by zero" in result.output
    assert result.output.endswith("ValueError: bad\n")
    assert "execution.py" not in result.output
    assert result.output.count('File "') == result.output.count(
        'File "<agent-script>"') == 2


def test_script_sandbox_output_cap():
    sandbox = PythonScriptSandbox(output_cap=100)
    result = sandbox.run_script("for i in range(1000):\n    print('x' * 10)\n")
    assert "[output truncated at 100 bytes]" in result.output
    assert len(result.output) < 1000


def test_script_sandbox_exec_eval_compile_blocked():
    for expr in ("exec('1')", "eval('1')", "compile('1', 'f', 'exec')"):
        result = PythonScriptSandbox().run_script(expr)
        assert result.violation is not None, expr


def test_script_sandbox_log_bridge():
    store = LogStore()
    store.put("baseline", "[SPA] g FAIL\n[SPA] g PASS\n[SPA] g FAIL\n")
    sandbox = PythonScriptSandbox(log_provider=store.get)
    code = ("log = get_poc_output('baseline')\n"
            "print(sum(1 for line in log.split('\\n')"
            " if line.endswith('FAIL')))\n")
    result = sandbox.run_script(code)
    assert result.violation is None
    assert result.output.strip() == "2"


def test_script_sandbox_unknown_log_surfaces_as_error():
    sandbox = PythonScriptSandbox(log_provider=LogStore().get)
    result = sandbox.run_script("get_poc_output('missing')")
    assert result.error is not None
    assert "missing" in result.output
